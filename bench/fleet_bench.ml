(* Fleet benchmark: cluster-scale serving over warm clones.

   Three experiments:

   - serving: an 8-tenant fleet under open-loop load (>= 1M requests
     total) — six steady tenants within their CPU budget, one surge
     tenant whose offered load exceeds its replicas' aggregate quota
     (the windowed p99 breaches and the controller scales out with
     verified warm clones), and one over-subscribed tenant behind
     admission control (the only tenant allowed to shed);
   - scale-out latency: time-to-ready replica via pool hit vs pool
     miss (after template eviction) vs cold boot, plus the low-water
     background refill that turns the next miss back into a hit;
   - churn: create/destroy cycles with mixed segment sizes and a
     sliding window of long-lived containers.  First-fit delegation
     fails while a third of memory is still free (no contiguous run
     left); scatter delegation completes >= 500 cycles on the same
     pattern, and rescues the very host first-fit wedged.

   Gates: >= 1M requests offered; scale-out on an induced p99 breach;
   shedding only for the over-subscribed tenant; every clone verified;
   pool-hit spawn >= 100x faster than cold boot; first-fit fails under
   churn while scatter completes >= 500 cycles; >= 100 containers per
   host; churn survivors analysis-clean. *)

let cfg_of frames = { Cki.Config.default with Cki.Config.segment_frames = frames; vcpus = 1 }

(* ------------------------------------------------------------------ *)
(* Serving                                                             *)
(* ------------------------------------------------------------------ *)

let run_serving () =
  let open Fleet.Controller in
  let bulk i =
    {
      default_tenant with
      name = Printf.sprintf "bulk%d" i;
      rate_rps = 30_000.0;
      requests = 160_000;
    }
  in
  (* The surge tenant's offered load exceeds one replica's CPU budget
     (10% of a CPU at ~2.5 us/request => ~40k rps capacity), so its
     windowed p99 breaches until scale-out adds budget. *)
  let surge = { default_tenant with name = "surge"; rate_rps = 60_000.0; requests = 30_000 } in
  let greedy =
    {
      default_tenant with
      name = "greedy";
      rate_rps = 50_000.0;
      requests = 40_000;
      admission_rps = 15_000.0;
      max_inflight = 64;
    }
  in
  let autoscaler =
    {
      Fleet.Autoscaler.default_config with
      Fleet.Autoscaler.slo_p99_us = 400.0;
      window = 200;
      max_replicas = 8;
      cooldown_ns = 3e6;
      idle_windows = 4;
    }
  in
  let cfg =
    {
      default_config with
      tenants = List.init 6 bulk @ [ surge; greedy ];
      autoscaler;
    }
  in
  let r = run cfg in
  let sum f = List.fold_left (fun a tr -> a + f tr) 0 r.tenants in
  let offered = sum (fun tr -> tr.tr_offered) in
  let verify_failures = sum (fun tr -> tr.tr_verify_failures) in
  let find name = List.find (fun tr -> tr.tr_name = name) r.tenants in
  let sg = find "surge" and gr = find "greedy" in
  let shedders = List.filter (fun tr -> tr.tr_shed > 0) r.tenants in
  let tenant tr =
    let m name unit v = Artifact.count (tr.tr_name ^ "." ^ name) unit v in
    let lat name v = Artifact.sim ~n:tr.tr_completed (tr.tr_name ^ "." ^ name) "us" v in
    [
      m "offered" "requests" tr.tr_offered;
      m "completed" "requests" tr.tr_completed;
      m "shed" "requests" tr.tr_shed;
      lat "p50" tr.tr_p50_us;
      lat "p99" tr.tr_p99_us;
      m "breaches" "windows" tr.tr_breaches;
      m "scale_outs" "replicas" tr.tr_scale_outs;
      m "peak_replicas" "replicas" tr.tr_peak_replicas;
    ]
  in
  ( Artifact.count "serving.offered" "requests" offered
    :: Artifact.count "serving.completed" "requests" (sum (fun tr -> tr.tr_completed))
    :: Artifact.count "serving.shed" "requests" (sum (fun tr -> tr.tr_shed))
    :: Artifact.sim "serving.makespan" "ns" r.makespan_ns
    :: List.concat_map tenant r.tenants,
    [
      Artifact.gate ">= 1M requests offered" (offered >= 1_000_000) (string_of_int offered);
      Artifact.gate "surge tenant scales out on a p99 breach"
        (sg.tr_breaches > 0 && sg.tr_scale_outs > 0 && sg.tr_peak_replicas > 1)
        (Printf.sprintf "%d breaches, %d scale-outs, peak %d replicas" sg.tr_breaches
           sg.tr_scale_outs sg.tr_peak_replicas);
      Artifact.gate "only the over-subscribed tenant sheds"
        (List.map (fun tr -> tr.tr_name) shedders = [ "greedy" ])
        (Printf.sprintf "greedy shed %d of %d; %d tenants shed" gr.tr_shed gr.tr_offered
           (List.length shedders));
      Artifact.gate "every clone verified" (verify_failures = 0)
        (Printf.sprintf "%d verify failures" verify_failures);
    ] )

(* ------------------------------------------------------------------ *)
(* Scale-out latency                                                   *)
(* ------------------------------------------------------------------ *)

let run_scaleout () =
  let machine = Hw.Machine.create ~cpus:2 ~mem_mib:512 () in
  let host = Cki.Host.create machine in
  let clock = Hw.Machine.clock machine in
  let ccfg = cfg_of 1024 in
  let cold_ns =
    Report.Stats.mean
      (List.init 4 (fun _ ->
           let c, ns = Hw.Clock.timed clock (fun () -> Cki.Container.create ~cfg:ccfg host) in
           Cki.Container.destroy c;
           ns))
  in
  let pool =
    Snapshot.Pool.create ~low_water:2 ~target:4
      ~make:(fun () ->
        match Snapshot.Template.create (Cki.Container.create ~cfg:ccfg host) with
        | Ok t -> t
        | Error e -> failwith ("fleet bench: template build failed: " ^ Snapshot.Template.show_error e))
      ()
  in
  let clones = ref [] in
  let spawn () =
    let r, ns = Hw.Clock.timed clock (fun () -> Snapshot.Pool.spawn_fast ~verify:true pool) in
    match r with
    | Ok c ->
        clones := c :: !clones;
        ns
    | Error e -> failwith ("fleet bench: spawn failed: " ^ Snapshot.Template.show_error e)
  in
  let hit_ns = Report.Stats.mean (List.init 8 (fun _ -> spawn ())) in
  (* Template eviction: the drained pool must rebuild inline (cold
     boot + capture + freeze) — the cliff the low-water refill avoids. *)
  let miss_ns =
    Report.Stats.mean
      (List.init 2 (fun _ ->
           ignore (Snapshot.Pool.drain pool);
           spawn ()))
  in
  ignore (Snapshot.Pool.drain pool);
  let refilled = Snapshot.Pool.refill_low_water pool in
  let post_refill_hit_ns = spawn () in
  List.iter Cki.Container.destroy !clones;
  let st = Snapshot.Pool.stats pool in
  let hit_speedup = cold_ns /. hit_ns in
  ( [
      Artifact.sim ~n:4 "scale_out.cold_boot" "ns" cold_ns;
      Artifact.sim ~n:8 "scale_out.pool_hit" "ns" hit_ns;
      Artifact.sim ~n:2 "scale_out.pool_miss" "ns" miss_ns;
      Artifact.sim "scale_out.post_refill_hit" "ns" post_refill_hit_ns;
      Artifact.sim ~n:8 "scale_out.hit_speedup" "x" hit_speedup;
      Artifact.count "scale_out.low_water_refilled" "templates" refilled;
      Artifact.count "scale_out.pool_hits" "spawns" st.Snapshot.Pool.hits;
      Artifact.count "scale_out.pool_misses" "spawns" st.Snapshot.Pool.misses;
      Artifact.count "scale_out.pool_refills" "templates" st.Snapshot.Pool.refills;
    ],
    [
      Artifact.gate "pool hit >= 100x faster than cold boot" (hit_speedup >= 100.0)
        (Printf.sprintf "%.0fx" hit_speedup);
    ] )

(* ------------------------------------------------------------------ *)
(* Churn + containers per host                                         *)
(* ------------------------------------------------------------------ *)

let max_free_run mem =
  let n = Hw.Phys_mem.total_frames mem in
  let best = ref 0 and run = ref 0 in
  for pfn = 0 to n - 1 do
    if Hw.Phys_mem.is_free mem pfn then begin
      incr run;
      if !run > !best then best := !run
    end
    else run := 0
  done;
  !best

type churn_out = {
  ch_cycles_done : int;
  ch_created : int;
  ch_failed : bool;
  ch_free_fraction : float;
  ch_max_run : int;
  ch_live : Cki.Container.t list;
  ch_host : Cki.Host.t;
}

(* Mixed transient/pinned churn: every cycle boots a transient container
   (sizes rotating 4/6/3/5 MiB) over a sliding window of 48 long-lived
   pinned containers (1/0.75/1.25/0.5 MiB).  The varied sizes defeat
   hole recycling, so under first-fit the largest free run shrinks far
   below the request while total free memory stays high. *)
let churn ~policy ~cycles =
  let machine = Hw.Machine.create ~cpus:2 ~mem_mib:96 () in
  let mem = Hw.Machine.mem machine in
  let host = Cki.Host.create ~policy machine in
  let tsizes = [| 1024; 1536; 768; 1280 |] in
  let psizes = [| 256; 192; 320; 128 |] in
  let slots = [| None; None |] in
  let pinned = Queue.create () in
  let created = ref 0 in
  let done_cycles = ref 0 in
  let failed = ref false in
  (try
     for i = 0 to cycles - 1 do
       let s = i mod 2 in
       let c = Cki.Container.create ~cfg:(cfg_of tsizes.(i mod 4)) host in
       incr created;
       (match slots.(1 - s) with
       | Some old ->
           Cki.Container.destroy old;
           slots.(1 - s) <- None
       | None -> ());
       slots.(s) <- Some c;
       let p = Cki.Container.create ~cfg:(cfg_of psizes.(i mod 4)) host in
       incr created;
       Queue.add p pinned;
       if Queue.length pinned > 48 then Cki.Container.destroy (Queue.pop pinned);
       incr done_cycles
     done
   with Hw.Phys_mem.Out_of_memory -> failed := true);
  let live =
    Queue.fold (fun acc c -> c :: acc) [] pinned
    @ List.filter_map Fun.id (Array.to_list slots)
  in
  {
    ch_cycles_done = !done_cycles;
    ch_created = !created;
    ch_failed = !failed;
    ch_free_fraction = float_of_int (Hw.Phys_mem.free_frames mem) /. float_of_int (Hw.Phys_mem.total_frames mem);
    ch_max_run = max_free_run mem;
    ch_live = live;
    ch_host = host;
  }

(* Pack 4 MiB replicas onto [host] until delegation fails. *)
let pack host =
  let packed = ref [] in
  (try
     while true do
       packed := Cki.Container.create ~cfg:(cfg_of 1024) host :: !packed
     done
   with Hw.Phys_mem.Out_of_memory -> ());
  !packed

let run_churn () =
  let cycles = 600 in
  let ff = churn ~policy:Cki.Host.First_fit ~cycles in
  (* The same wedged host, switched to scatter: delegation resumes. *)
  Cki.Host.set_policy ff.ch_host Cki.Host.Scatter;
  let rescued = List.length (pack ff.ch_host) in
  let sc = churn ~policy:Cki.Host.Scatter ~cycles in
  (* Live churn survivors must still satisfy the whole-machine
     invariants (delegation exclusivity, PTE reach, CoW refcounts). *)
  let findings = List.length (Analysis.check_machine ~containers:sc.ch_live) in
  (* Containers per host: pack a fresh 512 MiB host with 4 MiB replicas. *)
  let per_host = List.length (pack (Cki.Host.create (Hw.Machine.create ~cpus:2 ~mem_mib:512 ()))) in
  let outcome c =
    Printf.sprintf "%d cycles, %s" c.ch_cycles_done
      (if c.ch_failed then "then out of memory" else "completed")
  in
  let policy name c =
    [
      Artifact.count ("churn." ^ name ^ ".cycles") "cycles" c.ch_cycles_done;
      Artifact.count ("churn." ^ name ^ ".containers") "containers" c.ch_created;
      Artifact.sim ("churn." ^ name ^ ".free_fraction") "ratio" c.ch_free_fraction;
      Artifact.count ("churn." ^ name ^ ".largest_free_run") "frames" c.ch_max_run;
    ]
  in
  ( policy "first_fit" ff @ policy "scatter" sc
    @ [
        Artifact.count "churn.rescue_packed" "containers" rescued;
        Artifact.count "containers_per_host" "containers" per_host;
      ],
    [
      Artifact.gate "first-fit fails under churn" ff.ch_failed (outcome ff);
      Artifact.gate "scatter completes >= 500 churn cycles"
        ((not sc.ch_failed) && sc.ch_cycles_done >= 500)
        (outcome sc);
      Artifact.gate ">= 100 containers per host" (per_host >= 100) (string_of_int per_host);
      Artifact.gate "churn survivors analysis-clean" (findings = 0)
        (Printf.sprintf "%d findings on %d containers" findings (List.length sc.ch_live));
    ] )

let run () =
  let serving = run_serving () in
  let scale_out = run_scaleout () in
  let churn = run_churn () in
  let parts = [ serving; scale_out; churn ] in
  {
    Artifact.bench = "fleet";
    metrics = List.concat_map fst parts;
    gates = List.concat_map snd parts;
  }
