(* migrate-precopy: [Migrate.Engine.migrate] with [default_opts], each
   migration on a fresh 2-host fabric.  Exercises Mm dirty tracking,
   full snapshot capture and restore (where fleet-churn uses CoW
   clones) and the fabric; no serving traffic.

   A third of the migrations get each heap size (256/1024/4096 pages);
   within a size, dirty rates in [1e-5, 2e-4] pages/ns are stratified
   in log space and jittered by the seed, so every seed covers the same
   range and the fast-dirtying ones hit the round cap.

   The operation is a migration; its latency is the total simulated
   migration time.  Fabric creation and the app's boot are set-up, so
   [setup_s] is the median set-up of one migration. *)

let per_second = 40  (* migrations per [--seconds] *)
let heap_classes = [| 256; 1024; 4096 |]
let rate_lo = 1e-5
let rate_hi = 2e-4
let min_migrations = 10
let chunks = 10

let draws ~seed n =
  let rng = Random.State.make [| seed; 5 |] in
  let per_class = float_of_int ((n + 2) / 3) in
  let a =
    Array.init n (fun i ->
        let q = (float_of_int (i / 3) +. Random.State.float rng 1.0) /. per_class in
        (heap_classes.(i mod 3), rate_lo *. ((rate_hi /. rate_lo) ** q)))
  in
  (* Dealt round-robin into the chunks of the timed phase, so every
     chunk gets the same mix of sizes and rates. *)
  Array.concat (List.init chunks (fun c -> Array.of_list (List.filteri (fun i _ -> i mod chunks = c) (Array.to_list a))))

let span_names =
  [
    "migrate.engine";
    "migrate.work";
    "snapshot.capture";
    "snapshot.restore";
    "analysis.check_machine";
    "core.container_destroy";
  ]

let sp_engine = 0
let sp_work = 1

(* What the run keeps of one migration: numbers only, so that its
   fabric can be freed. *)
type mig = {
  outcome : Migrate.Engine.outcome option;  (** [None]: the engine returned an error *)
  total_us : float;
  downtime_us : float;
  rounds : int;
  frames_resent : int;
  final_dirty : int;
  converged : bool;
  wire_bytes : int;
  leaked : int;  (** source frames left on the source host *)
  findings : int;  (** analysis findings on the live copy *)
}

(* The last migration's fabric and live copy stay alive so the gates
   can re-scan them (and faults can reach them) after the run. *)
type last = { fab : Migrate.Fabric.t; src_container : int; live : Cki.Container.t option }

let scan l (m : mig) =
  {
    m with
    leaked = Migrate.Fabric.owned_frames l.fab ~hid:0 ~container:l.src_container;
    findings =
      Option.fold ~none:0 ~some:(fun c -> List.length (Analysis.check_machine ~containers:[ c ])) l.live;
  }

(* The target's clock is brought up to the source's (which the app's
   boot advanced), so the per-layer split does not count that gap as
   idle time; the first transfer would synchronise them anyway, and the
   engine times the migration from the later of the two. *)
let setup ~pages =
  let fab = Migrate.Fabric.create ~hosts:2 () in
  let app = Migrate.Chaos.boot_app ~heap_pages:pages fab ~hid:0 in
  ignore (Migrate.Fabric.expose fab ~name:"svc" ~home:0);
  let src = Migrate.Fabric.clock fab 0 and dst = Migrate.Fabric.clock fab 1 in
  Hw.Clock.advance dst (Hw.Clock.now src -. Hw.Clock.now dst);
  (fab, app)

(* One migration, the engine call and its work callbacks under spans. *)
let migrate_once ~spans ~opts ~rate fab (app : Migrate.Chaos.app) =
  let bytes0 = Migrate.Fabric.transferred_bytes fab in
  let work ~round ~budget_ns =
    Spans.enter spans sp_work;
    Migrate.Chaos.work_of ~rate app ~round ~budget_ns;
    Spans.leave spans
  in
  Spans.enter spans sp_engine;
  let r = Migrate.Engine.migrate fab ~src:0 ~dst:1 ~name:"svc" app.Migrate.Chaos.container ~work opts in
  Spans.leave spans;
  (Result.to_option r, Migrate.Fabric.transferred_bytes fab - bytes0)

let record l (st : Migrate.Engine.stats option) ~wire_bytes =
  let f get zero = Option.fold ~none:zero ~some:get st in
  scan l
    {
      outcome = Option.map (fun st -> st.Migrate.Engine.outcome) st;
      total_us = f (fun st -> st.Migrate.Engine.total_ns /. 1e3) nan;
      downtime_us = f (fun st -> st.Migrate.Engine.downtime_ns /. 1e3) nan;
      rounds = f (fun st -> List.length st.Migrate.Engine.rounds) 0;
      frames_resent = f (fun st -> st.Migrate.Engine.frames_resent) 0;
      final_dirty = f (fun st -> st.Migrate.Engine.final_dirty) 0;
      converged = f (fun st -> st.Migrate.Engine.converged) false;
      wire_bytes;
      leaked = 0;
      findings = 0;
    }

(* Replay the snapshot half of a migration on the live copy, each call
   under its own span: capture it, restore the image next to it, scan
   the restored copy, destroy it. *)
let replay ~spans fab (st : Migrate.Engine.stats) =
  let live = st.Migrate.Engine.live in
  Migrate.Engine.quiesce live;
  let image =
    Spans.span spans 2 (fun () ->
        match Snapshot.Capture.capture live with
        | Ok i -> i
        | Error e -> failwith ("precopy replay: capture: " ^ Snapshot.Capture.show_error e))
  in
  let copy =
    Spans.span spans 3 (fun () ->
        match Snapshot.Restore.restore ~verify:false (Migrate.Fabric.host fab 1) image with
        | Ok c -> c
        | Error e -> failwith ("precopy replay: restore: " ^ Snapshot.Restore.show_error e))
  in
  let findings = Spans.span spans 4 (fun () -> List.length (Analysis.check_machine ~containers:[ copy ])) in
  Spans.span spans 5 (fun () -> Cki.Container.destroy copy);
  findings

let completed m = m.outcome = Some Migrate.Engine.Completed

let gates migs ~unmapped =
  let n = List.length migs in
  let bad = List.length (List.filter (fun m -> not (completed m)) migs) in
  let leaked = List.fold_left (fun a m -> a + m.leaked) 0 migs in
  let findings = List.fold_left (fun a m -> a + m.findings) 0 migs in
  [
    Metrics.at_least "migrations" n min_migrations;
    Metrics.gate "every migration completed" (bad = 0) (Printf.sprintf "%d of %d did not" bad n);
    Metrics.gate "no source frames left on the source host" (leaked = 0)
      (Printf.sprintf "%d frames" leaked);
    Metrics.gate "analysis clean on every live copy" (findings = 0) (Printf.sprintf "%d findings" findings);
    Metrics.gate "every clock event has a layer" (unmapped = []) (String.concat " " unmapped);
  ]

let measure ~seed ~seconds ~scale ~trace =
  let spans = Spans.create ~enabled:trace span_names in
  let n = max 1 (int_of_float (Float.round (float_of_int (per_second * seconds) *. scale))) in
  let setups = ref [] and cpu = ref 0.0 and wall = ref 0.0 in
  (* [every] migrations make one chunk of the timed phase *)
  let every = max 1 (n / chunks) and in_chunk = ref 0 and chunk_cpu = ref 0.0 and done_chunks = ref [] in
  let migs = ref [] and last = ref None and unmapped = ref [] in
  let sim_layers = ref [] and replay_findings = ref 0 in
  let step ~opts (pages, rate) =
    let (fab, app), s = Meter.measure (fun () -> setup ~pages) in
    setups := s.Meter.cpu_s :: !setups;
    let clocks = [ Migrate.Fabric.clock fab 0; Migrate.Fabric.clock fab 1 ] in
    let before = Layers.snapshot clocks in
    let (st, wire_bytes), s = Meter.measure (fun () -> migrate_once ~spans ~opts ~rate fab app) in
    let after = Layers.snapshot clocks in
    cpu := !cpu +. s.Meter.cpu_s;
    wall := !wall +. s.Meter.wall_s;
    incr in_chunk;
    chunk_cpu := !chunk_cpu +. s.Meter.cpu_s;
    if !in_chunk = every then begin
      done_chunks := (every, !chunk_cpu) :: !done_chunks;
      in_chunk := 0;
      chunk_cpu := 0.0
    end;
    sim_layers := Layers.sim_ns ~before ~after () :: !sim_layers;
    unmapped := Layers.unmapped clocks @ !unmapped;
    let l =
      {
        fab;
        src_container = app.Migrate.Chaos.container.Cki.Container.container_id;
        live = Option.map (fun st -> st.Migrate.Engine.live) st;
      }
    in
    migs := record l st ~wire_bytes :: !migs;
    (match st with
    | Some st when trace -> replay_findings := !replay_findings + replay ~spans fab st
    | _ -> ());
    last := Some l
  in
  Array.iteri
    (fun i d ->
      if i = 1_000 then Spans.stop_recording spans;
      step ~opts:Migrate.Engine.default_opts d)
    (draws ~seed n);
  let last_clocks () =
    Option.fold ~none:[] ~some:(fun l -> [ Migrate.Fabric.clock l.fab 0; Migrate.Fabric.clock l.fab 1 ]) !last
  in
  let recheck () =
    (match (!last, !migs) with Some l, m :: rest -> migs := scan l m :: rest | _ -> ());
    gates !migs ~unmapped:(List.sort_uniq compare (Layers.unmapped (last_clocks ()) @ !unmapped))
    @
    if trace then
      [
        Metrics.gate "analysis clean on replayed restores" (!replay_findings = 0)
          (Printf.sprintf "%d findings" !replay_findings);
      ]
    else []
  in
  let ran = List.filter (fun m -> m.outcome <> None) (List.rev !migs) in
  let nf = float_of_int (List.length ran) in
  let total_us = Array.of_list (List.map (fun m -> m.total_us) ran) in
  let down_us = Array.of_list (List.map (fun m -> m.downtime_us) ran) in
  let mean_us = Metrics.mean total_us in
  let p95, p95_gate = Metrics.percentile ~what:"migration time" total_us 95.0 in
  let down50, down50_gate = Metrics.percentile ~what:"downtime" down_us 50.0 in
  let down95, down95_gate = Metrics.percentile ~what:"downtime" down_us 95.0 in
  let layer_sum l = List.fold_left (fun a ls -> a +. List.assoc l ls) 0.0 !sim_layers in
  let per_mig name unit_ f = Metrics.metric name unit_ (List.fold_left (fun a m -> a +. f m) 0.0 ran /. nf) in
  let sim =
    [
      per_mig "migrate.rounds" "1/op" (fun m -> float_of_int m.rounds);
      per_mig "migrate.frames_resent" "1/op" (fun m -> float_of_int m.frames_resent);
      per_mig "migrate.final_dirty" "1/op" (fun m -> float_of_int m.final_dirty);
      per_mig "migrate.wire_mib" "MiB/op" (fun m -> float_of_int m.wire_bytes /. 1048576.0);
      per_mig "migrate.converged_ratio" "ratio" (fun m -> if m.converged then 1.0 else 0.0);
      Metrics.metric "migrate.downtime_p50_us" "us" down50;
      Metrics.metric "migrate.downtime_p95_us" "us" down95;
      Metrics.metric "migrate.total_p50_ms" "ms" (fst (Metrics.percentile ~what:"migration time" total_us 50.0) /. 1e3);
    ]
    @ List.map (fun l -> Metrics.metric (l ^ ".sim_ns") "ns/op" (layer_sum l /. nf)) Layers.layers
  in
  let host_us id =
    let calls = float_of_int (max 1 (Spans.calls spans id)) in
    Metrics.metric (List.nth span_names id ^ ".host_us") "us/call" (Spans.self_ns spans id /. 1e3 /. calls)
  in
  let layers =
    (* per migration: the work callbacks run inside the engine call *)
    Metrics.metric "migrate.work.host_ms" "ms/op" (Spans.self_ns spans sp_work /. 1e6 /. nf)
    :: Metrics.metric "migrate.engine.host_ms" "ms/op" (Spans.self_ns spans sp_engine /. 1e6 /. nf)
    :: List.map host_us [ 2; 3; 4; 5 ]
  in
  let ok = List.length (List.filter completed !migs) in
  {
    Metrics.ops = ok;
    attempted = n;
    failed = n - ok;
    timed = { Meter.cpu_s = !cpu; wall_s = !wall };
    chunks = !done_chunks;
    setup_s = Metrics.median !setups;
    sim_mean_us = mean_us;
    sim_p95_us = p95;
    sim;
    layers;
    spans;
    gates = recheck ();
    tail_gates = [ p95_gate; down50_gate; down95_gate ];
    recheck;
    faults =
      [
        ( "every migration completed",
          fun () ->
            step
              ~opts:
                {
                  Migrate.Engine.default_opts with
                  Migrate.Engine.chaos = Some Migrate.Engine.Target_crash_before_cutover;
                }
              (256, rate_lo) );
        ( "no source frames left on the source host",
          fun () ->
            Option.iter
              (fun l ->
                ignore
                  (Hw.Phys_mem.alloc
                     (Hw.Machine.mem (Migrate.Fabric.machine l.fab 0))
                     ~owner:(Hw.Phys_mem.Container l.src_container) ~kind:Hw.Phys_mem.Data))
              !last );
        ( "analysis clean on every live copy",
          fun () -> Option.iter (fun l -> Option.iter Inject.undeclared_ptp l.live) !last );
        ("migrations >= 10", fun () -> migs := List.filteri (fun i _ -> i < min_migrations - 1) !migs);
        ("every clock event has a layer", fun () -> List.iter Inject.unmapped_event (last_clocks ()));
      ]
      (* The replayed copies are gone by the end of the run, so this
         fault is planted in the count the gate reads. *)
      @ if trace then [ ("analysis clean on replayed restores", fun () -> incr replay_findings) ] else [];
  }
