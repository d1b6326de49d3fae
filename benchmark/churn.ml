(* fleet-churn: [Fleet.Controller.run] with 8 surge tenants whose
   offered load outruns one replica's CPU quota, so the autoscaler
   clones, verifies, attaches and later destroys replicas over and over
   (about 40% of host CPU goes to that scale path).  This is the
   snapshot / analysis / fleet workload; kv-fsync and web-static do none
   of this work.

   The controller keeps per-request latencies to itself, so the fleet
   mean is the completion-weighted mean of tenant means and the p95 is
   the mean of tenant p95s (the tenants are identically configured). *)

let tenants = 8
let rate_rps = 60_000.0
let per_second = 6_000  (* requests per tenant per [--seconds] *)
let setups = 9

let config ~seed ~requests =
  let open Fleet.Controller in
  {
    default_config with
    tenants =
      List.init tenants (fun i ->
          { default_tenant with name = Printf.sprintf "surge%d" i; rate_rps; requests });
    autoscaler =
      {
        Fleet.Autoscaler.default_config with
        Fleet.Autoscaler.slo_p99_us = 400.0;
        window = 100;
        cooldown_ns = 1e6;
        idle_windows = 1;
        max_replicas = 8;
      };
    seed;
  }

let span_names =
  [
    "fleet.run_tenant";
    "snapshot.spawn_fast";
    "analysis.check_machine";
    "ioplane.lane_attach";
    "ioplane.lane_detach";
    "core.container_destroy";
  ]

let sp_run = 0
let replay_spans = [ 1; 2; 3; 4; 5 ]

type replayed = { findings : int; clock : Hw.Clock.t; kept : Cki.Container.t }

(* Replay [cycles] scale cycles through the same public calls the
   controller makes, each under its own span: the controller's verified
   spawn is split into an unverified [spawn_fast] plus an explicit
   [check_machine].  One more clone is kept alive afterwards for the
   gates to scan. *)
let replay ~spans ~cycles ~seed =
  let cfg = Fleet.Controller.default_config in
  let machine = Hw.Machine.create ~cpus:4 ~mem_mib:cfg.Fleet.Controller.mem_mib () in
  let host = Cki.Host.create machine in
  let loop = Ioplane.Loop.create (Hw.Machine.clock machine) in
  let pool =
    Snapshot.Pool.create ~low_water:cfg.Fleet.Controller.pool_low_water
      ~target:cfg.Fleet.Controller.pool_target
      ~make:(fun () ->
        match
          Snapshot.Template.create
            (Cki.Container.create ~cfg:Fleet.Controller.default_container_cfg host)
        with
        | Ok t -> t
        | Error e -> failwith ("churn replay: template: " ^ Snapshot.Template.show_error e))
      ()
  in
  let keys = Random.State.make [| seed; 4 |] in
  let spawn () =
    match Snapshot.Pool.spawn_fast ~verify:false pool with
    | Ok c -> c
    | Error e -> failwith ("churn replay: spawn: " ^ Snapshot.Template.show_error e)
  in
  let findings = ref 0 in
  for i = 1 to cycles do
    if i > 1_000 then Spans.stop_recording spans;
    let c = Spans.span spans 1 spawn in
    Spans.span spans 2 (fun () ->
        findings := !findings + List.length (Analysis.check_machine ~containers:[ c ]));
    let lane =
      Spans.span spans 3 (fun () ->
          Ioplane.Serve.Lane.attach ~loop ~workload:Ioplane.Serve.Kv_memcached
            ~queue_size:cfg.Fleet.Controller.queue_size ~window:cfg.Fleet.Controller.io_window
            ~rand:(Random.State.int keys) ~name:(Printf.sprintf "r%d" i) (Cki.Container.backend c))
    in
    Spans.span spans 4 (fun () -> Ioplane.Serve.Lane.detach lane);
    Spans.span spans 5 (fun () -> Cki.Container.destroy c);
    ignore (Snapshot.Pool.refill_low_water pool)
  done;
  { findings = !findings; clock = Hw.Machine.clock machine; kept = spawn () }

let sum f l = List.fold_left (fun a x -> a + f x) 0 l

let gates (trs : Fleet.Controller.tenant_result list) =
  let open Fleet.Controller in
  let short = List.filter (fun tr -> tr.tr_completed <> tr.tr_offered || tr.tr_shed > 0) trs in
  let idle = List.filter (fun tr -> tr.tr_scale_outs < 1) trs in
  [
    Metrics.gate "every offered request completed" (short = [])
      (String.concat " " (List.map (fun tr -> tr.tr_name) short));
    Metrics.gate "every clone verified"
      (sum (fun tr -> tr.tr_verify_failures) trs = 0)
      (Printf.sprintf "%d verify failures" (sum (fun tr -> tr.tr_verify_failures) trs));
    Metrics.gate "every tenant scaled out at least once" (idle = [])
      (String.concat " " (List.map (fun tr -> tr.tr_name) idle));
  ]

(* The replay's own gates: its clones scan clean and its clock events
   all map to a layer (the controller's machines are internal to it). *)
let replay_gates r =
  let findings = r.findings + List.length (Analysis.check_machine ~containers:[ r.kept ]) in
  let unmapped = Layers.unmapped [ r.clock ] in
  [
    Metrics.gate "analysis clean on replayed clones" (findings = 0)
      (Printf.sprintf "%d findings" findings);
    Metrics.gate "every clock event has a layer" (unmapped = []) (String.concat " " unmapped);
  ]

let measure ~seed ~seconds ~scale ~trace =
  let open Fleet.Controller in
  let spans = Spans.create ~enabled:trace span_names in
  let requests = max 1 (int_of_float (Float.round (float_of_int (per_second * seconds) *. scale))) in
  (* Set-up is a bootstrap-only run: pools, templates and the first
     replica of every tenant, one request each. *)
  let setup =
    List.init setups (fun _ ->
        Gc.full_major ();
        (snd (Meter.measure (fun () -> run (config ~seed ~requests:1)))).Meter.cpu_s)
  in
  Gc.full_major ();
  (* [run] without domains is [run_tenant] over the tenants in order;
     calling it per tenant makes each tenant one chunk of the timed
     phase. *)
  let cfg = config ~seed ~requests in
  let timed_tenants =
    List.mapi
      (fun i t ->
        Meter.measure (fun () ->
            Spans.span spans sp_run (fun () -> run_tenant cfg t ~seed:(tenant_seed cfg.seed i))))
      cfg.tenants
  in
  let trs = ref (List.map fst timed_tenants) in
  let timed =
    List.fold_left
      (fun (a : Meter.sample) (_, (s : Meter.sample)) ->
        { Meter.cpu_s = a.cpu_s +. s.cpu_s; wall_s = a.wall_s +. s.wall_s })
      { Meter.cpu_s = 0.0; wall_s = 0.0 } timed_tenants
  in
  let cycles = sum (fun tr -> tr.tr_scale_outs) !trs in
  let replayed = if trace then Some (replay ~spans ~cycles ~seed) else None in
  let completed = sum (fun tr -> tr.tr_completed) !trs in
  let offered = sum (fun tr -> tr.tr_offered) !trs in
  let mean_us =
    List.fold_left (fun a tr -> a +. (tr.tr_mean_us *. float_of_int tr.tr_completed)) 0.0 !trs
    /. float_of_int completed
  in
  let p95_us = Report.Stats.mean (List.map (fun tr -> tr.tr_p95_us) !trs) in
  let spawns = List.concat_map (fun tr -> tr.tr_spawns) !trs in
  let pool f = sum (fun tr -> f tr.tr_pool) !trs in
  let hits = pool (fun p -> p.Snapshot.Pool.hits) and misses = pool (fun p -> p.Snapshot.Pool.misses) in
  let ratio a b = float_of_int a /. float_of_int (max 1 b) in
  let count name v = Metrics.metric name "count" (float_of_int v) in
  let sim =
    [
      count "fleet.scale_outs" cycles;
      count "fleet.scale_ins" (sum (fun tr -> tr.tr_scale_ins) !trs);
      Metrics.metric "fleet.breach_ratio" "ratio"
        (ratio (sum (fun tr -> tr.tr_breaches) !trs) (sum (fun tr -> tr.tr_windows) !trs));
      count "fleet.throttle_events" (sum (fun tr -> tr.tr_throttle_events) !trs);
      count "fleet.peak_replicas" (sum (fun tr -> tr.tr_peak_replicas) !trs);
      Metrics.metric "snapshot.pool_hit_ratio" "ratio" (ratio hits (hits + misses));
      count "analysis.verify_failures" (sum (fun tr -> tr.tr_verify_failures) !trs);
      Metrics.metric "fleet.spawn_sim_us" "us" (Report.Stats.mean (List.map (fun s -> s.s_ns /. 1e3) spawns));
    ]
  in
  let per_call id =
    Spans.self_ns spans id /. 1e3 /. float_of_int (max 1 (Spans.calls spans id))
  in
  let replay_ns = List.fold_left (fun a id -> a +. Spans.self_ns spans id) 0.0 replay_spans in
  let layers =
    Metrics.metric "fleet.scale_share" "%" (100.0 *. replay_ns /. 1e9 /. timed.Meter.cpu_s)
    :: List.map
         (fun id -> Metrics.metric (List.nth span_names id ^ ".host_us") "us/call" (per_call id))
         replay_spans
  in
  let recheck () = gates !trs @ Option.fold ~none:[] ~some:replay_gates replayed in
  let with_first f = trs := (match !trs with tr :: rest -> f tr :: rest | [] -> []) in
  {
    Metrics.ops = completed;
    attempted = offered;
    failed = offered - completed;
    timed;
    chunks = List.map (fun (tr, (s : Meter.sample)) -> (tr.tr_completed, s.cpu_s)) timed_tenants;
    setup_s = Metrics.median setup;
    sim_mean_us = mean_us;
    sim_p95_us = p95_us;
    sim;
    layers;
    spans;
    gates = recheck ();
    tail_gates =
      List.map
        (fun tr -> Metrics.tail_gate ~what:(tr.tr_name ^ " latency") ~n:tr.tr_completed 95.0)
        !trs;
    recheck;
    faults =
      (* The controller hands out results, not its pools or replicas,
         so its faults are planted in the results the gates read; the
         replay's are planted in its state. *)
      [
        ( "every offered request completed",
          fun () -> with_first (fun tr -> { tr with tr_completed = tr.tr_completed - 1 }) );
        ("every clone verified", fun () -> with_first (fun tr -> { tr with tr_verify_failures = 1 }));
        ( "every tenant scaled out at least once",
          fun () -> with_first (fun tr -> { tr with tr_scale_outs = 0 }) );
      ]
      @ Option.fold ~none:[]
          ~some:(fun r ->
            [
              ("analysis clean on replayed clones", fun () -> Inject.undeclared_ptp r.kept);
              ("every clock event has a layer", fun () -> Inject.unmapped_event r.clock);
            ])
          replayed;
  }
