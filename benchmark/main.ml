(* The repo benchmark.  One invocation runs one workload in this
   process (no Domain.spawn) and ends with a one-line JSON result:

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--scale F] [--trace-file FILE]
     main.exe --smoke BENCHMARK.json

   --trace 0 reports the end-to-end metrics; --trace 1 runs the
   workload untraced and then traced, reports the per-layer metrics and
   the tracing overhead, and fails unless both runs simulated exactly
   the same thing.  --smoke is the small self-check run by
   [dune runtest]. *)

type workload = {
  name : string;
  measure : seed:int -> seconds:int -> scale:float -> trace:bool -> Metrics.outcome;
  smoke_scale : float;  (** at [--seconds 1]: small, yet every correctness gate can pass *)
}

let workloads =
  [
    { name = "kv-fsync"; measure = Serving.measure Serving.kv_fsync; smoke_scale = 0.02 };
    { name = "web-static"; measure = Serving.measure Serving.web_static; smoke_scale = 0.02 };
    { name = "fleet-churn"; measure = Churn.measure; smoke_scale = 0.02 };
    { name = "migrate-precopy"; measure = Precopy.measure; smoke_scale = 0.25 };
  ]

(* Every per-layer metric, on every workload: a layer a workload does
   not exercise reads 0. *)
let per_layer =
  [
    ("ioplane.lane_send.host_ns", "ns/op");
    ("ioplane.lane_pump.host_ns", "ns/op");
    ("ioplane.loop_tick.host_ns", "ns/op");
    ("ioplane.lane_reap.host_ns", "ns/op");
    ("bench.generator.host_ns", "ns/op");
  ]
  @ List.map (fun l -> (l ^ ".sim_ns", "ns/op")) Layers.layers
  @ [
      ("ioplane.doorbells", "1/op");
      ("ioplane.interrupts", "1/op");
      ("core.exits", "1/op");
      ("ioplane.service_passes", "1/op");
      ("ioplane.blk_writes", "1/op");
      ("ioplane.tx_stalls", "1/op");
      ("kernel.syscalls", "1/op");
      ("bench.generator_late_p99_us", "us");
      ("ioplane.capacity_rps", "1/s");
      ("fleet.scale_outs", "count");
      ("fleet.scale_ins", "count");
      ("fleet.breach_ratio", "ratio");
      ("fleet.throttle_events", "count");
      ("fleet.peak_replicas", "count");
      ("snapshot.pool_hit_ratio", "ratio");
      ("analysis.verify_failures", "count");
      ("fleet.spawn_sim_us", "us");
      ("snapshot.spawn_fast.host_us", "us/call");
      ("analysis.check_machine.host_us", "us/call");
      ("ioplane.lane_attach.host_us", "us/call");
      ("ioplane.lane_detach.host_us", "us/call");
      ("core.container_destroy.host_us", "us/call");
      ("fleet.scale_share", "%");
      ("migrate.rounds", "1/op");
      ("migrate.frames_resent", "1/op");
      ("migrate.final_dirty", "1/op");
      ("migrate.wire_mib", "MiB/op");
      ("migrate.converged_ratio", "ratio");
      ("migrate.downtime_p50_us", "us");
      ("migrate.downtime_p95_us", "us");
      ("migrate.total_p50_ms", "ms");
      ("migrate.work.host_ms", "ms/op");
      ("migrate.engine.host_ms", "ms/op");
      ("snapshot.capture.host_us", "us/call");
      ("snapshot.restore.host_us", "us/call");
      ("trace.overhead_pct", "%");
    ]

(* Host times are scaled to CPU-seconds of the host at its quiet speed:
   [slowdown] is the spin loop's time over its quiet time. *)
let end_to_end (o : Metrics.outcome) ~slowdown =
  [
    Metrics.metric "setup_s" "s" (o.setup_s /. slowdown);
    Metrics.metric "host_ops_per_s" "1/s" (Metrics.ops_per_s o *. slowdown);
    Metrics.metric "host_rss_mib" "MiB" (Meter.peak_rss_mib ());
    Metrics.metric "sim_mean_us" "us" o.sim_mean_us;
    Metrics.metric "sim_p95_us" "us" o.sim_p95_us;
  ]

(* (name, unit) of each entry under [key] in BENCHMARK.json. *)
let manifest_metrics json key =
  match Report.Json.member key json with
  | Some (Report.Json.List l) ->
      List.filter_map
        (fun m ->
          match (Report.Json.member "name" m, Report.Json.member "unit" m) with
          | Some (Report.Json.String n), Some (Report.Json.String u) -> Some (n, u)
          | Some (Report.Json.String n), None -> Some (n, "")
          | _ -> None)
        l
  | _ -> []

(* Everything simulated; must not change with tracing or repetition. *)
let sim_of (o : Metrics.outcome) =
  Metrics.metric "sim_mean_us" "us" o.sim_mean_us :: Metrics.metric "sim_p95_us" "us" o.sim_p95_us :: o.sim

let print_timed (o : Metrics.outcome) =
  Printf.printf "  timed phase: %d ops, %.3f CPU-s, %.3f wall-s%s\n" o.ops o.timed.Meter.cpu_s
    o.timed.Meter.wall_s
    (if Meter.descheduled o.timed then "  [descheduled: wall > 1.1 x CPU]" else "");
  Printf.printf "  host ops per CPU-s by chunk:%s\n"
    (String.concat "" (List.rev_map (fun (n, s) -> Printf.sprintf " %.1f" (float_of_int n /. s)) o.chunks))

type report = { metrics : Metrics.metric list; gates : Metrics.gate list; attempted : int; failed : int }

let report (o : Metrics.outcome) metrics gates =
  print_timed o;
  { metrics; gates = gates @ o.gates @ o.tail_gates; attempted = o.attempted; failed = o.failed }

(* --trace 1: the untraced run, then the traced one; per-layer metrics
   come from the traced run. *)
let traced_report measure ~trace_file =
  (* Keep only what is needed of the untraced run, so its state is
     freed before the traced run starts. *)
  let plain_sim, plain_ops_per_s, plain_gates =
    let plain, slowdown = Meter.with_slowdown (fun () -> measure false) in
    print_timed plain;
    (sim_of plain, Metrics.ops_per_s plain *. slowdown, plain.gates @ plain.tail_gates)
  in
  Gc.full_major ();
  let traced, slowdown = Meter.with_slowdown (fun () -> measure true) in
  Option.iter (Spans.write_chrome traced.spans) trace_file;
  let traced_ops_per_s = Metrics.ops_per_s traced *. slowdown in
  let overhead = 100.0 *. (plain_ops_per_s -. traced_ops_per_s) /. plain_ops_per_s in
  let reported = (Metrics.metric "trace.overhead_pct" "%" overhead :: traced.layers) @ traced.sim in
  List.iter
    (fun (m : Metrics.metric) ->
      if not (List.mem_assoc m.name per_layer) then failwith ("unlisted per-layer metric " ^ m.name))
    reported;
  let metrics =
    List.map
      (fun (name, unit_) ->
        match List.find_opt (fun (m : Metrics.metric) -> m.name = name) reported with
        | Some m -> m
        | None -> Metrics.metric name unit_ 0.0)
      per_layer
  in
  let same =
    Metrics.gate "traced run simulated exactly what the untraced run did"
      (Metrics.same_sim plain_sim (sim_of traced))
      ""
  in
  report traced metrics (same :: plain_gates)

let run w ~seed ~seconds ~scale ~trace ~trace_file =
  Printf.printf "workload %s  seed %d  seconds %d  scale %g  trace %b\n%!" w.name seed seconds scale trace;
  let measure trace = w.measure ~seed ~seconds ~scale ~trace in
  let r =
    if trace then traced_report measure ~trace_file
    else begin
      let o, slowdown = Meter.with_slowdown (fun () -> measure false) in
      Printf.printf "  host slowdown %.3f (spin loop over its quiet time); as measured: setup %.6f s, %.3f ops/CPU-s\n"
        slowdown o.setup_s (Metrics.ops_per_s o);
      report o (end_to_end o ~slowdown) []
    end
  in
  List.iter
    (fun (m : Metrics.metric) -> Printf.printf "  %-34s %16.6f %s\n" m.name m.value m.unit_)
    r.metrics;
  List.iter
    (fun (g : Metrics.gate) -> Printf.printf "  %-4s %s (%s)\n" (if g.ok then "ok" else "FAIL") g.gate g.detail)
    r.gates;
  let correct = List.for_all (fun (g : Metrics.gate) -> g.ok) r.gates in
  print_endline (Metrics.result_line ~correct ~attempted:r.attempted ~failed:r.failed r.metrics);
  exit (if correct then 0 else 1)

(* Both runs of each workload must pass every correctness gate and
   simulate bit-identical numbers; then every correctness gate must
   fail once its fault is planted in the finished run's state.  Also
   checks that [manifest] (BENCHMARK.json) lists exactly the workloads
   and metrics this program reports.  Prints failures only. *)
let smoke manifest =
  let checks = ref 0 and failures = ref 0 in
  let check ok what =
    incr checks;
    if not ok then begin
      incr failures;
      Printf.printf "FAIL %s\n%!" what
    end
  in
  let listed =
    match Report.Json.parse_file manifest with
    | Error e ->
        check false (manifest ^ ": " ^ e);
        fun _ -> []
    | Ok json -> manifest_metrics json
  in
  check
    (List.map fst (listed "workloads") = List.map (fun w -> w.name) workloads)
    "BENCHMARK.json lists the workloads";
  check (listed "per_layer" = per_layer) "BENCHMARK.json lists the per-layer metrics with their units";
  List.iter
    (fun w ->
      let run trace = w.measure ~seed:1 ~seconds:1 ~scale:w.smoke_scale ~trace in
      let a = run false and b = run true in
      let check ok what = check ok (w.name ^ ": " ^ what) in
      check
        (listed "end_to_end"
        = List.map (fun (m : Metrics.metric) -> (m.name, m.unit_)) (end_to_end a ~slowdown:1.0))
        "BENCHMARK.json lists the end-to-end metrics with their units";
      List.iter (fun (g : Metrics.gate) -> check g.ok (g.gate ^ " (" ^ g.detail ^ ")")) (a.gates @ b.gates);
      check (Metrics.same_sim (sim_of a) (sim_of b)) "untraced and traced runs simulate bit-identical numbers";
      List.iter
        (fun (g : Metrics.gate) ->
          check (List.mem_assoc g.gate b.faults) ("gate has a fault injection: " ^ g.gate))
        b.gates;
      List.iter
        (fun (gate, inject) ->
          inject ();
          check
            (List.exists (fun (g : Metrics.gate) -> g.gate = gate && not g.ok) (b.recheck ()))
            ("fault flips: " ^ gate))
        b.faults)
    workloads;
  check (not (Metrics.tail_gate ~what:"x" ~n:199 95.0).ok) "p95 of 199 samples fails";
  check (Metrics.tail_gate ~what:"x" ~n:200 95.0).ok "p95 of 200 samples passes";
  check (not (Metrics.tail_gate ~what:"x" ~n:999 99.0).ok) "p99 of 999 samples fails";
  Printf.printf "benchmark smoke: %d of %d checks passed\n" (!checks - !failures) !checks;
  if !failures > 0 then exit 1

let usage =
  "main.exe --workload (kv-fsync|web-static|fleet-churn|migrate-precopy) --seed N --seconds S \
   --trace 0|1 [--scale F] [--trace-file FILE]\n\
   main.exe --smoke BENCHMARK.json"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let scale = ref 1.0 and trace_file = ref None and smoke_manifest = ref None in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed for every generated input");
      ("--seconds", Arg.Set_int seconds, "S timed-phase work, sized to about S CPU-s on the reference machine");
      ("--trace", Arg.Set_int trace, "0|1 report end-to-end (0) or per-layer (1) metrics");
      ("--scale", Arg.Set_float scale, "F shrink every work size (smoke runs)");
      ("--trace-file", Arg.String (fun f -> trace_file := Some f), "FILE Chrome trace of the first 1000 operations (--trace 1)");
      ("--smoke", Arg.String (fun f -> smoke_manifest := Some f), "BENCHMARK.json run the self-check");
    ]
  in
  let fail msg =
    prerr_endline msg;
    prerr_endline usage;
    exit 2
  in
  (try Arg.parse_argv Sys.argv spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage
   with Arg.Bad m | Arg.Help m -> fail m);
  match !smoke_manifest with
  | Some manifest -> smoke manifest
  | None -> (
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | None -> fail ("unknown workload: " ^ !workload)
    | Some _ when !seconds < 1 || !trace < 0 || !trace > 1 || not (!scale > 0.0 && !scale <= 1.0) ->
        fail "bad --seconds, --trace or --scale"
    | Some w ->
        run w ~seed:!seed ~seconds:!seconds ~scale:!scale ~trace:(!trace = 1) ~trace_file:!trace_file)
