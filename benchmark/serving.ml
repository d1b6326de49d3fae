(* kv-fsync and web-static: 8 CKI containers behind one I/O plane,
   driven by the benchmark's own open-loop generator through the public
   lane API ([Ioplane.Serve.Lane.send/pump/reap] and
   [Ioplane.Loop.tick]), the same calls [Fleet.Controller] makes.

   Arrivals are Poisson per container, drawn from the seed.  A
   request's latency runs from its due time, so a stalled loop charges
   its wait to every request queued behind it; how late the generator
   sent each request is reported separately. *)

module Lane = Ioplane.Serve.Lane

type config = {
  workload : Ioplane.Serve.workload;
  fsync_every : int;
  window : int;
  containers : int;
  rate_rps : float;  (** offered load per container, about half of capacity *)
  warmup : int;  (** requests per container before the timed phase *)
  per_second : int;  (** timed requests per container per [--seconds] *)
}

(* Memcached, 1:1 SET/GET, a log append + fsync every 8th SET.  The
   warm-up runs until the log has reached its 32 KiB fsync cap; before
   that both simulated p99 and host speed drift. *)
let kv_fsync =
  {
    workload = Ioplane.Serve.Kv_memcached;
    fsync_every = 8;
    window = 4;
    containers = 8;
    rate_rps = 6_500.0;
    warmup = 8_192;
    per_second = 4_000;
  }

(* nginx serving a static file from tmpfs: stat/open/read/close in the
   guest kernel per request, no block I/O. *)
let web_static =
  {
    workload = Ioplane.Serve.Web_static;
    fsync_every = 0;
    window = 4;
    containers = 8;
    rate_rps = 8_000.0;
    warmup = 1_000;
    per_second = 6_000;
  }

type fleet = {
  clock : Hw.Clock.t;
  loop : Ioplane.Loop.t;
  lanes : Lane.t array;
  containers : Cki.Container.t list;
  arrivals : Random.State.t array;  (** one inter-arrival stream per container *)
  mutable idle_ns : float;  (** sim time the loop skipped waiting for arrivals *)
}

let build (cfg : config) ~seed =
  let machine = Hw.Machine.create ~cpus:4 ~mem_mib:(256 + (128 * cfg.containers)) () in
  let host = Cki.Host.create machine in
  let clock = Hw.Machine.clock machine in
  let loop = Ioplane.Loop.create clock in
  let keys = Random.State.make [| seed; 0 |] in
  let rand n = Random.State.int keys n in
  let containers = List.init cfg.containers (fun _ -> Cki.Container.create host) in
  let lanes =
    Array.of_list
      (List.mapi
         (fun i c ->
           Lane.attach ~loop ~workload:cfg.workload ~fsync_every:cfg.fsync_every ~queue_size:64
             ~window:cfg.window ~rand ~name:(Printf.sprintf "c%d" i) (Cki.Container.backend c))
         containers)
  in
  {
    clock;
    loop;
    lanes;
    containers;
    arrivals = Array.init cfg.containers (fun i -> Random.State.make [| seed; 1; i |]);
    idle_ns = 0.0;
  }

(* Spans the serving loop records, in registration order. *)
let span_names =
  [ "bench.generator"; "ioplane.lane_send"; "ioplane.lane_pump"; "ioplane.loop_tick"; "ioplane.lane_reap" ]

let sp_gen = 0
let sp_send = 1
let sp_pump = 2
let sp_tick = 3
let sp_reap = 4

type phase = {
  latencies_us : float array;
  late_us : float array;  (** send time minus due time, per request *)
  completed : int;
}

let exp_gap rng rate = -.log (1.0 -. Random.State.float rng 1.0) /. rate *. 1e9

(* Offer [per_lane] requests to every container at [rate] rps each and
   run until all of them complete.  [on_op] sees the running count of
   completed requests. *)
let run_phase ?(spans = Spans.create ~enabled:false span_names) ?(on_op = fun _ -> ()) fleet
    ~rate ~per_lane =
  let n = Array.length fleet.lanes in
  let clock = fleet.clock in
  let start = Hw.Clock.now clock in
  let due = Array.map (fun rng -> start +. exp_gap rng rate) fleet.arrivals in
  let sent = Array.make n 0 in
  let total = n * per_lane in
  let latencies = Array.make total 0.0 and late = Array.make total 0.0 in
  let nsent = ref 0 and completed = ref 0 in
  let rounds = ref 0 in
  while !completed < total do
    incr rounds;
    if !rounds > (100 * total) + 10_000 then failwith "serving: loop failed to converge";
    let progressed = ref false in
    Spans.enter spans sp_gen;
    for i = 0 to n - 1 do
      while sent.(i) < per_lane && due.(i) <= Hw.Clock.now clock do
        late.(!nsent) <- (Hw.Clock.now clock -. due.(i)) /. 1e3;
        incr nsent;
        Spans.enter spans sp_send;
        Lane.send fleet.lanes.(i) ~ts:due.(i);
        Spans.leave spans;
        sent.(i) <- sent.(i) + 1;
        due.(i) <- due.(i) +. exp_gap fleet.arrivals.(i) rate;
        progressed := true
      done
    done;
    Spans.leave spans;
    for i = 0 to n - 1 do
      Spans.enter spans sp_pump;
      if Lane.pump fleet.lanes.(i) > 0 then progressed := true;
      Spans.leave spans
    done;
    Spans.enter spans sp_tick;
    if Ioplane.Loop.tick fleet.loop > 0 then progressed := true;
    Spans.leave spans;
    for i = 0 to n - 1 do
      Spans.enter spans sp_reap;
      let replies = Lane.reap fleet.lanes.(i) in
      Spans.leave spans;
      List.iter
        (fun ts ->
          latencies.(!completed) <- (Hw.Clock.now clock -. ts) /. 1e3;
          incr completed;
          on_op !completed;
          progressed := true)
        replies
    done;
    if not !progressed then begin
      let next = ref infinity in
      Array.iteri (fun i d -> if sent.(i) < per_lane && d < !next then next := d) due;
      let now = Hw.Clock.now clock in
      let gap = if !next < infinity && !next > now then !next -. now else 1_000.0 in
      fleet.idle_ns <- fleet.idle_ns +. gap;
      Hw.Clock.advance clock gap
    end
  done;
  { latencies_us = latencies; late_us = late; completed = !completed }

let slo_us = 200.0
let probe_requests = 2_000
let probes = 7

(* Highest offered fleet rate whose probe p99 stays within [slo_us]:
   bisection on the per-container rate, in log space, over [probes]
   probes. *)
let capacity_rps fleet ~lo ~hi ~per_lane =
  let lo = ref lo and hi = ref hi and gates = ref [] in
  for i = 1 to probes do
    let mid = sqrt (!lo *. !hi) in
    let p = run_phase fleet ~rate:mid ~per_lane in
    let p99, g = Metrics.percentile ~what:(Printf.sprintf "capacity probe %d latency" i) p.latencies_us 99.0 in
    gates := g :: !gates;
    if p99 <= slo_us then lo := mid else hi := mid
  done;
  (!lo *. float_of_int (Array.length fleet.lanes), List.rev !gates)

(* Device counters summed over the fleet's containers. *)
let device_sum fleet f =
  Array.fold_left
    (fun acc lane ->
      match Kernel_model.Kernel.io_devices (Lane.backend lane).Virt.Backend.kernel with
      | None -> acc
      | Some (tx, rx, blk) -> acc + f tx + f rx + f blk)
    0 fleet.lanes

type counters = {
  doorbells : int;
  interrupts : int;
  exits : int;
  service_passes : int;
  blk_writes : int;
  tx_stalls : int;
}

let counters fleet =
  {
    doorbells = device_sum fleet Kernel_model.Virtio.kicks;
    interrupts = device_sum fleet Kernel_model.Virtio.interrupts;
    exits =
      List.fold_left
        (fun a e -> a + Hw.Clock.occurrences fleet.clock e)
        0 (Ioplane.Serve.exit_events "cki");
    service_passes = Ioplane.Loop.service_passes fleet.loop;
    blk_writes = Ioplane.Blkstore.writes (Ioplane.Loop.blkstore fleet.loop);
    tx_stalls =
      Array.fold_left
        (fun a lane -> a + Kernel_model.Kernel.tx_stalls (Lane.backend lane).Virt.Backend.kernel)
        0 fleet.lanes;
  }

(* Gates that read the fleet's final state. *)
let state_gates fleet ~expected =
  let sent = Array.fold_left (fun a l -> a + Lane.sent l) 0 fleet.lanes in
  let completed = Array.fold_left (fun a l -> a + Lane.completed l) 0 fleet.lanes in
  let findings = List.length (Analysis.check_machine ~containers:fleet.containers) in
  let unmapped = Layers.unmapped [ fleet.clock ] in
  [
    Metrics.gate "every sent request completed"
      (sent = expected && completed = expected)
      (Printf.sprintf "expected %d, sent %d, completed %d" expected sent completed);
    Metrics.gate "analysis clean on the final containers" (findings = 0)
      (Printf.sprintf "%d findings" findings);
    Metrics.gate "every clock event has a layer" (unmapped = []) (String.concat " " unmapped);
  ]

let setups = 3
let chunks = 10

let measure (cfg : config) ~seed ~seconds ~scale ~trace =
  let spans = Spans.create ~enabled:trace span_names in
  let scaled n = max 1 (int_of_float (Float.round (float_of_int n *. scale))) in
  let warmup = scaled cfg.warmup in
  let per_lane = scaled (cfg.per_second * seconds) in
  (* Set up [setups] times from scratch and keep the last fleet; the
     fleets are identical, so the timed phase does not depend on
     which one it gets. *)
  let fleet = ref None and setup = ref [] in
  for _ = 1 to setups do
    fleet := None;
    Gc.full_major ();
    let f, s =
      Meter.measure (fun () ->
          let f = build cfg ~seed in
          ignore (run_phase f ~rate:cfg.rate_rps ~per_lane:warmup);
          f)
    in
    fleet := Some f;
    setup := s.Meter.cpu_s :: !setup
  done;
  let fleet = Option.get !fleet in
  let c0 = counters fleet and before = Layers.snapshot [ fleet.clock ] and idle0 = fleet.idle_ns in
  let every = max 1 (cfg.containers * per_lane / chunks) in
  let (phase, chunks), timed =
    Meter.measure (fun () ->
        let c = Meter.start_chunks () in
        let on_op n =
          if n = 1_000 then Spans.stop_recording spans;
          if n mod every = 0 then Meter.cut c ~ops:n
        in
        (run_phase ~spans ~on_op fleet ~rate:cfg.rate_rps ~per_lane, c))
  in
  let after = Layers.snapshot [ fleet.clock ] and c1 = counters fleet in
  let n = float_of_int phase.completed in
  let sim_layers = Layers.sim_ns ~idle_ns:(fleet.idle_ns -. idle0) ~before ~after () in
  let p95, p95_gate = Metrics.percentile ~what:"request latency" phase.latencies_us 95.0 in
  let late_p99, late_gate = Metrics.percentile ~what:"generator lateness" phase.late_us 99.0 in
  let capacity, capacity_gates =
    if trace then
      capacity_rps fleet ~lo:(cfg.rate_rps /. 2.0) ~hi:(cfg.rate_rps *. 4.0)
        ~per_lane:(scaled probe_requests)
    else (nan, [])
  in
  let per_req name v = Metrics.metric name "1/op" (float_of_int v /. n) in
  let sim =
    List.map (fun (l, ns) -> Metrics.metric (l ^ ".sim_ns") "ns/op" (ns /. n)) sim_layers
    @ [
        per_req "ioplane.doorbells" (c1.doorbells - c0.doorbells);
        per_req "ioplane.interrupts" (c1.interrupts - c0.interrupts);
        per_req "core.exits" (c1.exits - c0.exits);
        per_req "ioplane.service_passes" (c1.service_passes - c0.service_passes);
        per_req "ioplane.blk_writes" (c1.blk_writes - c0.blk_writes);
        per_req "ioplane.tx_stalls" (c1.tx_stalls - c0.tx_stalls);
        per_req "kernel.syscalls" (Layers.count_delta ~before ~after "syscall");
        Metrics.metric "bench.generator_late_p99_us" "us" late_p99;
      ]
  in
  let host_ns id = Metrics.metric (List.nth span_names id ^ ".host_ns") "ns/op" (Spans.self_ns spans id /. n) in
  let layers =
    Metrics.metric "ioplane.capacity_rps" "1/s" capacity
    :: List.map host_ns [ sp_send; sp_pump; sp_tick; sp_reap; sp_gen ]
  in
  let probed = if trace then probes * scaled probe_requests else 0 in
  let expected = cfg.containers * (warmup + per_lane + probed) in
  let recheck () = state_gates fleet ~expected in
  {
    Metrics.ops = phase.completed;
    attempted = cfg.containers * per_lane;
    failed = (cfg.containers * per_lane) - phase.completed;
    timed;
    chunks = chunks.Meter.cut;
    setup_s = Metrics.median !setup;
    sim_mean_us = Metrics.mean phase.latencies_us;
    sim_p95_us = p95;
    sim;
    layers;
    spans;
    gates = recheck ();
    tail_gates = p95_gate :: late_gate :: capacity_gates;
    recheck;
    faults =
      [
        ("every sent request completed", fun () -> Lane.send fleet.lanes.(0) ~ts:(Hw.Clock.now fleet.clock));
        ("analysis clean on the final containers", fun () -> Inject.undeclared_ptp (List.hd fleet.containers));
        ("every clock event has a layer", fun () -> Inject.unmapped_event fleet.clock);
      ];
  }
