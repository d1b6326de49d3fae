(* The host I/O plane: software switch, host event loop, the
   traffic-serving harness, ring backpressure under overload, the
   Figure 16 exit-count ordering, and snapshot parity — a restored or
   warm-cloned container must produce byte-for-byte identical
   per-request notification counts to a fresh one. *)

open Alcotest

let check_int = check int
let check_bool = check bool

(* ----------------------------- Switch ----------------------------- *)

let test_switch_forward () =
  let clock = Hw.Clock.create () in
  let sw = Ioplane.Switch.create clock in
  let a = Ioplane.Switch.port sw ~name:"a" in
  let b = Ioplane.Switch.port sw ~name:"b" in
  Ioplane.Switch.connect sw a b;
  Ioplane.Switch.forward sw ~src:a (Bytes.of_string "hello");
  Ioplane.Switch.forward sw ~src:a (Bytes.of_string "world");
  check_int "b has two frames" 2 (Ioplane.Switch.pending b);
  (match Ioplane.Switch.drain b with
  | [ x; y ] ->
      check string "fifo order" "hello" (Bytes.to_string x);
      check string "fifo order 2" "world" (Bytes.to_string y)
  | l -> fail (Printf.sprintf "expected 2 frames, got %d" (List.length l)));
  check_int "drained" 0 (Ioplane.Switch.pending b);
  (* Reverse direction uses the same link. *)
  Ioplane.Switch.forward sw ~src:b (Bytes.of_string "back");
  check_int "a got the reply" 1 (Ioplane.Switch.pending a);
  check_int "forwarded counter" 3 (Ioplane.Switch.forwarded sw);
  check_int "no drops" 0 (Ioplane.Switch.dropped sw);
  (* An unlinked port drops. *)
  let lone = Ioplane.Switch.port sw ~name:"lone" in
  Ioplane.Switch.forward sw ~src:lone (Bytes.of_string "void");
  check_int "unlinked frame dropped" 1 (Ioplane.Switch.dropped sw);
  (* Forwarding costs host time. *)
  check_bool "switch charged the clock" true (Hw.Clock.occurrences clock "switch_forward" > 0)

(* ------------------------- Loop + backpressure --------------------- *)

let mk_cki_attached ?(queue_size = 64) ?(window = 1) () =
  let c = Cki.Container.create_standalone ~mem_mib:256 () in
  let b = Cki.Container.backend c in
  let kernel = b.Virt.Backend.kernel in
  Kernel_model.Kernel.configure_io ~queue_size ~window kernel;
  let loop = Ioplane.Loop.create b.Virt.Backend.clock in
  let att = Ioplane.Loop.attach loop kernel ~name:"t0" in
  (c, b, loop, att)

let test_backpressure_overload () =
  (* A 4-entry TX ring, a window large enough that no doorbell fires,
     and a 16-request burst handled without a single event-loop tick:
     the ring must fill, and the guest must ride the graceful
     backpressure path (synchronous host service) instead of losing
     replies or raising. *)
  let _c, b, loop, att = mk_cki_attached ~queue_size:4 ~window:64 () in
  let kernel = b.Virt.Backend.kernel in
  let srv = Workloads.Kv.create_server b Workloads.Kv.Memcached in
  Ioplane.Loop.set_rx_socket att srv.Workloads.Kv.sock_id;
  let sw = Ioplane.Loop.switch loop in
  let client = Ioplane.Switch.port sw ~name:"client" in
  Ioplane.Switch.connect sw att.Ioplane.Loop.port client;
  let n = 16 in
  let reqs = List.init n (fun i -> if i mod 2 = 0 then Workloads.Kv.Set i else Workloads.Kv.Get i) in
  List.iter
    (fun r ->
      Ioplane.Switch.forward sw ~src:client
        (Workloads.Kv.encode_request r srv.Workloads.Kv.value_size))
    reqs;
  ignore (Ioplane.Loop.pump att);
  List.iter (fun r -> Workloads.Kv.handle_request srv r) reqs;
  (* Flush the tail. *)
  while Ioplane.Loop.tick loop > 0 do
    ()
  done;
  check_int "every reply reached the client port" n (Ioplane.Switch.pending client);
  check_bool "the ring filled and stalled gracefully" true
    (Kernel_model.Kernel.tx_stalls kernel > 0);
  check_bool "stall time was charged" true
    (Hw.Clock.occurrences b.Virt.Backend.clock "virtio_tx_stall" > 0);
  check_int "all requests handled" n srv.Workloads.Kv.requests

let test_loop_naive_window_services_on_kick () =
  (* window 0: the doorbell exit itself triggers the service pass —
     the reply is at the client port before any tick runs. *)
  let _c, b, loop, att = mk_cki_attached ~queue_size:8 ~window:0 () in
  let srv = Workloads.Kv.create_server b Workloads.Kv.Memcached in
  Ioplane.Loop.set_rx_socket att srv.Workloads.Kv.sock_id;
  let sw = Ioplane.Loop.switch loop in
  let client = Ioplane.Switch.port sw ~name:"client" in
  Ioplane.Switch.connect sw att.Ioplane.Loop.port client;
  Ioplane.Switch.forward sw ~src:client
    (Workloads.Kv.encode_request (Workloads.Kv.Get 1) srv.Workloads.Kv.value_size);
  ignore (Ioplane.Loop.pump att);
  Workloads.Kv.handle_request srv (Workloads.Kv.Get 1);
  check_int "reply served by the doorbell itself" 1 (Ioplane.Switch.pending client)

(* ----------------------------- Serve ------------------------------ *)

let serve_checked cfg =
  Analysis.checked
    ~label:(Printf.sprintf "test/%s-w%d" cfg.Ioplane.Serve.backend cfg.Ioplane.Serve.window)
    (fun () -> Ioplane.Serve.run cfg)

let small_cfg backend window =
  {
    Ioplane.Serve.default_config with
    Ioplane.Serve.backend;
    containers = 2;
    requests_per_container = 25;
    window;
  }

let test_serve_all_backends () =
  List.iter
    (fun backend ->
      let r = serve_checked (small_cfg backend 1) in
      check_int (backend ^ ": all requests completed") 50 r.Ioplane.Serve.r_requests;
      check_bool (backend ^ ": throughput positive") true (r.Ioplane.Serve.r_throughput_rps > 0.0);
      check_bool
        (backend ^ ": latency percentiles ordered")
        true
        (r.Ioplane.Serve.r_p50_us <= r.Ioplane.Serve.r_p95_us
        && r.Ioplane.Serve.r_p95_us <= r.Ioplane.Serve.r_p99_us);
      if backend = "runc" then begin
        check_int "runc: no doorbells" 0 r.Ioplane.Serve.r_doorbells;
        check_int "runc: no exits" 0 r.Ioplane.Serve.r_exits
      end
      else begin
        check_bool (backend ^ ": rings kicked") true (r.Ioplane.Serve.r_doorbells > 0);
        check_bool (backend ^ ": interrupts delivered") true (r.Ioplane.Serve.r_interrupts > 0)
      end)
    [ "runc"; "hvm"; "pvm"; "cki" ]

let test_serve_exit_ordering () =
  (* Figure 16's shape: CKI coalesced < CKI naive < HVM on exits per
     request; runc at zero. The ordering needs saturating load — at
     trickle rates every backend takes one notification pair per
     request and only the per-notification exit cost differs. *)
  let saturated backend window =
    { (small_cfg backend window) with Ioplane.Serve.rate_rps = 1e6; requests_per_container = 50 }
  in
  let hvm = serve_checked (saturated "hvm" 0) in
  let cki_naive = serve_checked (saturated "cki" 0) in
  let cki_coal = serve_checked (saturated "cki" 4) in
  check_bool "cki naive beats hvm" true
    (cki_naive.Ioplane.Serve.r_exits_per_req < hvm.Ioplane.Serve.r_exits_per_req);
  check_bool "coalescing beats naive" true
    (cki_coal.Ioplane.Serve.r_exits_per_req < cki_naive.Ioplane.Serve.r_exits_per_req);
  check_bool "coalescing suppressed kicks" true (cki_coal.Ioplane.Serve.r_suppressed_kicks > 0);
  check_bool "coalescing reduced doorbells" true
    (cki_coal.Ioplane.Serve.r_doorbells < cki_naive.Ioplane.Serve.r_doorbells)

let test_serve_sched_multiplexed () =
  let cfg = { (small_cfg "cki" 1) with Ioplane.Serve.use_sched = true } in
  let r = serve_checked cfg in
  check_int "all requests completed under the scheduler" 50 r.Ioplane.Serve.r_requests;
  check_bool "throughput positive" true (r.Ioplane.Serve.r_throughput_rps > 0.0)

let test_serve_blk_path () =
  let cfg = { (small_cfg "cki" 1) with Ioplane.Serve.fsync_every = 2 } in
  let r = serve_checked cfg in
  check_bool "fsyncs landed in the block store" true (r.Ioplane.Serve.r_blk_writes > 0)

(* Major-heap words one steady-state request allocates, over [measure]
   rounds after [warm] rounds; each round sends one request per lane
   and serves it to completion.  A payload over 256 words skips the
   minor heap, so a fresh buffer per read, fsync or service pass shows
   here as hundreds of words a request. *)
let major_words_per_request ~workload ~fsync_every ~warm ~measure =
  let lanes = 2 in
  let machine = Hw.Machine.create ~cpus:1 ~mem_mib:(256 + (128 * lanes)) () in
  let host = Cki.Host.create machine in
  let clock = Hw.Machine.clock machine in
  let loop = Ioplane.Loop.create clock in
  let keys = Random.State.make [| 27 |] in
  let rand n = Random.State.int keys n in
  let lanes =
    List.init lanes (fun i ->
        Ioplane.Serve.Lane.attach ~loop ~workload ~fsync_every ~queue_size:64 ~window:4 ~rand
          ~name:(Printf.sprintf "m%d" i)
          (Cki.Container.backend (Cki.Container.create host)))
  in
  let completed = ref 0 in
  let round () =
    List.iter (fun l -> Ioplane.Serve.Lane.send l ~ts:(Hw.Clock.now clock)) lanes;
    List.iter (fun l -> ignore (Ioplane.Serve.Lane.pump l)) lanes;
    while Ioplane.Loop.tick loop > 0 do
      ()
    done;
    List.iter (fun l -> completed := !completed + List.length (Ioplane.Serve.Lane.reap l)) lanes
  in
  for _ = 1 to warm do
    round ()
  done;
  let done0 = !completed in
  let words0 = (Gc.quick_stat ()).Gc.major_words in
  for _ = 1 to measure do
    round ()
  done;
  let words = (Gc.quick_stat ()).Gc.major_words -. words0 in
  let served = !completed - done0 in
  check_int "every measured request completed" (measure * List.length lanes) served;
  words /. float_of_int served

let test_serve_payloads_skip_major_heap () =
  let web =
    major_words_per_request ~workload:Ioplane.Serve.Web_static ~fsync_every:0 ~warm:500
      ~measure:2000
  in
  check_bool (Printf.sprintf "web-static: %.1f major words/request < 64" web) true (web < 64.0);
  (* Warm-up takes the log past the 32 KiB fsync window: 512 fsyncs of
     64 bytes, one per 8 SETs, half the requests SETs. *)
  let kv =
    major_words_per_request ~workload:Ioplane.Serve.Kv_memcached ~fsync_every:8 ~warm:9000
      ~measure:2000
  in
  check_bool (Printf.sprintf "kv-fsync: %.1f major words/request < 64" kv) true (kv < 64.0)

(* ------------------------- Snapshot parity ------------------------- *)

let cfg32 = { Cki.Config.default with Cki.Config.segment_frames = 8192 (* 32 MiB *) }

(* Drive a fixed request sequence through one container's I/O plane
   and return its notification counters. *)
let drive ?(window = 2) (c : Cki.Container.t) =
  let b = Cki.Container.backend c in
  let kernel = b.Virt.Backend.kernel in
  Kernel_model.Kernel.configure_io ~queue_size:16 ~window kernel;
  let clock = b.Virt.Backend.clock in
  let loop = Ioplane.Loop.create clock in
  let att = Ioplane.Loop.attach loop kernel ~name:"par" in
  let srv = Workloads.Kv.create_server b Workloads.Kv.Memcached in
  Ioplane.Loop.set_rx_socket att srv.Workloads.Kv.sock_id;
  let sw = Ioplane.Loop.switch loop in
  let client = Ioplane.Switch.port sw ~name:"client" in
  Ioplane.Switch.connect sw att.Ioplane.Loop.port client;
  let exits0 =
    Hw.Clock.occurrences clock "cki_hypercall" + Hw.Clock.occurrences clock "cki_irq_exit"
  in
  for i = 1 to 32 do
    let req = if i mod 2 = 0 then Workloads.Kv.Set i else Workloads.Kv.Get i in
    Ioplane.Switch.forward sw ~src:client
      (Workloads.Kv.encode_request req srv.Workloads.Kv.value_size);
    ignore (Ioplane.Loop.pump att);
    Workloads.Kv.handle_request srv req;
    if i mod 4 = 0 then ignore (Ioplane.Loop.tick loop)
  done;
  while Ioplane.Loop.tick loop > 0 do
    ()
  done;
  let replies = Ioplane.Switch.pending client in
  let exits =
    Hw.Clock.occurrences clock "cki_hypercall" + Hw.Clock.occurrences clock "cki_irq_exit"
    - exits0
  in
  let kicks, suppressed, irqs, serviced =
    match Kernel_model.Kernel.io_devices kernel with
    | None -> (0, 0, 0, 0)
    | Some (tx, rx, blk) ->
        let sum f = f tx + f rx + f blk in
        ( sum Kernel_model.Virtio.kicks,
          sum Kernel_model.Virtio.suppressed_kicks,
          sum Kernel_model.Virtio.interrupts,
          sum Kernel_model.Virtio.serviced_total )
  in
  (replies, kicks, suppressed, irqs, serviced, exits)

let restore_exn host image =
  match Snapshot.Restore.restore host image with
  | Ok c -> c
  | Error e -> fail ("restore: " ^ Snapshot.Restore.show_error e)

let test_parity_fresh_restored_cloned () =
  (* The same traffic against a fresh container, a snapshot-restored
     one, and a warm clone must produce identical notification counts:
     the rings and coalescing state rebuild exactly. *)
  let host0 = Cki.Host.create (Hw.Machine.create ~mem_mib:256 ()) in
  let fresh = Cki.Container.create ~cfg:cfg32 host0 in
  let origin = Cki.Container.create ~cfg:cfg32 host0 in
  let image =
    match Snapshot.Capture.capture origin with
    | Ok img -> img
    | Error e -> fail ("capture: " ^ Snapshot.Capture.show_error e)
  in
  let host1 = Cki.Host.create (Hw.Machine.create ~mem_mib:256 ()) in
  let restored = restore_exn host1 image in
  let tpl =
    match Snapshot.Template.create (Cki.Container.create ~cfg:cfg32 host0) with
    | Ok t -> t
    | Error e -> fail ("template: " ^ Snapshot.Template.show_error e)
  in
  let cloned =
    match Snapshot.Template.clone tpl with
    | Ok c -> c
    | Error e -> fail ("clone: " ^ Snapshot.Template.show_error e)
  in
  let rf = drive fresh in
  let rr = drive restored in
  let rc = drive cloned in
  let show (replies, kicks, sup, irqs, serviced, exits) =
    Printf.sprintf "replies=%d kicks=%d suppressed=%d irqs=%d serviced=%d exits=%d" replies kicks
      sup irqs serviced exits
  in
  check string "restored counts identical to fresh" (show rf) (show rr);
  check string "cloned counts identical to fresh" (show rf) (show rc);
  let replies, _, _, _, _, _ = rf in
  check_int "every reply delivered" 32 replies

let test_parity_coalescing_reduces () =
  (* Same sequence, naive vs coalesced: coalescing strictly reduces
     doorbells, interrupts, and exits without losing a reply. *)
  let host = Cki.Host.create (Hw.Machine.create ~mem_mib:256 ()) in
  let naive = drive ~window:0 (Cki.Container.create ~cfg:cfg32 host) in
  let coal = drive ~window:8 (Cki.Container.create ~cfg:cfg32 host) in
  let n_replies, n_kicks, _, n_irqs, n_serviced, n_exits = naive in
  let c_replies, c_kicks, c_sup, c_irqs, c_serviced, c_exits = coal in
  check_int "naive serves all" 32 n_replies;
  check_int "coalesced serves all" 32 c_replies;
  check_int "identical work serviced" n_serviced c_serviced;
  check_bool "fewer doorbells" true (c_kicks < n_kicks);
  check_bool "kicks were suppressed, not lost" true (c_sup > 0);
  check_bool "no more interrupts than naive" true (c_irqs <= n_irqs);
  check_bool "fewer exits" true (c_exits < n_exits)

(* ------------------------ Capture quiescence ----------------------- *)

let test_capture_rejects_active_rings () =
  (* In-flight descriptors at capture time would snapshot a ring the
     host is mid-service on: the capture must refuse. *)
  let host = Cki.Host.create (Hw.Machine.create ~mem_mib:256 ()) in
  let c = Cki.Container.create ~cfg:cfg32 host in
  let b = Cki.Container.backend c in
  let kernel = b.Virt.Backend.kernel in
  Kernel_model.Kernel.configure_io ~queue_size:8 ~window:64 kernel;
  let srv = Workloads.Kv.create_server b Workloads.Kv.Memcached in
  (* Handle a request with no I/O plane attached and no service pass:
     the TX descriptor stays in flight. *)
  Kernel_model.Kernel.deliver_packet kernel ~sid:srv.Workloads.Kv.sock_id
    (Workloads.Kv.encode_request (Workloads.Kv.Get 1) srv.Workloads.Kv.value_size)
  |> ignore;
  Workloads.Kv.handle_request srv (Workloads.Kv.Get 1);
  check_bool "ring has unreclaimed work" true
    (Kernel_model.Kernel.io_unreclaimed kernel <> []);
  (match Snapshot.Capture.capture c with
  | Error (Snapshot.Capture.Device_active _) -> ()
  | Ok _ -> fail "capture should refuse an active ring"
  | Error e -> fail ("wrong error: " ^ Snapshot.Capture.show_error e));
  (* Quiesce (service + reclaim via a service pass), then capture. *)
  let loop = Ioplane.Loop.create b.Virt.Backend.clock in
  let att = Ioplane.Loop.attach loop kernel ~name:"q" in
  while Ioplane.Loop.tick loop > 0 do
    ()
  done;
  Ioplane.Loop.detach loop att;
  check_bool "quiesced" true (Kernel_model.Kernel.io_unreclaimed kernel = []);
  (* The open server socket still blocks capture (a separate,
     long-standing limitation) — but the ring objection must be gone. *)
  match Snapshot.Capture.capture c with
  | Error (Snapshot.Capture.Device_active _) -> fail "still claims active rings after quiesce"
  | Ok _ | Error _ -> ()

let suite =
  [
    ( "ioplane-switch",
      [ test_case "forward/drain/drop accounting" `Quick test_switch_forward ] );
    ( "ioplane-loop",
      [
        test_case "overload rides backpressure, no loss" `Quick test_backpressure_overload;
        test_case "naive window services on the doorbell" `Quick
          test_loop_naive_window_services_on_kick;
      ] );
    ( "ioplane-serve",
      [
        test_case "all four backends serve clean" `Quick test_serve_all_backends;
        test_case "Fig 16 exit ordering" `Quick test_serve_exit_ordering;
        test_case "vCPU-scheduler multiplexing" `Quick test_serve_sched_multiplexed;
        test_case "fsync rides virtio-blk into the store" `Quick test_serve_blk_path;
        test_case "payloads stay off the major heap" `Quick test_serve_payloads_skip_major_heap;
      ] );
    ( "ioplane-snapshot",
      [
        test_case "fresh/restored/cloned count parity" `Quick test_parity_fresh_restored_cloned;
        test_case "coalescing strictly reduces counts" `Quick test_parity_coalescing_reduces;
        test_case "capture refuses active rings" `Quick test_capture_rejects_active_rings;
      ] );
  ]
