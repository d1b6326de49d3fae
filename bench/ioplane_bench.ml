(* Host I/O plane benchmark (Figure 16 shape).

   Three experiments over the traffic-serving harness:

   - backend sweep: the same open-loop kv load against runc / HVM /
     PVM / CKI fleets with naive notification (window 0), reporting
     per-request doorbell / interrupt / exit counts — the Figure 16
     exit-count ordering with CKI below HVM;
   - coalescing sweep: CKI at EVENT_IDX windows 1/4/8 beside the
     sweep's window 0 — coalescing strictly reduces doorbells and
     interrupts, bounded by the batch window;
   - fleet latency: 8-container CKI kv (fsync every 8th SET) and
     static-web runs reporting throughput and p50/p95/p99 under
     open-loop arrivals.

   Every run is under Analysis.run: the counts only count if the
   whole-machine sanitizer and the trace lint come back clean, which is
   the second gate beside the exit ordering. *)

let run () =
  let base =
    {
      Ioplane.Serve.default_config with
      Ioplane.Serve.containers = 4;
      requests_per_container = 100;
      window = 0;
      workload = Ioplane.Serve.Kv_memcached;
    }
  in
  let unclean = ref 0 in
  let serve label cfg =
    let r, ar = Analysis.run (fun () -> Ioplane.Serve.run cfg) in
    if not (Analysis.is_clean ar) then begin
      incr unclean;
      print_string (Analysis.report ~title:("ioplane/" ^ label) ar)
    end;
    (label, r)
  in
  let sweep =
    List.map
      (fun backend -> serve (backend ^ ".w0") { base with Ioplane.Serve.backend })
      [ "runc"; "hvm"; "pvm"; "cki" ]
  in
  let coalesce =
    List.map
      (fun window ->
        serve (Printf.sprintf "cki.w%d" window) { base with Ioplane.Serve.backend = "cki"; window })
      [ 1; 4; 8 ]
  in
  let fleet =
    [
      serve "fleet.kv"
        {
          base with
          Ioplane.Serve.backend = "cki";
          containers = 8;
          requests_per_container = 100;
          window = 4;
          fsync_every = 8;
        };
      serve "fleet.web"
        {
          base with
          Ioplane.Serve.backend = "cki";
          containers = 8;
          requests_per_container = 50;
          window = 4;
          workload = Ioplane.Serve.Web_static;
        };
    ]
  in
  let runs = sweep @ coalesce @ fleet in
  let metrics (label, (r : Ioplane.Serve.result)) =
    let n = r.r_requests in
    List.map
      (fun (name, unit, v) -> Artifact.sim ~n (label ^ "." ^ name) unit v)
      [
        ("throughput", "req/s", r.r_throughput_rps);
        ("mean", "us", r.r_mean_us);
        ("p50", "us", r.r_p50_us);
        ("p95", "us", r.r_p95_us);
        ("p99", "us", r.r_p99_us);
        ("doorbells_per_req", "1/req", r.r_doorbells_per_req);
        ("interrupts_per_req", "1/req", r.r_interrupts_per_req);
        ("exits_per_req", "1/req", r.r_exits_per_req);
      ]
  in
  let exits label = (List.assoc label runs).Ioplane.Serve.r_exits_per_req in
  let w4 = exits "cki.w4" and w0 = exits "cki.w0" and hvm = exits "hvm.w0" and runc = exits "runc.w0" in
  {
    Artifact.bench = "ioplane";
    metrics = List.concat_map metrics runs;
    gates =
      [
        Artifact.gate "exit ordering: cki(w4) < cki(w0) < hvm, runc at zero"
          (w4 < w0 && w0 < hvm && runc = 0.0)
          (Printf.sprintf "%.2f < %.2f < %.2f, runc %.2f exits/req" w4 w0 hvm runc);
        Artifact.gate "every run analysis-clean" (!unclean = 0)
          (Printf.sprintf "%d of %d runs with findings" !unclean (List.length runs));
      ];
  }
