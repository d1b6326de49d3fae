(* Domain-race sanitizer bench (host wall-clock).

   Measurements:

   - Tagging overhead (the gate): the probe ring stores the emitting
     domain's id into word 7 of every record.  The two sides are
     bench-local transcriptions of the emit path (claim + store4,
     lib/hw/probe.ml) differing ONLY in the tagging work: the
     pre-sanitizer variant stores no owner word, the current one reads
     the cached domain id and stores it.  Same stride, same claim —
     the delta is exactly what the sanitizer added.  Each of [pairs]
     pairs times [chunks] chunks of each side, interleaved and
     alternating which goes first, so host noise lands on both sides;
     the gate bounds the median pair's overhead at 10%.  A single
     best-of-5 ratio swung from -23% to +33% on a shared host.

   - The real production path for context: [Hw.Probe.emit_mem_write]
     through a ring sink — what a traced [Phys_mem] access actually
     costs (includes the per-domain sink lookup, which predates
     tagging and is paid tagged or not).

   - Dynamic checker throughput: the race-check dynamic half — a
     sharded 2-domain serve with Phys_mem tracing on — replayed through
     [Analysis.Racecheck], reporting trace volume and replay wall time;
     the trace must be race-free (the second gate). *)

let now_ns () = Int64.to_float (Monotonic_clock.now ())
let chunk_ops = 100_000
let chunks = 20
let pairs = 11

(* Wall time of [chunk_ops] applications of [f], in ns/op. *)
let time_per_op f =
  let t0 = now_ns () in
  for _ = 1 to chunk_ops do
    f ()
  done;
  (now_ns () -. t0) /. float_of_int chunk_ops

(* Bench-local transcription of the ring emit path (claim + store4). *)
module Replica = struct
  let stride = 8

  type t = {
    buf : int array;
    capacity : int;
    mutable head : int;
    mutable len : int;
    mutable dropped : int;
    mutable dom : int;  (* stands in for the DLS slot's cached id *)
  }

  let create () =
    let capacity = 65536 in
    { buf = Array.make (capacity * stride) 0; capacity; head = 0; len = 0; dropped = 0; dom = 3 }

  let[@inline] claim r =
    let slot =
      if r.len = r.capacity then begin
        let s = r.head in
        let h = s + 1 in
        r.head <- (if h = r.capacity then 0 else h);
        r.dropped <- r.dropped + 1;
        s
      end
      else begin
        let s = r.head + r.len in
        let s = if s >= r.capacity then s - r.capacity else s in
        r.len <- r.len + 1;
        s
      end
    in
    slot * stride

  let[@inline] store4_untagged r tag a b c =
    let o = claim r in
    let buf = r.buf in
    buf.(o) <- tag;
    buf.(o + 1) <- a;
    buf.(o + 2) <- b;
    buf.(o + 3) <- c

  let[@inline] store4_tagged r tag a b c =
    let o = claim r in
    let buf = r.buf in
    buf.(o) <- tag;
    buf.(o + 1) <- a;
    buf.(o + 2) <- b;
    buf.(o + 3) <- c;
    buf.(o + 7) <- r.dom
end

let gate_pct = 10.0

let run () =
  let rep = Replica.create () in
  let untagged () = time_per_op (fun () -> Replica.store4_untagged rep 19 1 2 0) in
  let tagged () = time_per_op (fun () -> Replica.store4_tagged rep 19 1 2 0) in
  ignore (untagged () +. tagged ()) (* warm-up *);
  (* (untagged, tagged) ns/op of each pair. *)
  let samples =
    List.init pairs (fun _ ->
        let u = ref 0.0 and t = ref 0.0 in
        for c = 1 to chunks do
          if c mod 2 = 0 then begin
            u := !u +. untagged ();
            t := !t +. tagged ()
          end
          else begin
            t := !t +. tagged ();
            u := !u +. untagged ()
          end
        done;
        (!u /. float_of_int chunks, !t /. float_of_int chunks))
  in
  Sys.opaque_identity rep.Replica.head |> ignore;
  let median xs = Report.Stats.percentile xs ~p:50.0 in
  let overheads = List.map (fun (u, t) -> (t -. u) /. u *. 100.0) samples in
  let overhead_pct = median overheads in
  let p25 = Report.Stats.percentile overheads ~p:25.0 in
  let p75 = Report.Stats.percentile overheads ~p:75.0 in
  (* The real traced-access path, for context. *)
  let ring = Hw.Probe.ring_create () in
  Hw.Probe.set_ring ring;
  let emit_path_ns =
    Fun.protect
      ~finally:(fun () -> Hw.Probe.clear_sink ())
      (fun () ->
        let emit () = Hw.Probe.emit_mem_write ~mem:1 ~pfn:2 in
        median (List.init 5 (fun _ -> time_per_op emit)))
  in
  Sys.opaque_identity (Hw.Probe.ring_length ring) |> ignore;
  (* Dynamic half: capture a sharded serve under the checker. *)
  let cfg =
    {
      Ioplane.Serve.default_config with
      Ioplane.Serve.backend = "cki";
      containers = 4;
      requests_per_container = 25;
    }
  in
  Hw.Probe.set_mem_trace true;
  let trace =
    Fun.protect
      ~finally:(fun () -> Hw.Probe.set_mem_trace false)
      (fun () ->
        let _, trace =
          Analysis.Trace.with_recorder ~capacity:400_000 (fun () ->
              ignore (Ioplane.Serve.run ~domains:2 cfg))
        in
        trace)
  in
  let t0 = now_ns () in
  let r = Analysis.Racecheck.of_trace trace in
  let check_ms = (now_ns () -. t0) /. 1e6 in
  let races = List.length r.Analysis.Racecheck.races in
  if races > 0 then
    print_string
      (Report.Findings.render ~title:"racecheck: sharded serve" (Analysis.Racecheck.findings r));
  {
    Artifact.bench = "racecheck";
    metrics =
      [
        Artifact.wall ~n:pairs "ring_emit_untagged" "ns/event" (median (List.map fst samples));
        Artifact.wall ~n:pairs "ring_emit_tagged" "ns/event" (median (List.map snd samples));
        Artifact.wall ~n:pairs "tagging_overhead" "%" overhead_pct;
        Artifact.wall ~n:pairs "tagging_overhead_p25" "%" p25;
        Artifact.wall ~n:pairs "tagging_overhead_p75" "%" p75;
        Artifact.wall ~n:5 "emit_mem_write_sink" "ns/event" emit_path_ns;
        Artifact.count "dynamic.events" "events" r.Analysis.Racecheck.events;
        Artifact.count "dynamic.accesses" "accesses" r.Analysis.Racecheck.accesses;
        Artifact.count "dynamic.objects" "objects" r.Analysis.Racecheck.objects;
        Artifact.count "dynamic.domains" "domains" r.Analysis.Racecheck.domains;
        Artifact.count "dynamic.edges" "edges" r.Analysis.Racecheck.edges;
        Artifact.wall "dynamic.replay" "ms" check_ms;
      ];
    gates =
      [
        Artifact.gate
          (Printf.sprintf "domain tagging overhead <= %.0f%% (median of %d pairs)" gate_pct pairs)
          (overhead_pct <= gate_pct)
          (Printf.sprintf "median %.2f%%, quartiles %.2f%% .. %.2f%%" overhead_pct p25 p75);
        Artifact.gate "production serve trace race-free" (races = 0) (Printf.sprintf "%d races" races);
      ];
  }
