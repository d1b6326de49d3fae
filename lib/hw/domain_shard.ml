(* Shared spawn/join/merge scaffolding for the domain-sharded engines.

   [Ioplane.Serve.run] and [Fleet.Controller.run] shard independent
   lanes (containers, tenants) across OCaml domains with identical
   plumbing: one probe ring per lane when a recorder is attached, the
   caller's sink parked while lanes run, a fixed round-robin
   lane->domain assignment, and a deterministic lane-order replay of
   the per-lane streams into the caller's sink afterwards.  Keeping
   that scaffolding here means the repo has exactly ONE [Domain.spawn]
   site — srclint's spawn-site rule fails a reference anywhere else —
   and one place to emit the [Probe.Domain_spawn]/[Probe.Domain_join]
   happens-before edges the dynamic race checker replays.  The worker
   closure below is trusted by that allowlist rather than analysed:
   read it here.

   Replay layout of the merged stream (what [Analysis.Racecheck]
   consumes): the caller's pre-run events, then one [Domain_spawn]
   edge per worker, then every lane ring in lane order with the
   original per-event domain tags preserved ([Probe.emit_tagged]),
   then one [Domain_join] edge per worker.  Accesses by two sibling
   workers to one object are therefore unordered (no edge between
   them) and get flagged; everything the caller does after [run]
   returns is ordered after every worker via the join edges. *)

let run ?(domains = 1) ~lanes f =
  if lanes < 0 then invalid_arg "Domain_shard.run: negative lane count";
  let want_trace = Probe.active () in
  let parent = Probe.self_dom () in
  (* One ring per lane, shared with every worker: slot [i] is touched
     only by the one domain running lane [i] (fixed round-robin
     assignment), and lanes never share a slot.  The merged replay below
     is checked by Analysis.Racecheck. *)
  let rings =
    Array.init lanes (fun _ -> if want_trace then Some (Probe.ring_create ()) else None)
  in
  let run_lane i =
    (match rings.(i) with Some r -> Probe.set_ring r | None -> ());
    Fun.protect
      ~finally:(fun () -> if rings.(i) <> None then Probe.clear_sink ())
      (fun () -> f i)
  in
  (* [suspended] parks the caller's sink while lanes run (an inline
     lane on this domain installs its own ring) and restores it for
     the replay below.  Workers report their domain ids so the replay
     can synthesize the spawn/join edges. *)
  let children =
    Probe.suspended (fun () ->
        if domains <= 1 then begin
          for i = 0 to lanes - 1 do
            run_lane i
          done;
          [||]
        end
        else begin
          let nworkers = min domains lanes in
          let workers =
            Array.init nworkers (fun d ->
                Domain.spawn (fun () ->
                    let i = ref d in
                    while !i < lanes do
                      run_lane !i;
                      i := !i + domains
                    done;
                    Probe.self_dom ()))
          in
          Array.map Domain.join workers
        end)
  in
  (* Deterministic merge: spawn edges, lane streams in lane order
     (owners preserved), join edges. *)
  Array.iter
    (fun child -> Probe.emit_tagged ~dom:parent (Probe.Domain_spawn { parent; child }))
    children;
  Array.iter
    (function
      | Some r -> Probe.ring_iter_tagged r (fun dom ev -> Probe.emit_tagged ~dom ev)
      | None -> ())
    rings;
  Array.iter
    (fun child -> Probe.emit_tagged ~dom:parent (Probe.Domain_join { parent; child }))
    children

(* Each domain's span is the sum of its lanes' times under [run]'s
   round-robin map (lane [i] on domain [i mod domains]), summed in lane
   order; the makespan is the longest span. *)
let makespan ~domains elapsed =
  let domains = max 1 domains in
  let spans = Array.make domains 0.0 in
  Array.iteri (fun i ns -> spans.(i mod domains) <- spans.(i mod domains) +. ns) elapsed;
  Array.fold_left Float.max 0.0 spans
