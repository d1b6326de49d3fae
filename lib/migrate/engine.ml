(* The live-migration engine: iterative pre-copy as
   snapshot-over-the-wire.

   Protocol (the classic pre-copy loop, specialized to the snapshot
   machinery this repo already has):

   1. Quiesce virtio and capture a consistent checkpoint image of the
      source (Capture.capture); ship it whole — round 0.  The source
      keeps serving; the checkpoint doubles as the failover point if
      the source host dies mid-migration.
   2. Start a dirty-tracking epoch (Mm.dirty_track_start): every
      resident writable page is write-protected through the KSM path
      with a full TLB shootdown — the same downgrade discipline
      Template.freeze uses, so the trace linter stays clean.
   3. Rounds: run the caller's [work] (the source serving traffic) for
      a time budget equal to the previous transfer's wire time, harvest
      the dirty set, ship [dirty * page_size] bytes.  The budget
      coupling is what makes convergence physical: each round's dirt is
      proportional to the previous round's transfer time, so when
      (write rate x per-page wire time) < 1 the resent-frame counts
      decrease geometrically.  A round cap bounds the tail.
   4. Stop-and-copy: freeze the endpoint (client frames buffer), end
      the epoch (restoring PTE protections so the capture sees the
      container's real state), quiesce, capture the final image, ship
      only the final dirty set, rebuild on the target with
      Snapshot.Restore and re-verify with Analysis.check_machine
      *before* cutover.  Cutover re-homes the endpoint, replays the
      buffered frames and destroys the source.  The downtime is this
      whole window — the only span where nobody serves.

   Rounds are charged as wire traffic but not materialized into
   target-side state: the only consistent restore points are the
   checkpoint image and the final image (snapshot-over-the-wire), which
   is also what makes the chaos semantics honest — a source crash can
   only fail over to the checkpoint, never to a half-applied round.

   [opts.chaos] injects the three chaos scenarios at their protocol
   points; Chaos wraps this with the post-conditions (exactly one
   live, analysis-clean copy; zero leaked frames on the loser). *)

type chaos =
  | Source_crash_mid_round of int
  | Target_crash_before_cutover
  | Partition_before_cutover

type opts = {
  rounds_max : int;
  converge_frames : int;
  chaos : chaos option;
}

let default_opts = { rounds_max = 8; converge_frames = 8; chaos = None }

type outcome = Completed | Failed_over | Aborted

type round_stat = { r_round : int; r_dirty : int; r_budget_ns : float; r_transfer_ns : float }

type stats = {
  outcome : outcome;
  live : Cki.Container.t;
  live_hid : int;
  loser_hid : int;
  loser_container : int;
  downtime_ns : float;
  total_ns : float;
  rounds : round_stat list;
  frames_full : int;
  frames_resent : int;
  final_dirty : int;
  converged : bool;
  replayed : int;
  final_image : Snapshot.Image.t option;
}

type error =
  | Capture_failed of string
  | Restore_failed of string
  | Verify_failed of string
  | Link_down of string

let show_error = function
  | Capture_failed s -> "capture: " ^ s
  | Restore_failed s -> "restore: " ^ s
  | Verify_failed s -> "verify: " ^ s
  | Link_down s -> "link: " ^ s

exception Fail of error

let tasks c = Kernel_model.Kernel.tasks c.Cki.Container.backend.Virt.Backend.kernel

(* Runs inside the KSM's protect call once per page: one [Invlpg] per
   page, executed on every vCPU. *)
let shootdown c va =
  let inst = Hw.Priv.Invlpg va and cpus = c.Cki.Container.cpus in
  for i = 0 to Array.length cpus - 1 do
    Hw.Cpu.exec_priv_exn cpus.(i) inst
  done

let track_start c =
  List.fold_left
    (fun n (t : Kernel_model.Task.t) ->
      n + Kernel_model.Mm.dirty_track_start t.Kernel_model.Task.mm ~shootdown:(shootdown c))
    0 (tasks c)

let track_round c =
  List.fold_left
    (fun n (t : Kernel_model.Task.t) ->
      n
      + List.length
          (Kernel_model.Mm.dirty_track_round t.Kernel_model.Task.mm ~shootdown:(shootdown c)))
    0 (tasks c)

let track_finish c =
  List.fold_left
    (fun n (t : Kernel_model.Task.t) ->
      n + List.length (Kernel_model.Mm.dirty_track_finish t.Kernel_model.Task.mm))
    0 (tasks c)

(* Service virtio queues until nothing is in flight: capture requires
   quiesced devices.  Drained TX frames are dropped on the floor, which
   is what a migration daemon does with traffic it cannot attribute. *)
let quiesce c =
  let kernel = c.Cki.Container.backend.Virt.Backend.kernel in
  let passes = ref 0 and discard _ _ = () in
  while Kernel_model.Kernel.io_unreclaimed kernel <> [] && !passes < 32 do
    ignore (Kernel_model.Kernel.host_service_net_tx kernel ~handle:discard);
    ignore (Kernel_model.Kernel.host_service_blk kernel ~handle:discard);
    incr passes
  done

let capture_exn c =
  match Snapshot.Capture.capture c with
  | Ok image -> image
  | Error e -> raise (Fail (Capture_failed (Snapshot.Capture.show_error e)))

let transfer_exn fab ~src ~dst ~bytes =
  match Fabric.transfer fab ~src ~dst ~bytes with
  | Ok ns -> ns
  | Error s -> raise (Fail (Link_down s))

(* Rebuild [image] on [host] and re-verify it before it can go live: a
   copy that fails the sanitizer never serves, whatever the restore
   path claimed.  This is the copy's one verification, so Restore runs
   without its own.  [restored] learns the copy before the check, so
   the caller's failure handler can tear it down. *)
let restore_verified_exn ~restored ~what host image =
  let target =
    match Snapshot.Restore.restore ~verify:false host image with
    | Ok c -> c
    | Error e -> raise (Fail (Restore_failed (Snapshot.Restore.show_error e)))
  in
  restored := Some target;
  match Analysis.check_machine ~containers:[ target ] with
  | [] -> target
  | vs ->
      raise (Fail (Verify_failed (Printf.sprintf "%d invariant findings %s" (List.length vs) what)))

let page = Hw.Addr.page_size

(* Wall-clock bracket over both ends: the fabric synchronizes the two
   clocks at every transfer, so max(now, now) is the fabric-global
   instant at any rendezvous point. *)
let global_now fab ~src ~dst =
  Float.max (Hw.Clock.now (Fabric.clock fab src)) (Hw.Clock.now (Fabric.clock fab dst))

let migrate fab ~src ~dst ~name c ~work opts =
  let src_id = c.Cki.Container.container_id in
  let started_ns = global_now fab ~src ~dst in
  let frames_full = Snapshot.Restore.materialized_frames c in
  try
    (* -------- checkpoint + round 0 (source keeps serving) ---------- *)
    quiesce c;
    let image0 = capture_exn c in
    let precopy = opts.rounds_max > 0 in
    let budget0 =
      if precopy then transfer_exn fab ~src ~dst ~bytes:(frames_full * page) else 0.0
    in
    (* -------- pre-copy rounds -------------------------------------- *)
    let rounds = ref [] in
    let frames_resent = ref 0 in
    let converged = ref (not precopy) in
    let crashed = ref false in
    if precopy then begin
      ignore (track_start c);
      let budget = ref budget0 in
      (try
         for r = 1 to opts.rounds_max do
           work ~round:r ~budget_ns:!budget;
           let dirty = track_round c in
           (match opts.chaos with
           | Some (Source_crash_mid_round k) when r = k ->
               (* The host dies after the round's writes but before its
                  dirty frames reach the wire: those frames are lost,
                  which is why failover can only use the checkpoint. *)
               Fabric.crash_host fab src;
               crashed := true;
               raise Exit
           | _ -> ());
           let t_ns = transfer_exn fab ~src ~dst ~bytes:(dirty * page) in
           frames_resent := !frames_resent + dirty;
           rounds := { r_round = r; r_dirty = dirty; r_budget_ns = !budget; r_transfer_ns = t_ns } :: !rounds;
           budget := t_ns;
           if dirty <= opts.converge_frames then begin
             converged := true;
             raise Exit
           end
         done
       with Exit -> ())
    end;
    let rounds = List.rev !rounds in
    (* From here on client frames buffer.  Every failure goes through
       the one handler at the bottom: it destroys the restored copy, if
       there is one yet, and unfreezes — an endpoint left frozen would
       buffer every later frame forever. *)
    Fabric.freeze fab ~name;
    let restored = ref None in
    try
      if !crashed then begin
        (* ---------- failover: source host died mid-migration ---------- *)
        let t0 = Hw.Clock.now (Fabric.clock fab dst) in
        let target =
          restore_verified_exn ~restored ~what:"on failover copy" (Fabric.host fab dst) image0
        in
        Fabric.rehome fab ~name ~to_:dst;
        let replayed = Fabric.unfreeze fab ~name in
        let downtime = Hw.Clock.now (Fabric.clock fab dst) -. t0 in
        Ok
          {
            outcome = Failed_over;
            live = target;
            live_hid = dst;
            loser_hid = src;
            loser_container = src_id;
            downtime_ns = downtime;
            total_ns = Hw.Clock.now (Fabric.clock fab dst) -. started_ns;
            rounds;
            frames_full;
            frames_resent = !frames_resent;
            final_dirty = 0;
            converged = false;
            replayed;
            final_image = None;
          }
      end
      else begin
        (* ---------------- stop-and-copy + cutover ---------------------- *)
        let t0 = global_now fab ~src ~dst in
        let final_dirty = if precopy then track_finish c else frames_full in
        quiesce c;
        let final_image = capture_exn c in
        ignore (transfer_exn fab ~src ~dst ~bytes:(final_dirty * page));
        frames_resent := !frames_resent + (if precopy then final_dirty else 0);
        let target =
          restore_verified_exn ~restored ~what:"before cutover" (Fabric.host fab dst) final_image
        in
        let abort () =
          (* The target copy must not go live without the cutover ack: no
             split brain.  Tear it down, leak-checkably, and let the
             source resume serving. *)
          let dst_id = target.Cki.Container.container_id in
          Cki.Container.destroy target;
          let replayed = Fabric.unfreeze fab ~name in
          let now = global_now fab ~src ~dst in
          Ok
            {
              outcome = Aborted;
              live = c;
              live_hid = src;
              loser_hid = dst;
              loser_container = dst_id;
              downtime_ns = now -. t0;
              total_ns = now -. started_ns;
              rounds;
              frames_full;
              frames_resent = !frames_resent;
              final_dirty;
              converged = !converged;
              replayed;
              final_image = Some final_image;
            }
        in
        match opts.chaos with
        | Some Target_crash_before_cutover ->
            (* The target's migration daemon dies before the ack; its
               crash-recovery must tear the restored copy down. *)
            abort ()
        | Some Partition_before_cutover ->
            Fabric.partition fab src dst;
            (* The cutover ack cannot cross a partitioned link. *)
            (match Fabric.transfer fab ~src ~dst ~bytes:64 with
            | Ok _ -> assert false
            | Error _ -> ());
            abort ()
        | _ ->
            (* Cutover ack (a tiny control message), then the switchover. *)
            ignore (transfer_exn fab ~src ~dst ~bytes:64);
            Fabric.rehome fab ~name ~to_:dst;
            let replayed = Fabric.unfreeze fab ~name in
            Cki.Container.destroy c;
            let now = global_now fab ~src ~dst in
            Ok
              {
                outcome = Completed;
                live = target;
                live_hid = dst;
                loser_hid = src;
                loser_container = src_id;
                downtime_ns = now -. t0;
                total_ns = now -. started_ns;
                rounds;
                frames_full;
                frames_resent = !frames_resent;
                final_dirty;
                converged = !converged;
                replayed;
                final_image = Some final_image;
              }
      end
    with Fail e ->
      Option.iter Cki.Container.destroy !restored;
      ignore (Fabric.unfreeze fab ~name);
      Error e
  with Fail e -> Error e
