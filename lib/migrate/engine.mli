(** The live-migration engine: iterative pre-copy as
    snapshot-over-the-wire.

    The protocol: quiesce and capture a consistent checkpoint, ship it
    whole while the source keeps serving (round 0); start a
    dirty-tracking epoch ({!Kernel_model.Mm.dirty_track_start} — every
    writable resident page write-protected through the KSM with a full
    TLB shootdown); run rounds of [work] (source serving for the
    previous transfer's wire time) + harvest + ship dirty frames until
    the dirty set converges or the round cap fires; then stop-and-copy:
    freeze the endpoint, end the epoch, capture the final image, ship
    only the final dirty set, rebuild on the target via
    {!Snapshot.Restore} and re-verify with {!Analysis.check_machine}
    {e before} cutover; re-home the endpoint, replay buffered frames,
    destroy the source.  Downtime is the stop-and-copy window — the
    only span in which nobody serves.

    Rounds are charged as wire traffic but not materialized as
    target-side state: the only consistent restore points are the
    checkpoint and final images, so a source crash can only fail over
    to the checkpoint, never to a half-applied round.

    [rounds_max = 0] degenerates to pure stop-and-copy (the whole
    image ships inside the downtime window) — the baseline the bench
    compares pre-copy against. *)

type chaos =
  | Source_crash_mid_round of int
      (** the source host dies after round [n]'s writes, before its
          dirty frames reach the wire *)
  | Target_crash_before_cutover
      (** the target's migration daemon dies after restore+verify;
          crash recovery must tear the restored copy down *)
  | Partition_before_cutover
      (** the fabric partitions before the cutover ack crosses; the
          verified target copy must still not go live *)

type opts = {
  rounds_max : int;  (** round cap; 0 = pure stop-and-copy *)
  converge_frames : int;  (** stop pre-copy once a round's dirty set is this small *)
  chaos : chaos option;
}

val default_opts : opts
(** 8 rounds max, converge at <= 8 frames, no chaos. *)

type outcome =
  | Completed  (** normal cutover; the target serves, the source is destroyed *)
  | Failed_over  (** source died; the target serves the round-0 checkpoint *)
  | Aborted  (** cutover impossible; the source serves on, the target copy is destroyed *)

type round_stat = { r_round : int; r_dirty : int; r_budget_ns : float; r_transfer_ns : float }

type stats = {
  outcome : outcome;
  live : Cki.Container.t;  (** the one live copy *)
  live_hid : int;
  loser_hid : int;  (** host whose copy must account for zero frames *)
  loser_container : int;  (** container id of the losing copy *)
  downtime_ns : float;  (** the stop-and-copy (or failover) window *)
  total_ns : float;
  rounds : round_stat list;
  frames_full : int;  (** materialized frames shipped in round 0 *)
  frames_resent : int;  (** dirty frames shipped across rounds + final *)
  final_dirty : int;
  converged : bool;  (** dirty threshold reached, vs. round cap *)
  replayed : int;  (** buffered client frames replayed at cutover *)
  final_image : Snapshot.Image.t option;
      (** the stop-and-copy capture — the golden reference a target
          re-capture must reproduce byte-identically *)
}

type error =
  | Capture_failed of string
  | Restore_failed of string
  | Verify_failed of string
  | Link_down of string

val show_error : error -> string

val shootdown : Cki.Container.t -> Hw.Addr.va -> unit
(** The dirty-tracking epoch's TLB shootdown: one [invlpg] of the page
    on every vCPU of the container.  {!Kernel_model.Mm}'s epoch steps
    run it inside the KSM's protect call, right after each page's PTE
    changes. *)

val quiesce : Cki.Container.t -> unit
(** Service virtio queues until nothing is in flight (capture
    requires quiesced devices); drained TX frames are dropped. *)

val migrate :
  Fabric.t ->
  src:int ->
  dst:int ->
  name:string ->
  Cki.Container.t ->
  work:(round:int -> budget_ns:float -> unit) ->
  opts ->
  (stats, error) result
(** Migrate a container from fabric host [src] to [dst], re-homing
    endpoint [name] at cutover.  [work] is the source serving loop: it
    runs once per pre-copy round with the previous transfer's wire
    time as its budget.  The container must be fully materialized (no
    un-broken CoW pages) — warm clones migrate after their first
    capture-quiesce, like any other container. *)
