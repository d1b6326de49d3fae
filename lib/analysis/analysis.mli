(** CKI invariant checker: whole-machine sanitizer + trace lint engine.

    Two independent halves:

    - {!Invariants}: a from-scratch walker over live machine state
      (page tables in simulated physical memory, TLBs, frame metadata),
      cross-checked against the monitor's claimed state — I1–I3, leaf
      reachability, W^X, kernel-exec freeze, CoW read-only sharing,
      per-vCPU copy coherence, TLB coherence, segment disjointness;
    - {!Lint}: temporal rules (gate pairing, PKRS discipline, TLB
      shootdowns) over the {!Hw.Probe} event stream, stepped as each
      event is emitted.

    Integration tests, the examples, `cki_demo --check` and the
    snapshot subsystem (which runs {!check_machine} on every restored
    or cloned container before handing it out) use both halves. *)

module Invariants : module type of Invariants
module Lint : module type of Lint

type result = {
  violations : Invariants.violation list;
  lints : Lint.finding list;
  linted : int;  (** probe events the lint stepped *)
}

val check_machine : containers:Cki.Container.t list -> Invariants.violation list
(** Sanitize live machine state: {!Invariants.check_machine}. *)

val is_clean : result -> bool
(** No violations and no lints. *)

val findings : result -> Report.Findings.t list
(** Both halves' findings as report rows ([Maps_declared_ptp] is the
    only warning; everything else is critical). *)

val report : ?title:string -> result -> string

val assert_clean : ?label:string -> result -> unit
(** @raise Failure with the rendered report on any finding. *)

val run : (unit -> 'a * Cki.Container.t list) -> 'a * result
(** Run a scenario [f] with a fresh {!Lint.t} as the probe sink, so
    every event [f] emits is linted.  [f] boots its containers and
    returns them beside its result; afterwards their machine state is
    sanitized and the lint finished. *)

val checked : ?label:string -> (unit -> 'a * Cki.Container.t list) -> 'a
(** {!run} followed by {!assert_clean}: fails on any finding. *)
