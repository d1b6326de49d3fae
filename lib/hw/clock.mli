(** Simulated-time accounting.

    Every latency the simulator charges flows through a {!t}; named
    event counters record {e why} time was spent, so tests can make
    structural assertions ("a PVM page fault performs 6 context
    switches") and benches can print breakdowns.

    Event names are the only key: one per-clock table maps each name to
    a counter slot, and every charge and query goes through it. *)

type t

val create : unit -> t

val now : t -> float
(** Current simulated time in nanoseconds. *)

val charge : t -> string -> float -> unit
(** [charge t event ns] advances simulated time by [ns], attributed to
    [event] (occurrence count and total ns are both recorded). *)

val count : t -> string -> unit
(** Record an event occurrence without advancing time. *)

val advance : t -> float -> unit
(** Advance time without attributing it to a named event (pure
    application compute). *)

val occurrences : t -> string -> int
(** How many times [event] was charged/counted; 0 for a name never
    seen, and the query does not record it. *)

val spent_on : t -> string -> float
(** Total nanoseconds attributed to [event]. *)

val reset : t -> unit

val timed : t -> (unit -> 'a) -> 'a * float
(** Run a thunk and return its result with the simulated time it
    consumed. *)

val events : t -> (string * int) list
(** All (event, occurrences) pairs, sorted by name. *)

val pp : Format.formatter -> t -> unit
