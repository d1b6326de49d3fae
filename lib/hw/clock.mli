(** Simulated-time accounting.

    Every latency the simulator charges flows through a {!t}; named
    event counters record {e why} time was spent, so tests can make
    structural assertions ("a PVM page fault performs 6 context
    switches") and benches can print breakdowns.

    A charge takes a {!Cost.item} and updates the counters of the
    item's event slot by index.  Event names stay the query key. *)

type t

val create : unit -> t

val now : t -> float
(** Current simulated time in nanoseconds. *)

val charge : t -> Cost.item -> unit
(** [charge t item] advances simulated time by the item's nanoseconds,
    attributed to its event (occurrence count and total ns are both
    recorded). *)

val charge_n : t -> Cost.item -> int -> unit
(** [charge_n t item n]: one occurrence of [n] units, [float_of_int n *.
    Cost.ns item] nanoseconds. *)

val charge_sized : t -> Cost.item -> int -> unit
(** [charge_sized t item n]: one occurrence of {!Cost.sized}[ item n]
    nanoseconds, the item's base plus [n] units. *)

val count : t -> string -> unit
(** Record an occurrence of the named event without advancing time;
    the one write keyed by a name. *)

val advance : t -> float -> unit
(** Advance time without attributing it to a named event (pure
    application compute). *)

val occurrences : t -> string -> int
(** How many times [event] was charged/counted; 0 for a name never
    seen, and the query does not record it. *)

val spent_on : t -> string -> float
(** Total nanoseconds attributed to [event]. *)

val timed : t -> (unit -> 'a) -> 'a * float
(** Run a thunk and return its result with the simulated time it
    consumed. *)

val events : t -> (string * int) list
(** All (event, occurrences) pairs, sorted by name. *)

val pp : Format.formatter -> t -> unit
