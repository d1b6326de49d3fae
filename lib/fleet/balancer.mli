(** Replica selection: round-robin, or power-of-two-choices
    least-loaded.  Deterministic for a fixed seed — the balancer owns
    its xorshift state. *)

type policy = Round_robin | Pick2_least_loaded

val pp_policy : Format.formatter -> policy -> unit
val show_policy : policy -> string
val equal_policy : policy -> policy -> bool

type t

val create : ?seed:int -> policy -> t

val pick : t -> load:(int -> int) -> n:int -> int
(** Choose a replica in [0, n); [load i] is replica [i]'s inflight
    depth (consulted only by [Pick2_least_loaded]).
    @raise Invalid_argument when [n < 1]. *)

val picks : t -> int
val policy : t -> policy
