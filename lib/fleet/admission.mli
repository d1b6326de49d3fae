(** Per-tenant admission control: token bucket + inflight cap.

    Requests refused here are {e shed} — counted, never queued — so an
    over-subscribed tenant degrades at its own front door instead of
    bloating shared queues.  Time is the simulated clock (ns). *)

type t

val create : ?max_inflight:int -> ?rate_rps:float -> now:float -> unit -> t
(** [max_inflight] caps requests in flight (default unlimited);
    [rate_rps] is the token refill rate (default [infinity] =
    uncapped); the bucket holds 10 ms worth of tokens (at least one).
    [now] seeds the refill clock.
    @raise Invalid_argument on non-positive parameters. *)

val admit : t -> now:float -> inflight:int -> bool
(** Refill, then admit (consuming a token) or shed.  The inflight cap
    is checked before the bucket: backlog sheds even with tokens. *)

val admitted : t -> int
val shed : t -> int
val shed_rate : t -> int
val shed_inflight : t -> int
