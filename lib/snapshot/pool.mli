(** Warm pool of frozen templates serving instant scale-out.

    [create] pre-boots and freezes [target] templates; {!spawn_fast}
    rotates to the next one and warm-clones it, paying neither
    guest-kernel boot nor full-image copy.  A take from a ready template
    is a hit; a take from an empty pool builds a template inline (the
    cold path) and is counted as a miss — {!refill_low_water} is the
    background hook that keeps bursts ahead of that cliff. *)

type t

type stats = { hits : int; misses : int; refills : int; size : int; served : int }

val create : ?low_water:int -> target:int -> make:(unit -> Template.t) -> unit -> t
(** [make] typically boots a container, runs its init workload, then
    {!Template.create}s it; it must raise on failure. [low_water]
    (default 0) arms {!refill_low_water}. *)

val spawn_fast : ?verify:bool -> t -> (Cki.Container.t, Template.error) result

val refill_low_water : t -> int
(** Top the pool back to target when below the low-water mark; returns
    the number of templates built. Call from the host's idle path. *)

val drain : t -> int
(** Evict every ready template; returns the number drained.  Templates
    with no outstanding clone references are destroyed (frames freed);
    templates still backing live CoW clones are {e retired} instead —
    freeing their shared frames would corrupt the clones — and freed
    later by {!reap_retired}.  The next spawn is a miss unless
    {!refill_low_water} runs first. *)

val reap_retired : t -> int
(** Destroy retired templates whose last clone reference has dropped;
    returns the number freed.  Call from the host's idle path alongside
    {!refill_low_water}. *)

val retired_count : t -> int

val size : t -> int
val prebooted : t -> int
val served : t -> int
val stats : t -> stats
