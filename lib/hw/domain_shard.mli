(** Shared spawn/join/merge scaffolding for the domain-sharded engines.

    [run ?domains ~lanes f] runs [f i] once for every lane
    [i ∈ 0..lanes-1], round-robin across [max 1 domains] OCaml
    domains ([domains <= 1] runs every lane inline on the calling
    domain — no spawns, the deterministic reference path).

    Probe integration: if the caller has a sink attached, each lane
    records into its own private ring (the caller's sink is parked
    while lanes run) and the streams are replayed into the caller's
    sink afterwards in lane order with each event's original
    domain tag preserved, bracketed by {!Probe.event.Domain_spawn} /
    {!Probe.event.Domain_join} happens-before edges — the exact
    input shape [Analysis.Racecheck] checks.

    [f] must only touch per-lane state (distinct lanes run
    concurrently on distinct domains); this is the contract the
    domain-race sanitizer exists to enforce. *)

val run : ?domains:int -> lanes:int -> (int -> unit) -> unit

val makespan : domains:int -> float array -> float
(** [makespan ~domains elapsed] is the simulated parallel makespan of
    [run ~domains] over lanes whose simulated times are [elapsed]: the
    max over domains of the sum of their lanes' times under [run]'s
    fixed round-robin lane->domain map ([domains <= 1] sums every
    lane). *)
