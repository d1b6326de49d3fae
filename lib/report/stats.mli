(** Small statistics helpers for the benchmark harness. *)

val mean : float list -> float
val maximum : float list -> float

val percentile : float list -> p:float -> float
(** Nearest-rank percentile ([p] in 0..100) of an unsorted sample;
    [nan] on the empty list. *)

val percentiles : float list -> float array -> float array
(** [percentiles xs ps] is [percentile xs ~p] for every [p] of [ps], in
    order, from a single sort of the sample (a float array ordered by
    [Float.compare]): take every tail of one latency list this way. *)

val overhead_pct : baseline:float -> float -> float
(** Percentage overhead relative to a baseline. *)
