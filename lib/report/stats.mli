(** Small statistics helpers for the benchmark harness. *)

val mean : float list -> float
val maximum : float list -> float

val percentile : float list -> p:float -> float
(** Nearest-rank percentile ([p] in 0..100) of an unsorted sample;
    [nan] on the empty list. *)

val overhead_pct : baseline:float -> float -> float
(** Percentage overhead relative to a baseline. *)
