(** Aligned ASCII tables for the benchmark output. *)

type t

val create : title:string -> header:string list -> t
val add_row : t -> string list -> unit
val render : t -> string
val print : t -> unit
