(** Pipes and AF_UNIX-style stream sockets: bounded byte queues with
    blocking semantics surfaced as [`Would_block]. *)

type t

val create : ?capacity:int -> Hw.Clock.t -> t
val available : t -> int
val room : t -> int

val write : t -> Bytes.t -> (int, [ `Would_block | `Epipe ]) result
(** Short writes when nearly full; [`Epipe] after the read end closes. *)

val read_into : t -> Bytes.t -> (int, [ `Would_block ]) result
(** Move up to the buffer's length of the oldest bytes into it from the
    front; [Ok 0] = EOF (write end closed and drained). *)

val close_read : t -> unit
val close_write : t -> unit
