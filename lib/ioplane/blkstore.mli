(** Host block store behind the virtio-blk backends: an append-only
    write sink (the host's image files). Media cost is charged by the
    queue service path; this is the accounting endpoint. *)

type t

val create : unit -> t
val write : t -> len:int -> unit
(** Account one write of [len] bytes. *)
val writes : t -> int
val bytes : t -> int
val sectors : t -> int
