(** A round-robin scheduler. A context switch between address spaces
    pays the platform's switch (a hypercall under PVM, a KSM-validated
    CR3 load under CKI). *)

type t

val create : Platform.t -> t
val enqueue : t -> int -> unit
val current : t -> int option
val switches : t -> int

val switch_to : t -> int -> Mm.t -> unit
(** Switch to a pid running in [mm]; charges switch work + the
    platform's address-space switch unless already current. *)

val pick_next : t -> int option
val yield : t -> int -> int option
