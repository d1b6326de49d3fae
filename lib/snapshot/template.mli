(** Frozen in-memory clone templates.

    {!create} captures the image {e first} (so the image records the
    container's normal, writable state), then freezes the live
    container in place: every resident user page is downgraded to
    read-only through the KSM path — in the owning address space {e
    and} the guest kernel's direct map, its writable alias — with an
    INVLPG on every vCPU for both addresses, and the frame is marked
    shared so the allocator pins it.  The guest kernel image is marked
    shared too.

    {!clone} then builds containers whose leaf PTEs reference the
    template's frames read-only; writes break CoW per page.  A frozen
    template still passes the analysis scanner, and so must every
    clone. *)

type t

type error =
  | Capture_error of Capture.error
  | Restore_error of Restore.error
  | Freeze_error of string

val show_error : error -> string

val create : Cki.Container.t -> (t, error) result
(** Capture + freeze.  The container must be quiesced (no un-broken CoW
    pages, no live pipes/sockets); on error it is left unfrozen. *)

val clone : ?verify:bool -> t -> (Cki.Container.t, error) result
(** New container on the template's host sharing its frozen frames CoW.
    Cross-machine scale-out uses {!Restore.restore} with {!image}. *)

val container : t -> Cki.Container.t
val image : t -> Image.t
val map : t -> Capture.map

val in_use : t -> bool
(** {!Cki.Container.has_live_clones} of the template's container:
    destroying it then would hand a live clone's memory to the next
    allocation. *)

val destroy : t -> unit
(** Tear the template's container down and free its frames.
    @raise Invalid_argument if {!in_use} — callers that may race live
    clones (pool drain, migration cutover) must retire the template and
    reap it once its last clone is gone. *)
