(** Virtual memory areas: an interval map over page-aligned ranges. *)

type prot = { read : bool; write : bool; exec : bool }

val pp_prot : Format.formatter -> prot -> unit
val show_prot : prot -> string
val equal_prot : prot -> prot -> bool
val prot_rw : prot
val prot_ro : prot

type backing = Anon | File of { inode : int; offset : int } | Stack | Heap

val pp_backing : Format.formatter -> backing -> unit
val show_backing : backing -> string
val equal_backing : backing -> backing -> bool

type area = {
  start : Hw.Addr.va;  (** inclusive, page aligned *)
  stop : Hw.Addr.va;  (** exclusive, page aligned *)
  mutable prot : prot;
  backing : backing;
}

type t

val create : unit -> t

val find : t -> Hw.Addr.va -> area option
(** The area containing an address, if any. *)

val overlaps : t -> start:Hw.Addr.va -> stop:Hw.Addr.va -> bool

exception Overlap

val add : t -> start:Hw.Addr.va -> stop:Hw.Addr.va -> prot:prot -> backing:backing -> area
(** @raise Overlap if the range intersects an existing area.
    @raise Invalid_argument on an unaligned or empty range. *)

val remove : t -> start:Hw.Addr.va -> stop:Hw.Addr.va -> int
(** Remove a range, splitting partially-covered areas; returns the
    number of pages removed. *)

val protect : t -> start:Hw.Addr.va -> stop:Hw.Addr.va -> prot:prot -> area list
(** Change protection over a range, splitting as needed; returns the
    areas now exactly covering it. *)

val iter : t -> (area -> unit) -> unit
val count : t -> int
val total_pages : t -> int

val find_gap : t -> from:Hw.Addr.va -> pages:int -> Hw.Addr.va
(** First gap of the requested size at or above [from] — the mmap
    address allocator. *)
