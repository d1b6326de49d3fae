(** Binary-buddy allocator over one or more physical-frame zones.

    This is the CKI guest kernel's memory manager: the host delegates
    hPA segments and the buddy hands frames straight to the page-fault
    handler — no gPA indirection (Section 4.3).  Under scatter
    delegation each discontiguous chunk becomes its own zone; blocks
    never span zones and allocation tries zones in delegation order,
    keeping the allocation stream deterministic. *)

val max_order : int

type t

exception Out_of_memory

val create : base:Hw.Addr.pfn -> frames:int -> t
(** Single-zone allocator (a contiguous delegation). *)

val create_zones : segments:(Hw.Addr.pfn * int) list -> t
(** One zone per delegated [(base, frames)] chunk, in list order. *)

val total_frames : t -> int
val free_frames : t -> int

val alloc_order : t -> int -> Hw.Addr.pfn
(** Allocate 2^order contiguous frames. @raise Out_of_memory. *)

val alloc : t -> Hw.Addr.pfn
(** One frame. *)

val alloc_huge : t -> Hw.Addr.pfn
(** A 2 MiB-aligned 512-frame block. *)

val free : t -> Hw.Addr.pfn -> unit
(** Free a previously allocated block (by its head frame), coalescing
    with free buddies. @raise Invalid_argument on double free. *)

val base : t -> Hw.Addr.pfn
(** First zone's base frame. *)

val zones : t -> (Hw.Addr.pfn * int) list
(** The zones as [(base, frames)], in delegation order. *)

val allocated_blocks : t -> (Hw.Addr.pfn * int) list
(** Allocated block heads with their orders, zone by zone in
    delegation order, ascending within a zone — the allocator's logical
    state for snapshot capture. *)

val reserve : t -> Hw.Addr.pfn -> int -> unit
(** Snapshot restore: carve the specific block [pfn, pfn + 2{^order})
    out of the free space, reproducing a captured allocation pattern.
    @raise Invalid_argument if the block is not entirely free or is
    misaligned for its order. *)

val check_invariants : t -> bool
(** Free-list accounting matches the free counter and every free block
    lies inside the range — used by the property tests. *)
