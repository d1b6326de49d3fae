(** 4-level page tables stored in simulated physical frames.

    All mutation goes through this module so owners (the host kernel
    directly, or the KSM on behalf of a guest) can observe every PTE
    write; the walker returns the number of memory references it made
    so TLB-miss costs are structural rather than assumed. *)

type t

exception Translation_fault of { va : Addr.va; level : int }

val create : Phys_mem.t -> owner:Phys_mem.owner -> t
(** Allocate a fresh top-level table owned by [owner]. *)

val of_root : Phys_mem.t -> Addr.pfn -> t
(** View an existing frame as a page-table root. *)

val root : t -> Addr.pfn

type walk_result = {
  pte : Pte.t;  (** the leaf entry *)
  leaf_level : int;  (** 1 for 4 KiB leaves, 2 for 2 MiB huge pages *)
  refs : int;  (** memory references performed by the walk *)
  trail : (int * Addr.pfn) list;  (** (level, table frame) visited, top first *)
}

val walk : t -> Addr.va -> walk_result
(** @raise Translation_fault when an entry on the path is not present. *)

val translate : t -> Addr.va -> Addr.pa
val is_mapped : t -> Addr.va -> bool

val map :
  t ->
  ?alloc_table:(level:int -> Addr.pfn) ->
  va:Addr.va ->
  pfn:Addr.pfn ->
  flags:Pte.flags ->
  unit ->
  Pte.t
(** Map the 4 KiB page at [va]; intermediate tables are created through
    [alloc_table]. Returns the previous leaf entry. *)

val map_huge :
  t ->
  ?alloc_table:(level:int -> Addr.pfn) ->
  va:Addr.va ->
  pfn:Addr.pfn ->
  flags:Pte.flags ->
  unit ->
  Pte.t
(** Map a 2 MiB-aligned region with a level-2 huge leaf.
    @raise Invalid_argument if [va] is not 2 MiB aligned. *)

val unmap : t -> Addr.va -> Pte.t
(** Clear the leaf for [va]; returns the old entry ({!Pte.empty} if it
    was not mapped). *)

val update : t -> Addr.va -> (Pte.t -> Pte.t) -> unit
(** In-place leaf update; the page must be mapped. *)

val set_accessed_dirty : t -> Addr.va -> write:bool -> unit

val fold_leaves : t -> ('a -> va:Addr.va -> pte:Pte.t -> level:int -> 'a) -> 'a -> 'a
(** Fold over all present leaf mappings, in ascending VA order. [f]
    must not write the table holding the leaf it is given. *)

val count_mappings : t -> int
