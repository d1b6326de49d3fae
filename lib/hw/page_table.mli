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

(** {2 The two walkers}

    Read-only, over raw frames, so they serve trees no {!t} owns. *)

val descend :
  Phys_mem.t -> stop:int -> level:int -> table:Addr.pfn -> Addr.va -> int * Addr.pfn * Pte.t
(** [descend mem ~stop ~level ~table va] follows [va] from [table] at
    [level] to the first entry that is absent, a leaf ({!Pte.is_leaf})
    or at level [stop <= level], and returns that entry's level, table
    and value: [level - level' + 1] reads to stop at [level']. *)

val iter_tables :
  Phys_mem.t ->
  ?skip_slot:int ->
  enter:(level:int -> table:Addr.pfn -> va:Addr.va -> bool) ->
  ?entry:(level:int -> table:Addr.pfn -> va:Addr.va -> index:int -> Pte.t -> unit) ->
  unit ->
  level:int ->
  table:Addr.pfn ->
  va:Addr.va ->
  unit
(** [iter_tables mem ~enter ~entry () ~level ~table ~va] offers
    [table] (at [level], mapping from [va]) and every table below it to
    [enter], the caller's visited set; a table taken has its present
    entries given to [entry] in index order, with the address each
    maps, and then its links (present, not leaves) followed in index
    order.  A top-level table's entry [skip_slot] is neither given nor
    followed.  One partial application to [()] can walk many trees.
    Neither callback may write a table. *)

type walk_result = {
  pte : Pte.t;  (** the leaf entry *)
  leaf_level : int;  (** 1 for 4 KiB leaves, 2 for 2 MiB huge pages *)
  refs : int;  (** memory references performed by the walk *)
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
(** Fold over all present leaf mappings, in {!iter_tables} order: a
    table's leaves before those of its subtrees.  [f] must not write a
    table. *)
