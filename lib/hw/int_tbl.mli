(** Hash tables keyed by an int that hash the int itself.

    [Hashtbl.Make] over [int] with [hash x = x land max_int] and
    [Int.equal]: the table for every vpn-, pfn- or pcid-keyed piece of
    state on the migration path ([Kernel_model.Mm]'s page tables, the
    KSM's frame states and roots, [Tlb]'s packed keys, the snapshot
    walks' visited sets).  On int keys it costs about half of the
    polymorphic [Hashtbl]'s generic hash and compare.

    Iteration order is bucket order, which is not ascending; callers
    that need an order take {!sorted_keys}. *)

include Hashtbl.S with type key = int

val sorted_keys : 'a t -> int array
(** The keys in ascending order, sorted once as an int array by a merge
    sort that compares ints without a closure call (the stdlib sorts
    call one per comparison, several times the cost of the step). *)
