(** Hash tables keyed by an int that hash the int itself.

    [Hashtbl.Make] over [int] with [hash x = x land max_int] and
    [Int.equal]: the table for pfn-, pcid- or packed-key state on the
    migration path (the KSM's frame states and roots, [Tlb]'s packed
    keys, the snapshot walks' visited sets).  On int keys it costs
    about half of the polymorphic [Hashtbl]'s generic hash and compare.

    Iteration order is bucket order, which is not ascending.  Per-page
    state keyed by vpn, which is walked in ascending order, lives in
    [Kernel_model.Page_map] instead. *)

include Hashtbl.S with type key = int
