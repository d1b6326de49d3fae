(* Hash tables keyed by an int (a pfn, a pcid or a packed key) that
   hash the int itself.  The polymorphic [Hashtbl] hashes an int
   through the generic [caml_hash] walk and compares keys with the
   polymorphic compare; on the migration path's page and frame tables
   that doubled the cost of every lookup.  Consecutive keys land in
   consecutive buckets, which is the best spread page numbers can
   have. *)

include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)
