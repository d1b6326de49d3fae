(* 4-level page tables stored in simulated physical frames.

   All mutation goes through this module so that owners (the raw host
   kernel, or the KSM on behalf of a guest) can be charged costs and
   security checks can observe every PTE write.  The walker returns the
   number of memory references it made so the TLB-miss cost model is
   structural rather than assumed. *)

type t = {
  mem : Phys_mem.t;
  root : Addr.pfn;  (** top-level (level-4) table frame *)
}

exception Translation_fault of { va : Addr.va; level : int }

let create mem ~owner =
  let root = Phys_mem.alloc mem ~owner ~kind:(Phys_mem.Page_table 4) in
  { mem; root }

let of_root mem root = { mem; root }
let root t = t.root

(* Read the entry for [va] at [lvl] given the table frame at that level. *)
let entry_at t ~table_pfn ~lvl va =
  Phys_mem.read_entry t.mem ~pfn:table_pfn ~index:(Addr.index_at_level ~lvl va)

let write_at t ~table_pfn ~lvl va e =
  Phys_mem.write_entry t.mem ~pfn:table_pfn ~index:(Addr.index_at_level ~lvl va) e

type walk_result = {
  pte : Pte.t;  (** the leaf entry *)
  leaf_level : int;  (** 1 for 4 KiB mappings, 2 for 2 MiB huge pages *)
  refs : int;  (** memory references performed by the walk *)
  trail : (int * Addr.pfn) list;  (** (level, table frame) visited, top first *)
}

(* Walk without side effects.  Raises [Translation_fault] when an
   intermediate or leaf entry is not present. *)
let walk t va =
  let rec go lvl table_pfn refs trail =
    let e = entry_at t ~table_pfn ~lvl va in
    let refs = refs + 1 in
    let trail = (lvl, table_pfn) :: trail in
    if not (Pte.is_present e) then raise (Translation_fault { va; level = lvl })
    else if lvl = 1 then { pte = e; leaf_level = 1; refs; trail = List.rev trail }
    else if lvl = 2 && Pte.is_huge e then { pte = e; leaf_level = 2; refs; trail = List.rev trail }
    else go (lvl - 1) (Pte.pfn e) refs trail
  in
  go Addr.levels t.root 0 []

(* Trail-free leaf walk for the hot paths ([translate]/[unmap]/
   [update]): same traversal as [walk] but returns only the leaf entry
   and its containing table, allocating nothing. *)
let rec walk_leaf t va lvl table_pfn =
  let e = entry_at t ~table_pfn ~lvl va in
  if not (Pte.is_present e) then raise (Translation_fault { va; level = lvl })
  else if lvl = 1 || (lvl = 2 && Pte.is_huge e) then (e, lvl, table_pfn)
  else walk_leaf t va (lvl - 1) (Pte.pfn e)

let translate t va =
  let pte, leaf_level, _ = walk_leaf t va Addr.levels t.root in
  if leaf_level = 2 then Addr.pa_of_pfn (Pte.pfn pte) lor (va land ((1 lsl 21) - 1))
  else Addr.pa_of_pfn (Pte.pfn pte) lor Addr.page_offset va

let is_mapped t va =
  match walk_leaf t va Addr.levels t.root with
  | _ -> true
  | exception Translation_fault _ -> false

(* Ensure intermediate tables exist down to [down_to] (2 for huge-page
   leaves, 1 otherwise); returns the table frame at that level.
   [alloc_table] lets the caller control ownership/kind of new PTPs and
   observe their creation (the KSM declares them). *)
let ensure_tables t ~alloc_table ~down_to va =
  let rec go lvl table_pfn =
    if lvl = down_to then table_pfn
    else
      let e = entry_at t ~table_pfn ~lvl va in
      if Pte.is_present e then begin
        if lvl = 2 && Pte.is_huge e then invalid_arg "Page_table: splitting huge mappings unsupported";
        go (lvl - 1) (Pte.pfn e)
      end
      else begin
        let new_pfn = alloc_table ~level:(lvl - 1) in
        Phys_mem.clear_table t.mem new_pfn;
        let link = Pte.make ~pfn:new_pfn ~flags:{ Pte.default_flags with writable = true; user = true } in
        write_at t ~table_pfn ~lvl va link;
        Phys_mem.incr_ref t.mem new_pfn;
        go (lvl - 1) new_pfn
      end
  in
  go Addr.levels t.root

let default_alloc_table mem ~owner ~level =
  Phys_mem.alloc mem ~owner ~kind:(Phys_mem.Page_table level)

(* Map the 4 KiB page at [va] to [pfn]. *)
let map t ?(alloc_table = fun ~level -> default_alloc_table t.mem ~owner:(Phys_mem.owner t.mem t.root) ~level) ~va ~pfn ~flags () =
  if flags.Pte.huge then invalid_arg "Page_table.map: use map_huge for 2 MiB mappings";
  let leaf_table = ensure_tables t ~alloc_table ~down_to:1 va in
  let old = entry_at t ~table_pfn:leaf_table ~lvl:1 va in
  write_at t ~table_pfn:leaf_table ~lvl:1 va (Pte.make ~pfn ~flags);
  old

(* Map the 2 MiB-aligned region at [va] with a level-2 huge leaf. *)
let map_huge t ?(alloc_table = fun ~level -> default_alloc_table t.mem ~owner:(Phys_mem.owner t.mem t.root) ~level) ~va ~pfn ~flags () =
  if va land ((1 lsl 21) - 1) <> 0 then invalid_arg "Page_table.map_huge: va not 2 MiB aligned";
  let l2 = ensure_tables t ~alloc_table ~down_to:2 va in
  let old = entry_at t ~table_pfn:l2 ~lvl:2 va in
  write_at t ~table_pfn:l2 ~lvl:2 va (Pte.make ~pfn ~flags:{ flags with Pte.huge = true });
  old

let unmap t va =
  match walk_leaf t va Addr.levels t.root with
  | exception Translation_fault _ -> Pte.empty
  | pte, lvl, table_pfn ->
      write_at t ~table_pfn ~lvl va Pte.empty;
      pte

(* Update the leaf PTE for [va] in place via [f]; the page must be mapped. *)
let update t va f =
  let pte, lvl, table_pfn = walk_leaf t va Addr.levels t.root in
  write_at t ~table_pfn ~lvl va (f pte)

let set_accessed_dirty t va ~write =
  update t va (fun e -> if write then Pte.mark_dirty (Pte.mark_accessed e) else Pte.mark_accessed e)

(* Fold over all present leaf mappings. *)
let fold_leaves t f init =
  let rec go lvl table_pfn va_base acc =
    let acc = ref acc in
    Phys_mem.iter_entries t.mem ~pfn:table_pfn (fun i e ->
        if Pte.is_present e then begin
          let va = va_base lor (i lsl (Addr.page_shift + (9 * (lvl - 1)))) in
          if lvl = 1 || (lvl = 2 && Pte.is_huge e) then acc := f !acc ~va ~pte:e ~level:lvl
          else acc := go (lvl - 1) (Pte.pfn e) va !acc
        end);
    !acc
  in
  go Addr.levels t.root 0 init

let count_mappings t = fold_leaves t (fun n ~va:_ ~pte:_ ~level:_ -> n + 1) 0
