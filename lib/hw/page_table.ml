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

let write_at t ~table_pfn ~lvl va e =
  Phys_mem.write_entry t.mem ~pfn:table_pfn ~index:(Addr.index_at_level ~lvl va) e

(* The one descent: from [table] at [level] toward [va], stopping at
   level [stop], at an absent entry or at a leaf. *)
let rec descend mem ~stop ~level ~table va =
  let e = Phys_mem.read_entry mem ~pfn:table ~index:(Addr.index_at_level ~lvl:level va) in
  if level = stop || (not (Pte.is_present e)) || Pte.is_leaf ~level e then (level, table, e)
  else descend mem ~stop ~level:(level - 1) ~table:(Pte.pfn e) va

(* The one traversal: enter a table, report its present entries, then
   follow its links, found by a second pass.  [at] holds the level
   being visited ([at.(0)]) and each level's table and base address,
   so the passes are closures made once per traversal. *)
let iter_tables mem ?(skip_slot = -1) ~enter ?entry () =
  let at = Array.make ((2 * Addr.levels) + 1) 0 in
  let rec go level table va =
    if enter ~level ~table ~va then begin
      at.(0) <- level;
      at.(level) <- table;
      at.(Addr.levels + level) <- va;
      (match entry with Some _ -> Phys_mem.iter_entries mem ~pfn:table report | None -> ());
      if level > 1 then Phys_mem.iter_entries mem ~pfn:table follow
    end
  and report index e =
    let level = at.(0) in
    match entry with
    | Some f when Pte.is_present e && not (level = Addr.levels && index = skip_slot) ->
        f ~level ~table:at.(level) ~va:(at.(Addr.levels + level) + (index * Addr.span ~lvl:level)) ~index e
    | _ -> ()
  and follow index e =
    let level = at.(0) in
    if Pte.is_present e && (not (Pte.is_leaf ~level e)) && not (level = Addr.levels && index = skip_slot) then begin
      go (level - 1) (Pte.pfn e) (at.(Addr.levels + level) + (index * Addr.span ~lvl:level));
      at.(0) <- level
    end
  in
  fun ~level ~table ~va -> go level table va

type walk_result = {
  pte : Pte.t;  (** the leaf entry *)
  leaf_level : int;  (** 1 for 4 KiB mappings, 2 for 2 MiB huge pages *)
  refs : int;  (** memory references performed by the walk *)
}

(* [va]'s leaf: its level, table and entry. *)
let leaf t va =
  let ((level, _, e) as stop) = descend t.mem ~stop:1 ~level:Addr.levels ~table:t.root va in
  if Pte.is_present e then stop else raise (Translation_fault { va; level })

(* One reference per level read, the stop level's included. *)
let walk t va =
  let level, _, pte = leaf t va in
  { pte; leaf_level = level; refs = Addr.levels - level + 1 }

let translate t va =
  let level, _, pte = leaf t va in
  Addr.pa_of_pfn (Pte.pfn pte) lor (va land (Addr.span ~lvl:level - 1))

let is_mapped t va =
  let _, _, e = descend t.mem ~stop:1 ~level:Addr.levels ~table:t.root va in
  Pte.is_present e

(* Descend to [va]'s entry at level [down_to] (2 for huge-page leaves,
   1 otherwise), linking a table from [alloc_table] wherever one is
   absent; returns that table and the entry found there.
   [alloc_table] lets the caller control ownership/kind of new PTPs and
   observe their creation (the KSM declares them). *)
let ensure_tables t ~alloc_table ~down_to va =
  let rec link_from level table =
    match descend t.mem ~stop:down_to ~level ~table va with
    | level, table, e when level = down_to -> (table, e)
    | _, _, e when Pte.is_present e -> invalid_arg "Page_table: splitting huge mappings unsupported"
    | level, table, _ ->
        let new_pfn = alloc_table ~level:(level - 1) in
        Phys_mem.clear_table t.mem new_pfn;
        let link = Pte.make ~pfn:new_pfn ~flags:{ Pte.default_flags with writable = true; user = true } in
        write_at t ~table_pfn:table ~lvl:level va link;
        Phys_mem.incr_ref t.mem new_pfn;
        link_from (level - 1) new_pfn
  in
  link_from Addr.levels t.root

let default_alloc_table mem ~owner ~level =
  Phys_mem.alloc mem ~owner ~kind:(Phys_mem.Page_table level)

(* Map the 4 KiB page at [va] to [pfn]. *)
let map t ?(alloc_table = fun ~level -> default_alloc_table t.mem ~owner:(Phys_mem.owner t.mem t.root) ~level) ~va ~pfn ~flags () =
  if flags.Pte.huge then invalid_arg "Page_table.map: use map_huge for 2 MiB mappings";
  let leaf_table, old = ensure_tables t ~alloc_table ~down_to:1 va in
  write_at t ~table_pfn:leaf_table ~lvl:1 va (Pte.make ~pfn ~flags);
  old

(* Map the 2 MiB-aligned region at [va] with a level-2 huge leaf. *)
let map_huge t ?(alloc_table = fun ~level -> default_alloc_table t.mem ~owner:(Phys_mem.owner t.mem t.root) ~level) ~va ~pfn ~flags () =
  if va land (Addr.span ~lvl:2 - 1) <> 0 then invalid_arg "Page_table.map_huge: va not 2 MiB aligned";
  let l2, old = ensure_tables t ~alloc_table ~down_to:2 va in
  write_at t ~table_pfn:l2 ~lvl:2 va (Pte.make ~pfn ~flags:{ flags with Pte.huge = true });
  old

let unmap t va =
  match descend t.mem ~stop:1 ~level:Addr.levels ~table:t.root va with
  | lvl, table_pfn, pte when Pte.is_present pte ->
      write_at t ~table_pfn ~lvl va Pte.empty;
      pte
  | _ -> Pte.empty

(* Update the leaf PTE for [va] in place via [f]; the page must be mapped. *)
let update t va f =
  let lvl, table_pfn, pte = leaf t va in
  write_at t ~table_pfn ~lvl va (f pte)

let set_accessed_dirty t va ~write =
  update t va (fun e -> if write then Pte.mark_dirty (Pte.mark_accessed e) else Pte.mark_accessed e)

let fold_leaves t f init =
  let acc = ref init in
  iter_tables t.mem
    ~enter:(fun ~level:_ ~table:_ ~va:_ -> true)
    ~entry:(fun ~level ~table:_ ~va ~index:_ pte -> if Pte.is_leaf ~level pte then acc := f !acc ~va ~pte ~level)
    () ~level:Addr.levels ~table:t.root ~va:0;
  !acc
