(* Extended page tables (second-stage translation gPA -> hPA) for the
   HVM baseline.

   Reuses the same frame-resident 4-level table structure as first
   stage paging; the interesting part is the cost structure: a TLB miss
   under EPT costs a two-dimensional walk (24 refs instead of 4), and a
   missing gPA mapping raises an EPT violation (a VM exit). *)

type t = {
  mem : Phys_mem.t;
  pt : Page_table.t;
  mutable violations : int;
  mutable huge : bool;  (** back gPAs with 2 MiB EPT mappings *)
}

exception Ept_violation of { gpa : Addr.pa }

let create mem ~huge =
  let pt = Page_table.create mem ~owner:Phys_mem.Host in
  (* Mark root as an EPT table for inventory purposes. *)
  Phys_mem.set_kind mem (Page_table.root pt) (Phys_mem.Ept_table 4);
  { mem; pt; violations = 0; huge }

let alloc_table t ~level = Phys_mem.alloc t.mem ~owner:Phys_mem.Host ~kind:(Phys_mem.Ept_table level)

(* Map guest-physical frame [gfn] to host frame [hfn]. *)
let map t ~gfn ~hfn =
  ignore
    (Page_table.map t.pt ~alloc_table:(alloc_table t) ~va:(Addr.pa_of_pfn gfn) ~pfn:hfn
       ~flags:{ Pte.default_flags with writable = true; user = true }
       ())

(* Map a 2 MiB guest-physical region starting at [gfn] (512-aligned). *)
let map_huge t ~gfn ~hfn =
  ignore
    (Page_table.map_huge t.pt ~alloc_table:(alloc_table t) ~va:(Addr.pa_of_pfn gfn) ~pfn:hfn
       ~flags:{ Pte.default_flags with writable = true; user = true }
       ())

(* Translate gPA -> hPA; raises [Ept_violation] (a VM exit in HVM) when
   the gPA has no second-stage mapping yet. *)
let translate t gpa =
  match Page_table.walk t.pt gpa with
  | exception Page_table.Translation_fault _ ->
      t.violations <- t.violations + 1;
      raise (Ept_violation { gpa })
  | w -> Addr.pa_of_pfn (Pte.pfn w.pte) lor (gpa land (Addr.span ~lvl:w.Page_table.leaf_level - 1))

let is_mapped t gpa = Page_table.is_mapped t.pt gpa
let violations t = t.violations
let huge_enabled t = t.huge

(* Memory references for one TLB-miss walk under this EPT config. *)
let walk_refs t = if t.huge then Cost.walk_refs_2d_huge else Cost.walk_refs_2d
