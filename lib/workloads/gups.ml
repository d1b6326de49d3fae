(* GUPS (HPCC RandomAccess) and the big-BTree lookup run of Table 4:
   TLB-miss-bound workloads where the cost difference is the page-walk
   geometry — 4 references natively (RunC / PVM-shadow / CKI) versus 24
   under two-dimensional EPT translation (HVM), or 3 vs 15 with 2 MiB
   pages.

   The working set (tens of GiB in the paper) vastly exceeds TLB reach,
   so essentially every access misses; we run a sampled loop through a
   real PCID-tagged TLB over a scaled table and charge the backend's
   walk geometry on each miss. *)

type result = { total_ns : float; tlb_miss_rate : float }

(* [ept_huge] backs the *second stage* with 2 MiB mappings (shorter 2-D
   walk); the guest's own pages — and hence TLB granularity — stay
   4 KiB, which is why the paper measured "similar results" with EPT
   huge pages enabled (Table 4). *)
let run_gups (b : Virt.Backend.t) ?(ept_huge = false) ~table_pages ~updates () =
  let tlb = Hw.Tlb.create ~capacity:1536 () in
  let rng = Profile.Rng.create ~seed:7L () in
  let clock = b.Virt.Backend.clock in
  let refs = if ept_huge then b.Virt.Backend.walk_refs_huge else b.Virt.Backend.walk_refs in
  let update_compute = 1120.0 in
  let t0 = Hw.Clock.now clock in
  for _ = 1 to updates do
    let page = Profile.Rng.int rng table_pages in
    let va = page * Hw.Addr.page_size in
    (match Hw.Tlb.lookup tlb ~pcid:1 va with
    | Some _ -> Hw.Clock.charge clock Hw.Cost.tlb_hit
    | None ->
        Hw.Clock.charge_n clock Hw.Cost.walk_mem_ref refs;
        Hw.Tlb.insert tlb ~pcid:1 ~va
          { Hw.Tlb.pfn = page; flags = Hw.Pte.default_flags; level = 1 });
    Profile.compute b update_compute
  done;
  {
    total_ns = Hw.Clock.now clock -. t0;
    tlb_miss_rate =
      (let h = Hw.Tlb.hits tlb and m = Hw.Tlb.misses tlb in
       if h + m = 0 then 0.0 else float_of_int m /. float_of_int (h + m));
  }

(* Table 4's BTree-Lookup over a 45 GB tree: random lookups walking ~5
   levels of nodes.  The upper levels are a small, hot working set
   (root and inner nodes stay TLB-resident); only the leaf access is a
   cold random page — which is why the paper's HVM penalty here (6%)
   is much smaller than GUPS's (19%). *)
let run_btree_lookup (b : Virt.Backend.t) ?(ept_huge = false) ~table_pages ~lookups () =
  let tlb = Hw.Tlb.create ~capacity:1536 () in
  let rng = Profile.Rng.create ~seed:11L () in
  let clock = b.Virt.Backend.clock in
  let refs = if ept_huge then b.Virt.Backend.walk_refs_huge else b.Virt.Backend.walk_refs in
  let hot_levels = 4 in
  let per_level_compute = 700.0 in
  let t0 = Hw.Clock.now clock in
  for _ = 1 to lookups do
    (* hot inner nodes: TLB hits *)
    for _ = 1 to hot_levels do
      Hw.Clock.charge clock Hw.Cost.tlb_hit;
      Profile.compute b per_level_compute
    done;
    (* cold leaf page *)
    let page = Profile.Rng.int rng table_pages in
    let va = page * Hw.Addr.page_size in
    (match Hw.Tlb.lookup tlb ~pcid:1 va with
    | Some _ -> Hw.Clock.charge clock Hw.Cost.tlb_hit
    | None ->
        Hw.Clock.charge_n clock Hw.Cost.walk_mem_ref refs;
        Hw.Tlb.insert tlb ~pcid:1 ~va
          { Hw.Tlb.pfn = page; flags = Hw.Pte.default_flags; level = 1 });
    Profile.compute b per_level_compute
  done;
  {
    total_ns = Hw.Clock.now clock -. t0;
    tlb_miss_rate =
      (let h = Hw.Tlb.hits tlb and m = Hw.Tlb.misses tlb in
       if h + m = 0 then 0.0 else float_of_int m /. float_of_int (h + m));
  }
