(* The Kernel Security Monitor.

   One KSM instance lives inside each container's address space,
   PKS-isolated from the guest kernel it supervises.  It owns the
   privileged operations that touch only container-private data:

     - page-table-page (PTP) declaration and PTE updates, enforcing the
       nested-kernel-style invariants of Section 4.3:
         I1. only declared frames are used as PTPs;
         I2. declared PTPs are read-only to the guest (pkey_ptp);
         I3. only a declared top-level PTP can be loaded into CR3;
       plus: no PTE may target KSM/host memory, no declared PTP may be
       mapped (writable or at all) by a guest PTE, no *new*
       kernel-executable mappings;
     - per-vCPU top-level PTP copies that splice the KSM region and the
       per-vCPU area into every activated page table;
     - CR3 loads (validated against I3, redirected to the vCPU's copy);
     - iret on behalf of the guest. *)

type page_state =
  | Guest_data
  | Guest_ptp of int  (** declared PTP at level 1..4 *)
[@@deriving show { with_path = false }, eq]

type root_info = { copies : Hw.Addr.pfn array (* per vCPU *) }

type error =
  | Not_guest_frame of Hw.Addr.pfn
  | Already_declared of Hw.Addr.pfn
  | Not_declared of Hw.Addr.pfn
  | Wrong_level of { expected : int; got : int }
  | Ptp_in_use of Hw.Addr.pfn
  | Targets_monitor_memory of Hw.Addr.va
  | Maps_declared_ptp of Hw.Addr.pfn
  | Kernel_executable_mapping of Hw.Addr.va
  | Undeclared_root of Hw.Addr.pfn
  | Reserved_range of Hw.Addr.va
  | Bad_vcpu of int
[@@deriving show { with_path = false }]

type t = {
  container_id : int;
  mem : Hw.Phys_mem.t;
  clock : Hw.Clock.t;
  cfg : Config.t;
  segments : (Hw.Addr.pfn * int) list;  (** delegated (base, frames) *)
  descs : page_state Hw.Int_tbl.t;
      (** the declared PTPs, each [Guest_ptp level]; absent = [Guest_data] *)
  parents : (Hw.Addr.pfn * int) Hw.Int_tbl.t;
      (** linked PTP -> the (table, index) entry that links it *)
  roots : root_info Hw.Int_tbl.t;
  pervcpu : Pervcpu.t;
  kernel_root : Hw.Addr.pfn;  (** the guest kernel's boot address space *)
  template : (int * int64) list;  (** fixed L4 slots: direct map, image, KSM *)
  mutable kernel_exec_frozen : bool;  (** no new kernel-exec mappings *)
  mutable ksm_calls : int;
  idt : Hw.Idt.t;  (** container IDT, resident in KSM memory *)
}

(* Asked of every leaf the scanner meets, so it allocates nothing. *)
let rec in_segments pfn = function
  | [] -> false
  | (b, n) :: rest -> (pfn >= b && pfn < b + n) || in_segments pfn rest

let owns_frame t pfn = in_segments pfn t.segments

(* Reads never add a record: the table holds exactly the frames whose
   state is not the default, so it stays the size of the declared set
   however many data pages the guest maps. *)
let page_state_of t pfn =
  match Hw.Int_tbl.find_opt t.descs pfn with Some s -> s | None -> Guest_data

let is_declared_ptp t pfn =
  match page_state_of t pfn with Guest_ptp _ -> true | Guest_data -> false

let set_state t pfn = function
  | Guest_data -> Hw.Int_tbl.remove t.descs pfn
  | s -> Hw.Int_tbl.replace t.descs pfn s

(* ------------------------------------------------------------------ *)
(* Boot-time construction (trusted initialization)                     *)
(* ------------------------------------------------------------------ *)

let alloc_ksm_frame t kind = Hw.Phys_mem.alloc t.mem ~owner:(Hw.Phys_mem.Ksm t.container_id) ~kind

let write_raw t ~pfn ~index v = Hw.Phys_mem.write_entry t.mem ~pfn ~index v
let read_raw t ~pfn ~index = Hw.Phys_mem.read_entry t.mem ~pfn ~index

(* Build a subtree under a fresh L3, returned to splice at L4.  A run
   [(va, frame, n)] maps [n] pages from [va] to the [n] frames from
   [frame] with leaf [flags].  The runs rise in VA inside one L4 slot,
   so a page needs a new L2 (L1) table exactly when its L3 index (its
   2-MiB region) differs from the previous page's: the tables are found
   by arithmetic and allocated in first-use order, and a run's leaves
   are written an L1 table at a time. *)
let build_subtree t ~runs ~(flags : Hw.Pte.flags) =
  let link = { Hw.Pte.default_flags with writable = true } in
  let step = Int64.sub (Hw.Pte.make ~pfn:1 ~flags) (Hw.Pte.make ~pfn:0 ~flags) in
  let l3 = alloc_ksm_frame t (Hw.Phys_mem.Page_table 3) in
  let l2 = ref (-1) and l1 = ref (-1) in
  let cur_i3 = ref (-1) and cur_region = ref (-1) in
  let rec map_run va frame n =
    if n > 0 then begin
      let i3 = Hw.Addr.index_at_level ~lvl:3 va in
      if i3 <> !cur_i3 then begin
        cur_i3 := i3;
        l2 := alloc_ksm_frame t (Hw.Phys_mem.Page_table 2);
        write_raw t ~pfn:l3 ~index:i3 (Hw.Pte.make ~pfn:!l2 ~flags:link)
      end;
      let region = va lsr (Hw.Addr.page_shift + 9) in
      if region <> !cur_region then begin
        cur_region := region;
        l1 := alloc_ksm_frame t (Hw.Phys_mem.Page_table 1);
        write_raw t ~pfn:!l2 ~index:(Hw.Addr.index_at_level ~lvl:2 va) (Hw.Pte.make ~pfn:!l1 ~flags:link)
      end;
      let index = Hw.Addr.index_at_level ~lvl:1 va in
      let count = min n (Hw.Addr.entries_per_table - index) in
      Hw.Phys_mem.write_run t.mem ~pfn:!l1 ~index ~count ~first:(Hw.Pte.make ~pfn:frame ~flags) ~step;
      map_run (va + (count * Hw.Addr.page_size)) (frame + count) (n - count)
    end
  in
  List.iter (fun (va, frame, n) -> map_run va frame n) runs;
  l3

(* A region of frames mapped at consecutive VAs from [va_base]. *)
let build_region t ~va_base ~frames ~flags =
  build_subtree t
    ~runs:(List.mapi (fun i frame -> (va_base + (i * Hw.Addr.page_size), frame, 1)) (Array.to_list frames))
    ~flags

let ksm_code_pages = 16
let kernel_image_pages = 64

(* Direct map of the delegated hPA segments (4-KiB PTEs so declared
   PTPs can be individually re-tagged pkey_ptp).  The layout is a pure
   function of the segment bases (va = direct_map_base + pa), which is
   why snapshot restore rebuilds it from the *new* segments instead of
   importing the captured subtree: imported leaves would still key on
   the old machine's PAs and every later retag (I2) would miss.  Every
   frame sits at its own PA's address, whichever segment holds it, so
   each segment is one run, and the runs go in address order. *)
let build_direct_map t segments =
  if segments = [] then invalid_arg "Ksm: no delegated segments";
  build_subtree t
    ~runs:
      (List.sort (fun (a, _) (b, _) -> Int.compare a b) segments
      |> List.map (fun (base, n) -> (Layout.direct_va_of_pa (Hw.Addr.pa_of_pfn base), base, n)))
    ~flags:{ Hw.Pte.writable = true; user = false; nx = true; huge = false; pkey = Hw.Pks.pkey_guest }

(* Retag the direct-map leaf of [pfn] with [pkey]; a frame missing
   from the direct map has none.  The direct map is KSM-built, so the
   walk is internal. *)
let retag_direct_map t pfn ~pkey =
  let va = Layout.direct_va_of_pa (Hw.Addr.pa_of_pfn pfn) in
  match Hw.Page_table.descend t.mem ~stop:1 ~level:4 ~table:t.kernel_root va with
  | 1, table, e -> write_raw t ~pfn:table ~index:(Hw.Addr.index_at_level ~lvl:1 va) (Hw.Pte.with_pkey e pkey)
  | _ -> ()

(* The container IDT lives in KSM memory: all hardware vectors request
   IST + the PKS-switch extension (Section 4.4); page fault + #GP
   vector to the guest kernel's own handlers (fast path, no PKS
   switch).  Deterministic, so snapshot restore rebuilds it verbatim. *)
let build_idt idt =
  List.iter
    (fun v ->
      Hw.Idt.set idt
        { Hw.Idt.vector = v; handler = "cki_interrupt_gate"; ist = Some 1; pks_switch = true;
          user_invocable = false })
    [ Hw.Idt.vec_timer; Hw.Idt.vec_virtio_net; Hw.Idt.vec_virtio_blk; Hw.Idt.vec_ipi ];
  List.iter
    (fun v ->
      Hw.Idt.set idt
        { Hw.Idt.vector = v; handler = "guest_fault_entry"; ist = None; pks_switch = false;
          user_invocable = false })
    [ Hw.Idt.vec_page_fault; Hw.Idt.vec_gp_fault ];
  Hw.Idt.lock idt

let create mem clock ~container_id ~cfg ~segments =
  let vcpus = cfg.Config.vcpus in
  let pervcpu = Pervcpu.create mem ~container_id ~vcpus in
  let t =
    {
      container_id;
      mem;
      clock;
      cfg;
      segments;
      descs = Hw.Int_tbl.create 64;
      parents = Hw.Int_tbl.create 8;
      roots = Hw.Int_tbl.create 16;
      pervcpu;
      kernel_root = 0;
      template = [];
      kernel_exec_frozen = false;
      ksm_calls = 0;
      idt = Hw.Idt.create ();
    }
  in
  (* KSM code/data region. *)
  let ksm_frames = Array.init ksm_code_pages (fun _ -> alloc_ksm_frame t Hw.Phys_mem.Ksm_code) in
  let ksm_l3 =
    build_region t ~va_base:Layout.ksm_base ~frames:ksm_frames
      ~flags:{ Hw.Pte.writable = true; user = false; nx = false; huge = false; pkey = Hw.Pks.pkey_ksm }
  in
  (* Guest kernel image: kernel-executable, read-only, frozen at boot. *)
  let image_frames =
    Array.init kernel_image_pages (fun _ ->
        Hw.Phys_mem.alloc mem ~owner:(Hw.Phys_mem.Container container_id)
          ~kind:Hw.Phys_mem.Kernel_code)
  in
  let image_l3 =
    build_region t ~va_base:Layout.kernel_image_base ~frames:image_frames
      ~flags:{ Hw.Pte.writable = false; user = false; nx = false; huge = false; pkey = Hw.Pks.pkey_guest }
  in
  let direct_l3 = build_direct_map t segments in
  let mk_link pfn = Hw.Pte.make ~pfn ~flags:{ Hw.Pte.default_flags with writable = true } in
  let template =
    [
      (Layout.l4_direct, mk_link direct_l3);
      (Layout.l4_kernel_image, mk_link image_l3);
      (Layout.l4_ksm, mk_link ksm_l3);
    ]
  in
  build_idt t.idt;
  let t = { t with template } in
  (* The guest kernel's boot address space: a KSM-owned root so boot is
     trusted; guest process roots come later from guest memory. *)
  let kernel_root = alloc_ksm_frame t (Hw.Phys_mem.Page_table 4) in
  List.iter (fun (idx, e) -> write_raw t ~pfn:kernel_root ~index:idx e) template;
  let t = { t with kernel_root } in
  Hw.Int_tbl.replace t.roots kernel_root
    {
      copies =
        Array.init vcpus (fun v ->
            let copy = alloc_ksm_frame t (Hw.Phys_mem.Page_table 4) in
            List.iter (fun (idx, e) -> write_raw t ~pfn:copy ~index:idx e) template;
            write_raw t ~pfn:copy ~index:Layout.l4_pervcpu (Pervcpu.l4_entry pervcpu v);
            copy);
    };
  t.kernel_exec_frozen <- true;
  t

(* ------------------------------------------------------------------ *)
(* Snapshot restore (trusted reconstruction)                           *)
(* ------------------------------------------------------------------ *)

(* Everything a restored monitor needs, with all frame numbers already
   relocated into the new delegation / fresh KSM allocations by the
   snapshot layer.  Table contents are written here — through the
   monitor, never by the guest — so a restored container's page tables
   are monitor-authored exactly like a booted one's. *)
type import = {
  i_segments : (Hw.Addr.pfn * int) list;
  i_ptps : (Hw.Addr.pfn * int) list;  (** declared PTPs with levels *)
  i_roots : (Hw.Addr.pfn * Hw.Addr.pfn array) list;  (** root, per-vCPU copies *)
  i_kernel_root : Hw.Addr.pfn;
  i_template : (int * int64) list;
      (** fixed L4 slots, relocated entries — {e without} the direct-map
          slot, whose subtree is rebuilt from [i_segments] here *)
  i_tables : (Hw.Addr.pfn * (int * int64) list) list;
      (** every live table's non-empty entries, relocated *)
}

let restore mem clock ~container_id ~cfg ~pervcpu (imp : import) =
  let t =
    {
      container_id;
      mem;
      clock;
      cfg;
      segments = imp.i_segments;
      descs = Hw.Int_tbl.create 64;
      parents = Hw.Int_tbl.create 8;
      roots = Hw.Int_tbl.create 16;
      pervcpu;
      kernel_root = imp.i_kernel_root;
      template = imp.i_template;
      kernel_exec_frozen = false;
      ksm_calls = 0;
      idt = Hw.Idt.create ();
    }
  in
  build_idt t.idt;
  (* Declared-PTP metadata (I1/I2 claims) before table contents, so the
     frame kinds match what the imported trees reference. *)
  List.iter
    (fun (pfn, lvl) ->
      set_state t pfn (Guest_ptp lvl);
      Hw.Phys_mem.set_kind mem pfn (Hw.Phys_mem.Page_table lvl))
    imp.i_ptps;
  List.iter
    (fun (pfn, entries) ->
      Hw.Phys_mem.clear_table mem pfn;
      (* An upper-level table's entries link its child PTPs. *)
      let upper = match page_state_of t pfn with Guest_ptp lvl -> lvl > 1 | _ -> false in
      List.iter
        (fun (index, v) ->
          write_raw t ~pfn ~index v;
          if upper && Hw.Pte.is_present v && is_declared_ptp t (Hw.Pte.pfn v) then
            Hw.Int_tbl.replace t.parents (Hw.Pte.pfn v) (pfn, index))
        entries;
      Hw.Clock.charge clock Hw.Cost.restore_table)
    imp.i_tables;
  List.iter (fun (root, copies) -> Hw.Int_tbl.replace t.roots root { copies }) imp.i_roots;
  (* The direct map is never imported: its VA layout keys on physical
     addresses (va = direct_map_base + pa), so a relocated import would
     leave leaves filed under the old machine's PAs — and every
     post-restore PTP declaration would retag the wrong leaf (or none),
     leaving a guest-writable alias of a page-table page.  Rebuild it
     from the new segment bases and splice it into every root. *)
  let direct_l3 = build_direct_map t imp.i_segments in
  (* One restore charge per table, as if imported; a leaf table's
     entries are not read. *)
  Hw.Page_table.iter_tables mem
    ~enter:(fun ~level ~table:_ ~va:_ ->
      Hw.Clock.charge clock Hw.Cost.restore_table;
      level > 1)
    () ~level:3 ~table:direct_l3 ~va:0;
  let direct_link =
    Hw.Pte.make ~pfn:direct_l3 ~flags:{ Hw.Pte.default_flags with writable = true }
  in
  write_raw t ~pfn:t.kernel_root ~index:Layout.l4_direct direct_link;
  List.iter
    (fun (root, copies) ->
      write_raw t ~pfn:root ~index:Layout.l4_direct direct_link;
      Array.iter (fun copy -> write_raw t ~pfn:copy ~index:Layout.l4_direct direct_link) copies)
    imp.i_roots;
  (* Re-establish I2 in the fresh direct map: every declared PTP's leaf
     is retagged pkey_ptp, exactly as declare_ptp did on the captured
     machine. *)
  List.iter (fun (pfn, _lvl) -> retag_direct_map t pfn ~pkey:Hw.Pks.pkey_ptp) imp.i_ptps;
  t.kernel_exec_frozen <- true;
  { t with template = (Layout.l4_direct, direct_link) :: imp.i_template }

(* ------------------------------------------------------------------ *)
(* Gate-accounted entry points                                         *)
(* ------------------------------------------------------------------ *)

let charge_call t =
  t.ksm_calls <- t.ksm_calls + 1;
  Hw.Clock.charge t.clock Hw.Cost.ksm_call;
  if t.cfg.Config.pti_in_gates then begin
    Hw.Clock.charge t.clock Hw.Cost.pti_overhead;
    Hw.Clock.charge t.clock Hw.Cost.ibrs_overhead
  end

(* Probe hook: every PTE permission downgrade (the events the trace
   linter correlates with TLB shootdowns). *)
let trace_downgrade t ~root ~va ~unmapped =
  if Hw.Probe.active () then
    Hw.Probe.emit
      (Hw.Probe.Pte_downgrade
         { container = t.container_id; root; vpn = Hw.Addr.vpn_of_va va; unmapped })

(* Declare [pfn] as a PTP at [level] (invariants I1 + I2). *)
let declare_ptp t ~pfn ~level : (unit, error) result =
  charge_call t;
  if not (owns_frame t pfn) then Error (Not_guest_frame pfn)
  else if level < 1 || level > 4 then Error (Wrong_level { expected = 1; got = level })
  else
    match page_state_of t pfn with
    | Guest_ptp _ -> Error (Already_declared pfn)
    | Guest_data ->
        set_state t pfn (Guest_ptp level);
        Hw.Phys_mem.set_kind t.mem pfn (Hw.Phys_mem.Page_table level);
        Hw.Phys_mem.clear_table t.mem pfn;
        (* I2: the guest's direct-map view of this frame becomes
           read-only via pkey_ptp. *)
        retag_direct_map t pfn ~pkey:Hw.Pks.pkey_ptp;
        Ok ()

(* Return a PTP to guest data without asking whether a table still
   links it: teardown, which releases a whole tree at once. *)
let forget_ptp t pfn : (unit, error) result =
  match page_state_of t pfn with
  | Guest_data -> Error (Not_declared pfn)
  | Guest_ptp _ ->
      Hw.Int_tbl.remove t.parents pfn;
      set_state t pfn Guest_data;
      Hw.Phys_mem.set_kind t.mem pfn Hw.Phys_mem.Data;
      retag_direct_map t pfn ~pkey:Hw.Pks.pkey_guest;
      Ok ()

(* A live root, or a PTP whose recorded parent entry still links it:
   undeclaring either would let the guest map a table in use as
   writable data. *)
let in_use t pfn =
  Hw.Int_tbl.mem t.roots pfn
  ||
  match Hw.Int_tbl.find_opt t.parents pfn with
  | Some (table, index) ->
      let e = read_raw t ~pfn:table ~index in
      Hw.Pte.is_present e && Hw.Pte.pfn e = pfn
  | None -> false

let undeclare_ptp t ~pfn : (unit, error) result =
  if not (owns_frame t pfn) then Error (Not_guest_frame pfn)
  else if in_use t pfn then Error (Ptp_in_use pfn)
  else forget_ptp t pfn

(* Validate a prospective leaf mapping va -> pfn with [flags]. *)
let check_leaf t ~va ~pfn ~(flags : Hw.Pte.flags) : (unit, error) result =
  if Layout.in_ksm va || Layout.in_pervcpu va then Error (Reserved_range va)
  else if not (owns_frame t pfn) then Error (Targets_monitor_memory va)
  else
    match page_state_of t pfn with
    | Guest_ptp _ -> Error (Maps_declared_ptp pfn)
    | Guest_data ->
        if t.kernel_exec_frozen && (not flags.Hw.Pte.user) && not flags.Hw.Pte.nx then
          Error (Kernel_executable_mapping va)
        else Ok ()

(* Propagate a write of top-level slot [idx] to all per-vCPU copies
   (the user-range slots only; fixed slots are KSM-managed). *)
let propagate_top t ~root ~idx v =
  match Hw.Int_tbl.find_opt t.roots root with
  | None -> ()
  | Some info -> Array.iter (fun copy -> write_raw t ~pfn:copy ~index:idx v) info.copies

(* The validated PTE-update path (one KSM call): installs va -> pfn in
   the page table rooted at [root], allocating intermediate PTPs via
   [alloc_ptp] (guest frames, declared inline).  Huge leaves sit at
   level 2. *)
let guest_map t ~root ~va ~pfn ~(flags : Hw.Pte.flags) ~alloc_ptp : (unit, error) result =
  charge_call t;
  let leaf_level = if flags.Hw.Pte.huge then 2 else 1 in
  match page_state_of t root with
  | Guest_data when not (Hw.Int_tbl.mem t.roots root) ->
      Error (Undeclared_root root)
  | _ -> (
      match check_leaf t ~va ~pfn ~flags with
      | Error e -> Error e
      | Ok () ->
          (* The allocating step: descend as far as the tree goes, link
             a fresh PTP there and go on from it. *)
          let rec link_from lvl table =
            match Hw.Page_table.descend t.mem ~stop:leaf_level ~level:lvl ~table va with
            | lvl, table, _ when lvl = leaf_level ->
                write_raw t ~pfn:table ~index:(Hw.Addr.index_at_level ~lvl va) (Hw.Pte.make ~pfn ~flags);
                Ok ()
            | lvl, _, e when Hw.Pte.is_present e ->
                (* A huge leaf where a table would be: the walk goes on
                   into the huge page's first frame as if it held one. *)
                link_from (lvl - 1) (Hw.Pte.pfn e)
            | lvl, table, _ ->
                let idx = Hw.Addr.index_at_level ~lvl va in
                let new_ptp = alloc_ptp () in
                match
                  if owns_frame t new_ptp then begin
                    (* Inline declaration: the guest passed a fresh frame
                       to become a PTP at lvl-1. *)
                    match page_state_of t new_ptp with
                    | Guest_data ->
                        set_state t new_ptp (Guest_ptp (lvl - 1));
                        Hw.Phys_mem.set_kind t.mem new_ptp (Hw.Phys_mem.Page_table (lvl - 1));
                        Hw.Phys_mem.clear_table t.mem new_ptp;
                        retag_direct_map t new_ptp ~pkey:Hw.Pks.pkey_ptp;
                        Ok ()
                    | Guest_ptp _ -> Error (Already_declared new_ptp)
                  end
                  else Error (Not_guest_frame new_ptp)
                with
                | Error e -> Error e
                | Ok () ->
                    let link =
                      Hw.Pte.make ~pfn:new_ptp
                        ~flags:{ Hw.Pte.default_flags with writable = true; user = true }
                    in
                    write_raw t ~pfn:table ~index:idx link;
                    Hw.Int_tbl.replace t.parents new_ptp (table, idx);
                    if lvl = 4 then propagate_top t ~root ~idx link;
                    link_from (lvl - 1) new_ptp
          in
          link_from 4 root)

let guest_unmap t ~root ~va : (unit, error) result =
  charge_call t;
  if not (Hw.Int_tbl.mem t.roots root) then Error (Undeclared_root root)
  else if Layout.in_ksm va || Layout.in_pervcpu va then Error (Reserved_range va)
  else begin
    (* Leaves sit at level 1 or 2, never at the top. *)
    (match Hw.Page_table.descend t.mem ~stop:1 ~level:4 ~table:root va with
    | lvl, table, e when Hw.Pte.is_present e ->
        write_raw t ~pfn:table ~index:(Hw.Addr.index_at_level ~lvl va) Hw.Pte.empty;
        trace_downgrade t ~root ~va ~unmapped:true
    | _ -> ());
    Ok ()
  end

(* One KSM call per page, charged as the page is reached, so a run is
   the per-page loop in the clock's eyes.  The root is checked once;
   the walk reruns only when a page leaves the previous page's 2 MiB
   region (protection never changes presence, huge bits or links, so
   the walk stays valid across the region).  Each leaf's W bit is
   set or cleared in place ([Phys_mem.set_entry_writable], which boxes
   no [int64]), the page is traced if that downgraded it, then
   [shootdown] runs for the page. *)
let guest_protect t ~root ~vpns ~writable ~shootdown : (unit, error) result =
  let n = Array.length vpns in
  if n = 0 then Ok ()
  else begin
    charge_call t;
    if not (Hw.Int_tbl.mem t.roots root) then Error (Undeclared_root root)
    else begin
      (* [stop] is where the walk for [region], the previous page's
         2 MiB region, stopped: at its level-2 entry (the huge leaf, or
         the link to the L1 table holding its leaves) or above it, at
         an absent entry. *)
      let rec go i region stop =
        if i = n then Ok ()
        else begin
          if i > 0 then charge_call t;
          let vpn = vpns.(i) in
          let va = Hw.Addr.va_of_vpn vpn in
          if Layout.in_ksm va || Layout.in_pervcpu va then Error (Reserved_range va)
          else begin
            let ((_, l2, e) as stop) =
              if vpn lsr 9 = region then stop else Hw.Page_table.descend t.mem ~stop:2 ~level:4 ~table:root va
            in
            if Hw.Pte.is_present e then begin
              let huge = Hw.Pte.is_huge e in
              match
                Hw.Phys_mem.set_entry_writable t.mem
                  ~pfn:(if huge then l2 else Hw.Pte.pfn e)
                  ~index:(Hw.Addr.index_at_level ~lvl:(if huge then 2 else 1) va)
                  writable
              with
              | Hw.Phys_mem.Writable when not writable -> trace_downgrade t ~root ~va ~unmapped:false
              | Hw.Phys_mem.Absent | Hw.Phys_mem.Read_only | Hw.Phys_mem.Writable -> ()
            end;
            shootdown va;
            go (i + 1) (vpn lsr 9) stop
          end
        end
      in
      go 0 (-1) (0, 0, 0L)
    end
  end

(* Declare a guest frame as a top-level PTP and build its per-vCPU
   copies (invariant I3 + Section 4.3 "per-vCPU page table"). *)
let declare_root t ~pfn : (unit, error) result =
  match declare_ptp t ~pfn ~level:4 with
  | Error e -> Error e
  | Ok () ->
      List.iter (fun (idx, e) -> write_raw t ~pfn ~index:idx e) t.template;
      let copies =
        Array.init (Pervcpu.vcpus t.pervcpu) (fun v ->
            let copy = alloc_ksm_frame t (Hw.Phys_mem.Page_table 4) in
            Hw.Phys_mem.iter_entries t.mem ~pfn (fun index e -> write_raw t ~pfn:copy ~index e);
            write_raw t ~pfn:copy ~index:Layout.l4_pervcpu (Pervcpu.l4_entry t.pervcpu v);
            copy)
      in
      Hw.Int_tbl.replace t.roots pfn { copies };
      Ok ()

(* Validated CR3 load: only declared top-level PTPs; the loaded value
   is the caller vCPU's copy (which maps that vCPU's area). *)
let load_cr3 t ~vcpu ~root : (Hw.Addr.pfn, error) result =
  charge_call t;
  if vcpu < 0 || vcpu >= Pervcpu.vcpus t.pervcpu then Error (Bad_vcpu vcpu)
  else
    match Hw.Int_tbl.find_opt t.roots root with
    | None -> Error (Undeclared_root root)
    | Some info -> Ok info.copies.(vcpu)

(* Read a top-level PTE, propagating accessed/dirty bits from the
   per-vCPU copies into the original (Section 4.3). *)
let read_top_pte t ~root ~idx : (int64, error) result =
  match Hw.Int_tbl.find_opt t.roots root with
  | None -> Error (Undeclared_root root)
  | Some info ->
      let acc = ref (read_raw t ~pfn:root ~index:idx) in
      Array.iter
        (fun copy ->
          let e = read_raw t ~pfn:copy ~index:idx in
          if Hw.Pte.is_accessed e then acc := Hw.Pte.mark_accessed !acc;
          if Hw.Pte.is_dirty e then acc := Hw.Pte.mark_dirty !acc)
        info.copies;
      write_raw t ~pfn:root ~index:idx !acc;
      Ok !acc

(* iret executed by the KSM on the guest's behalf (Table 3). *)
let iret t = charge_call t

(* Release a process address space: undeclare + return its user-range
   PTPs through [free_ptp]; the KSM-owned copies are freed. *)
let release_root t ~root ~free_ptp : (unit, error) result =
  match Hw.Int_tbl.find_opt t.roots root with
  | None -> Error (Undeclared_root root)
  | Some info ->
      let rec free_subtree lvl table =
        if lvl > 1 then
          Hw.Phys_mem.iter_entries t.mem ~pfn:table (fun _ e ->
              if Hw.Pte.is_present e && not (Hw.Pte.is_huge e) then begin
                let child = Hw.Pte.pfn e in
                if owns_frame t child then begin
                  free_subtree (lvl - 1) child;
                  ignore (forget_ptp t child);
                  free_ptp child
                end
              end)
      in
      (* Only the user-range slots hold guest-owned subtrees. *)
      for idx = 0 to Layout.l4_user_max do
        let e = read_raw t ~pfn:root ~index:idx in
        if Hw.Pte.is_present e then begin
          let child = Hw.Pte.pfn e in
          if owns_frame t child then begin
            free_subtree 3 child;
            ignore (forget_ptp t child);
            free_ptp child
          end
        end
      done;
      Array.iter (fun copy -> Hw.Phys_mem.free t.mem copy) info.copies;
      Hw.Int_tbl.remove t.roots root;
      ignore (forget_ptp t root);
      Ok ()

let kernel_root t = t.kernel_root
let idt t = t.idt
let pervcpu t = t.pervcpu
let ksm_call_count t = t.ksm_calls
let root_copies t root = Option.map (fun i -> i.copies) (Hw.Int_tbl.find_opt t.roots root)

(* ------------------------------------------------------------------ *)
(* Read-only introspection for the analysis library.  These expose     *)
(* the monitor's *claimed* state so an external scanner can re-derive  *)
(* the machine's actual state and cross-check — they perform no        *)
(* validation themselves.                                              *)
(* ------------------------------------------------------------------ *)

let segments t = t.segments

let declared_ptps t =
  Hw.Int_tbl.fold
    (fun pfn s acc -> match s with Guest_ptp lvl -> (pfn, lvl) :: acc | Guest_data -> acc)
    t.descs []

let declared_count t = Hw.Int_tbl.length t.descs

let declared_frames t =
  let a = Array.of_seq (Hw.Int_tbl.to_seq_keys t.descs) in
  Array.sort Int.compare a;
  a

let roots t = Hw.Int_tbl.fold (fun pfn info acc -> (pfn, info.copies) :: acc) t.roots []

(* Final teardown sweep: free every frame still owned by this container
   or its KSM, clearing a frozen template's shared_ro tag first so the
   frame returns to the host clean.  The KSM is the only component
   trusted to strip that tag; the caller (Container.destroy) must
   already have verified no clone still references these frames and
   dropped this container's own CoW references to foreign frames. *)
let scrub_owned t =
  let mem = t.mem in
  let scrub pfn =
    if Hw.Phys_mem.is_shared_ro mem pfn then Hw.Phys_mem.set_shared_ro mem pfn false;
    Hw.Phys_mem.free mem pfn
  in
  Hw.Phys_mem.iter_owned mem (Hw.Phys_mem.Container t.container_id) scrub;
  Hw.Phys_mem.iter_owned mem (Hw.Phys_mem.Ksm t.container_id) scrub

let template_slots t = List.map fst t.template
let kernel_exec_frozen t = t.kernel_exec_frozen
