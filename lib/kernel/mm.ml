(* Per-process memory management: VMAs + demand paging over the
   platform's page-table interface.

   `touch` is the workhorse: workloads call it for every page they
   access; an unmapped page inside a VMA takes the platform's full
   page-fault path (this is where RunC / HVM / PVM / CKI differ). *)

(* Every per-page fact lives in a [Page_map] keyed by vpn; the tables
   that only record membership bind 0. *)
type t = {
  platform : Platform.t;
  aspace : Platform.aspace;
  vmas : Vma.t;
  pages : Page_map.t;  (** resident pages: vpn -> frame *)
  cow : Page_map.t;
      (** un-broken CoW pages of a warm clone: vpn -> this mm's
          pre-reserved private frame, materialized on first write; the
          PTE (and [pages]) still reference the template's shared frame
          read-only *)
  frozen : Page_map.t;
      (** template pages whose frames live clones share read-only: a
          write is a fault, mirroring the hardware PTE downgrade *)
  wp : Page_map.t;
      (** pages write-protected by the dirty-tracking epoch: the PTE
          was downgraded read-only; the first write takes a fault that
          re-arms it writable and logs the page as dirty *)
  dirty : Page_map.t;  (** dirty log of the current epoch *)
  mutable tracking : bool;
  mutable release_shared : Hw.Addr.pfn -> unit;
      (** drop one reference on a template frame (set by the clone) *)
  mutable brk : Hw.Addr.va;
  brk_base : Hw.Addr.va;
  mutable mmap_cursor : Hw.Addr.va;
  mutable faults : int;
}

let user_mmap_base = 0x7000_0000_0000
let user_brk_base = 0x1000_0000_0000
let user_stack_top = 0x7fff_ffff_0000

let create platform =
  let aspace = platform.Platform.as_create () in
  let t =
    {
      platform;
      aspace;
      vmas = Vma.create ();
      pages = Page_map.create ();
      cow = Page_map.create ();
      frozen = Page_map.create ();
      wp = Page_map.create ();
      dirty = Page_map.create ();
      tracking = false;
      release_shared = ignore;
      brk = user_brk_base;
      brk_base = user_brk_base;
      mmap_cursor = user_mmap_base;
      faults = 0;
    }
  in
  (* A default stack area. *)
  ignore
    (Vma.add t.vmas
       ~start:(user_stack_top - (256 * Hw.Addr.page_size))
       ~stop:user_stack_top ~prot:Vma.prot_rw ~backing:Vma.Stack);
  t

(* Snapshot restore: bind to an [aspace] whose page tables were already
   imported wholesale — no as_create, no default stack VMA; the caller
   replays captured VMAs and resident pages. *)
let restore platform ~aspace ~brk ~mmap_cursor =
  {
    platform;
    aspace;
    vmas = Vma.create ();
    pages = Page_map.create ();
    cow = Page_map.create ();
    frozen = Page_map.create ();
    wp = Page_map.create ();
    dirty = Page_map.create ();
    tracking = false;
    release_shared = ignore;
    brk;
    brk_base = user_brk_base;
    mmap_cursor;
    faults = 0;
  }

(* Frames go back in ascending vpn order; an un-broken CoW page gives
   back its reference on the template's frame and frees its reserve. *)
let destroy t =
  Page_map.iter t.pages (fun vpn pfn ->
      let own = Page_map.find t.cow vpn in
      if own >= 0 then begin
        t.release_shared pfn;
        t.platform.Platform.free_frame own
      end
      else t.platform.Platform.free_frame pfn);
  Page_map.clear t.pages;
  Page_map.clear t.cow;
  t.platform.Platform.as_destroy t.aspace

let aspace t = t.aspace
let fault_count t = t.faults
let resident_pages t = Page_map.length t.pages
let brk_now t = t.brk
let mmap_cursor_now t = t.mmap_cursor
let cow_count t = Page_map.length t.cow
let is_cow t vpn = Page_map.mem t.cow vpn

let map_leaves t =
  Page_map.leaves t.pages + Page_map.leaves t.cow + Page_map.leaves t.frozen + Page_map.leaves t.wp
  + Page_map.leaves t.dirty

let iter_pages t f = Page_map.iter t.pages f

let iter_vmas t f = Vma.iter t.vmas f

let add_vma t ~start ~stop ~prot ~backing = ignore (Vma.add t.vmas ~start ~stop ~prot ~backing)

(* Register a page as resident without touching the page tables — used
   by snapshot restore, where the leaf PTEs were imported wholesale. *)
let adopt_page t ~vpn ~pfn = Page_map.replace t.pages vpn pfn
let mark_cow t ~vpn ~own = Page_map.replace t.cow vpn own
let set_release_shared t f = t.release_shared <- f

(* Template freeze: the hardware PTE was downgraded read-only through
   the KSM; record it here so the model faults on a write too, instead
   of silently "succeeding" into a frame that live clones share. *)
let freeze_page t ~vpn = Page_map.replace t.frozen vpn 0
let is_frozen t vpn = Page_map.mem t.frozen vpn
let frozen_count t = Page_map.length t.frozen

(* --- Dirty-page tracking (live-migration pre-copy) -------------------
   Write-protect-and-log, reusing the CoW write-fault shape: every
   resident page in a writable VMA gets its PTE downgraded read-only
   (through the platform, i.e. the KSM on CKI); the first write takes a
   fault that re-arms the PTE writable and logs the vpn.  [shootdown]
   is called once per downgraded page, right after its PTE changes, so
   the caller can invlpg every vCPU — the same TLB discipline
   Template.freeze follows.  CoW and frozen pages are already read-only
   and log through their own fault paths; pages that only become
   resident during the epoch are logged by [handle_fault] since they did
   not exist in the last image.

   Pages go to the platform in ascending vpn order, one call per run of
   pages with the same target protection, so the KSM walks each L1
   table once per run instead of once per page. *)

let tracking t = t.tracking
let dirty_count t = Page_map.length t.dirty

(* The VMA covering [va], reusing [last] (the previous page's) while it
   covers [va]: ascending pages find each area once. *)
let area_at t last va =
  match !last with
  | Some a when a.Vma.start <= va && va < a.Vma.stop -> !last
  | _ ->
      let found = Vma.find t.vmas va in
      last := found;
      found

(* Hand the pages of [vpns] (ascending) to the platform, one call per
   run of equal target protection; [target] gives a page's, or [None]
   to leave it out.  The kept pages are packed to the front of [vpns],
   which the caller gives up, and a run that is the whole array goes
   as it is.  Returns the number of pages handed over. *)
let protect_runs t vpns ~target ~shootdown =
  let kept = ref 0 and first = ref 0 and writable = ref false in
  let flush () =
    if !kept > !first then
      t.platform.Platform.pte_protect t.aspace
        ~vpns:
          (if !first = 0 && !kept = Array.length vpns then vpns
           else Array.sub vpns !first (!kept - !first))
        ~writable:!writable ~shootdown;
    first := !kept
  in
  Array.iter
    (fun vpn ->
      match target vpn with
      | None -> ()
      | Some w ->
          if w <> !writable then begin
            flush ();
            writable := w
          end;
          vpns.(!kept) <- vpn;
          incr kept)
    vpns;
  flush ();
  !kept

(* Write-protect the pages of [vpns] (ascending) that an epoch tracks:
   resident, in a writable VMA, neither CoW nor frozen.  Each is shot
   down and filed in [wp] as the platform reaches it. *)
let write_protect t ~shootdown vpns =
  let last = ref None in
  protect_runs t vpns
    ~target:(fun vpn ->
      match area_at t last (Hw.Addr.va_of_vpn vpn) with
      | Some area
        when area.Vma.prot.Vma.write
             && Page_map.mem t.pages vpn
             && (not (Page_map.mem t.cow vpn))
             && not (Page_map.mem t.frozen vpn) ->
          Some false
      | _ -> None)
    ~shootdown:(fun va ->
      shootdown va;
      Page_map.replace t.wp (Hw.Addr.vpn_of_va va) 0)

let dirty_track_start t ~shootdown =
  if t.tracking then invalid_arg "Mm.dirty_track_start: already tracking";
  t.tracking <- true;
  Page_map.clear t.dirty;
  Page_map.clear t.wp;
  write_protect t ~shootdown (Page_map.keys t.pages)

(* End one pre-copy round: harvest the dirty log and re-arm write
   protection on exactly those pages, so the next round only sees new
   writes. *)
let dirty_track_round t ~shootdown =
  if not t.tracking then invalid_arg "Mm.dirty_track_round: not tracking";
  let dirty = Page_map.keys t.dirty in
  Page_map.clear t.dirty;
  let harvested = Array.to_list dirty in
  ignore (write_protect t ~shootdown dirty);
  harvested

(* Stop-and-copy: harvest the final dirty set and drop every remaining
   write protection, restoring each PTE to its VMA permission.  Runs
   before the final capture so the captured PTEs carry the container's
   real protections, not the epoch's. *)
let dirty_track_finish t =
  if not t.tracking then invalid_arg "Mm.dirty_track_finish: not tracking";
  t.tracking <- false;
  let last = ref None in
  ignore
    (protect_runs t (Page_map.keys t.wp)
       ~target:(fun vpn ->
         if not (Page_map.mem t.pages vpn) then None
         else
           match area_at t last (Hw.Addr.va_of_vpn vpn) with
           | Some area -> Some area.Vma.prot.Vma.write
           | None -> None)
       ~shootdown:ignore);
  Page_map.clear t.wp;
  let dirty = Array.to_list (Page_map.keys t.dirty) in
  Page_map.clear t.dirty;
  dirty

(* mmap: reserve [pages] pages; returns the base va.  No frames are
   allocated until touched. *)
let mmap t ~pages ~prot ~backing =
  if pages <= 0 then invalid_arg "Mm.mmap";
  let base = Vma.find_gap t.vmas ~from:t.mmap_cursor ~pages in
  let stop = base + (pages * Hw.Addr.page_size) in
  ignore (Vma.add t.vmas ~start:base ~stop ~prot ~backing);
  t.mmap_cursor <- stop;
  base

exception Segfault of Hw.Addr.va

(* First write to a clone's CoW page: a write fault that copies the
   template's frame into the pre-reserved private one and swings the
   PTE — the only divergence cost a warm clone ever pays. *)
let cow_break t vpn =
  let own = Page_map.find t.cow vpn in
  if own >= 0 then begin
    let va = Hw.Addr.va_of_vpn vpn in
    match Vma.find t.vmas va with
    | None -> raise (Segfault va)
    | Some area ->
        t.faults <- t.faults + 1;
        let p = t.platform in
        p.Platform.fault_round_trip ();
        Hw.Clock.charge p.Platform.clock p.Platform.fault_service;
        Hw.Clock.charge p.Platform.clock Hw.Cost.cow_break_copy;
        p.Platform.pte_install t.aspace ~va ~pfn:own ~writable:area.Vma.prot.Vma.write ~user:true;
        let shared = Page_map.find t.pages vpn in
        Page_map.replace t.pages vpn own;
        Page_map.remove t.cow vpn;
        if t.tracking then Page_map.replace t.dirty vpn 0;
        t.release_shared shared
  end

(* Write fault on a page the tracking epoch protected: re-arm the PTE
   writable and log the page — one fault per page per round. *)
let wp_break t vpn =
  t.faults <- t.faults + 1;
  let p = t.platform in
  p.Platform.fault_round_trip ();
  Hw.Clock.charge p.Platform.clock p.Platform.fault_service;
  p.Platform.pte_protect t.aspace ~vpns:[| vpn |] ~writable:true ~shootdown:ignore;
  Page_map.remove t.wp vpn;
  Page_map.replace t.dirty vpn 0

let munmap t ~start ~pages =
  let stop = start + (pages * Hw.Addr.page_size) in
  let _removed = Vma.remove t.vmas ~start ~stop in
  for vpn = Hw.Addr.vpn_of_va start to Hw.Addr.vpn_of_va (stop - 1) do
    let pfn = Page_map.find t.pages vpn in
    if pfn >= 0 then begin
      Page_map.remove t.pages vpn;
      Page_map.remove t.wp vpn;
      Page_map.remove t.dirty vpn;
      t.platform.Platform.pte_remove t.aspace ~va:(Hw.Addr.va_of_vpn vpn);
      let own = Page_map.find t.cow vpn in
      if own >= 0 then begin
        (* Un-broken CoW page: the PTE referenced the template's
           frame; give that reference back and free our reserve. *)
        Page_map.remove t.cow vpn;
        t.release_shared pfn;
        t.platform.Platform.free_frame own
      end
      else t.platform.Platform.free_frame pfn
    end
  done

let mprotect t ~start ~pages ~prot =
  let stop = start + (pages * Hw.Addr.page_size) in
  (* A frozen template page can never become writable again: its frame
     is shared read-only with live clones. *)
  if prot.Vma.write then
    for vpn = Hw.Addr.vpn_of_va start to Hw.Addr.vpn_of_va (stop - 1) do
      if Page_map.mem t.frozen vpn then raise (Segfault (Hw.Addr.va_of_vpn vpn))
    done;
  ignore (Vma.protect t.vmas ~start ~stop ~prot);
  (* Update PTEs of resident pages in the range.  Making a CoW page
     writable must break the share first — the template's frame can
     never be reachable through a writable PTE. *)
  for vpn = Hw.Addr.vpn_of_va start to Hw.Addr.vpn_of_va (stop - 1) do
    if Page_map.mem t.pages vpn then begin
      if prot.Vma.write && Page_map.mem t.cow vpn then cow_break t vpn;
      (* mprotect overrides the epoch's write protection: treat a page
         re-opened for writing as dirty rather than lose the log. *)
      if Page_map.mem t.wp vpn then begin
        Page_map.remove t.wp vpn;
        if t.tracking && prot.Vma.write then Page_map.replace t.dirty vpn 0
      end;
      t.platform.Platform.pte_protect t.aspace ~vpns:[| vpn |] ~writable:prot.Vma.write
        ~shootdown:ignore
    end
  done

let brk t ~delta_pages =
  let new_brk = t.brk + (delta_pages * Hw.Addr.page_size) in
  if new_brk < t.brk_base then invalid_arg "Mm.brk: below base";
  if delta_pages > 0 then
    ignore (Vma.add t.vmas ~start:t.brk ~stop:new_brk ~prot:Vma.prot_rw ~backing:Vma.Heap)
  else if delta_pages < 0 then ignore (Vma.remove t.vmas ~start:new_brk ~stop:t.brk);
  t.brk <- new_brk;
  t.brk

(* Handle a demand fault on [va]: full platform fault path + service. *)
let handle_fault t va ~write =
  match Vma.find t.vmas va with
  | None -> raise (Segfault va)
  | Some area ->
      if write && not area.Vma.prot.Vma.write then raise (Segfault va);
      t.faults <- t.faults + 1;
      let p = t.platform in
      p.Platform.fault_round_trip ();
      Hw.Clock.charge p.Platform.clock p.Platform.fault_service;
      let pfn = p.Platform.alloc_frame () in
      p.Platform.pte_install t.aspace ~va:(Hw.Addr.page_align_down va) ~pfn
        ~writable:area.Vma.prot.Vma.write ~user:true;
      Page_map.replace t.pages (Hw.Addr.vpn_of_va va) pfn;
      if t.tracking then Page_map.replace t.dirty (Hw.Addr.vpn_of_va va) 0

(* Access the page containing [va], demand-faulting if needed.  A
   write to a frozen template page faults: the hardware PTE was
   downgraded read-only when the template froze, and the frame is
   shared with live clones. *)
let touch t va ~write =
  let vpn = Hw.Addr.vpn_of_va va in
  if not (Page_map.mem t.pages vpn) then handle_fault t va ~write
  else if write then
    if Page_map.mem t.frozen vpn then raise (Segfault va)
    else if Page_map.mem t.cow vpn then cow_break t vpn
    else if Page_map.mem t.wp vpn then wp_break t vpn

(* Touch every page of [start, start + pages).  Returns faults taken. *)
let touch_range t ~start ~pages ~write =
  let before = t.faults in
  for i = 0 to pages - 1 do
    touch t (start + (i * Hw.Addr.page_size)) ~write
  done;
  t.faults - before

(* Duplicate this mm for fork: copies VMAs and eagerly copies resident
   pages (the model does not implement copy-on-write; lmbench's
   fork costs are dominated by the per-PTE work either way, which the
   platform charges in pte_install).  Pages are copied in ascending
   vpn order, so the child's frames do not depend on table layout. *)
let fork t =
  let child = create t.platform in
  Vma.iter t.vmas (fun a ->
      if not (Vma.overlaps child.vmas ~start:a.Vma.start ~stop:a.Vma.stop) then
        ignore
          (Vma.add child.vmas ~start:a.Vma.start ~stop:a.Vma.stop ~prot:a.Vma.prot
             ~backing:a.Vma.backing));
  iter_pages t (fun vpn _pfn ->
      let pfn' = t.platform.Platform.alloc_frame () in
      Hw.Clock.charge t.platform.Platform.clock Hw.Cost.per_pte_copy;
      (match Vma.find t.vmas (Hw.Addr.va_of_vpn vpn) with
      | Some a ->
          t.platform.Platform.pte_install child.aspace ~va:(Hw.Addr.va_of_vpn vpn) ~pfn:pfn'
            ~writable:a.Vma.prot.Vma.write ~user:true
      | None -> ());
      Page_map.replace child.pages vpn pfn');
  child
