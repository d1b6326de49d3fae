(* Per-process memory management: VMAs + demand paging over the
   platform's page-table interface.

   `touch` is the workhorse: workloads call it for every page they
   access; an unmapped page inside a VMA takes the platform's full
   page-fault path (this is where RunC / HVM / PVM / CKI differ). *)

(* A copy-on-write page from a warm clone: the PTE (and [pages]) still
   reference the template's [shared] frame read-only; [own] is this
   mm's pre-reserved private frame, materialized on first write. *)
type cow_entry = { shared : Hw.Addr.pfn; own : Hw.Addr.pfn }

type t = {
  platform : Platform.t;
  aspace : Platform.aspace;
  vmas : Vma.t;
  pages : (Hw.Addr.vpn, Hw.Addr.pfn) Hashtbl.t;  (** resident pages *)
  cow : (Hw.Addr.vpn, cow_entry) Hashtbl.t;  (** un-broken CoW pages *)
  frozen : (Hw.Addr.vpn, unit) Hashtbl.t;
      (** template pages whose frames live clones share read-only: a
          write is a fault, mirroring the hardware PTE downgrade *)
  wp : (Hw.Addr.vpn, unit) Hashtbl.t;
      (** pages write-protected by the dirty-tracking epoch: the PTE
          was downgraded read-only; the first write takes a fault that
          re-arms it writable and logs the page as dirty *)
  dirty : (Hw.Addr.vpn, unit) Hashtbl.t;  (** dirty log of the current epoch *)
  mutable tracking : bool;
  mutable release_shared : Hw.Addr.pfn -> unit;
      (** drop one reference on a template frame (set by the clone) *)
  mutable brk : Hw.Addr.va;
  brk_base : Hw.Addr.va;
  mutable mmap_cursor : Hw.Addr.va;
  mutable faults : int;
  mutable resident : int;
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
      pages = Hashtbl.create 1024;
      cow = Hashtbl.create 16;
      frozen = Hashtbl.create 16;
      wp = Hashtbl.create 16;
      dirty = Hashtbl.create 16;
      tracking = false;
      release_shared = ignore;
      brk = user_brk_base;
      brk_base = user_brk_base;
      mmap_cursor = user_mmap_base;
      faults = 0;
      resident = 0;
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
    pages = Hashtbl.create 1024;
    cow = Hashtbl.create 16;
    frozen = Hashtbl.create 16;
    wp = Hashtbl.create 16;
    dirty = Hashtbl.create 16;
    tracking = false;
    release_shared = ignore;
    brk;
    brk_base = user_brk_base;
    mmap_cursor;
    faults = 0;
    resident = 0;
  }

let destroy t =
  Hashtbl.iter
    (fun vpn pfn ->
      match Hashtbl.find_opt t.cow vpn with
      | Some { shared; own } ->
          t.release_shared shared;
          t.platform.Platform.free_frame own
      | None -> t.platform.Platform.free_frame pfn)
    t.pages;
  Hashtbl.reset t.pages;
  Hashtbl.reset t.cow;
  t.platform.Platform.as_destroy t.aspace

let aspace t = t.aspace
let fault_count t = t.faults
let resident_pages t = t.resident
let brk_now t = t.brk
let mmap_cursor_now t = t.mmap_cursor
let cow_count t = Hashtbl.length t.cow
let is_cow t vpn = Hashtbl.mem t.cow vpn
let iter_pages t f = Hashtbl.iter f t.pages
let iter_vmas t f = Vma.iter t.vmas f

let add_vma t ~start ~stop ~prot ~backing = ignore (Vma.add t.vmas ~start ~stop ~prot ~backing)

(* Register a page as resident without touching the page tables — used
   by snapshot restore, where the leaf PTEs were imported wholesale. *)
let adopt_page t ~vpn ~pfn =
  Hashtbl.replace t.pages vpn pfn;
  t.resident <- t.resident + 1

let mark_cow t ~vpn ~shared ~own = Hashtbl.replace t.cow vpn { shared; own }
let set_release_shared t f = t.release_shared <- f

(* Template freeze: the hardware PTE was downgraded read-only through
   the KSM; record it here so the model faults on a write too, instead
   of silently "succeeding" into a frame that live clones share. *)
let freeze_page t ~vpn = Hashtbl.replace t.frozen vpn ()
let is_frozen t vpn = Hashtbl.mem t.frozen vpn
let frozen_count t = Hashtbl.length t.frozen

(* --- Dirty-page tracking (live-migration pre-copy) -------------------
   Write-protect-and-log, reusing the CoW write-fault shape: every
   resident page in a writable VMA gets its PTE downgraded read-only
   (through the platform, i.e. the KSM on CKI); the first write takes a
   fault that re-arms the PTE writable and logs the vpn.  [shootdown]
   is called once per downgraded page so the caller can invlpg every
   vCPU — the same TLB discipline Template.freeze follows.  CoW and
   frozen pages are already read-only and log through their own fault
   paths; pages that only become resident during the epoch are logged
   by [handle_fault] since they did not exist in the last image. *)

let tracking t = t.tracking
let dirty_count t = Hashtbl.length t.dirty

let wp_page t ~shootdown vpn =
  let va = Hw.Addr.va_of_vpn vpn in
  match Vma.find t.vmas va with
  | Some area
    when area.Vma.prot.Vma.write
         && Hashtbl.mem t.pages vpn
         && (not (Hashtbl.mem t.cow vpn))
         && not (Hashtbl.mem t.frozen vpn) ->
      t.platform.Platform.pte_protect t.aspace ~va ~writable:false;
      shootdown va;
      Hashtbl.replace t.wp vpn ();
      true
  | _ -> false

let dirty_track_start t ~shootdown =
  if t.tracking then invalid_arg "Mm.dirty_track_start: already tracking";
  t.tracking <- true;
  Hashtbl.reset t.dirty;
  let n = ref 0 in
  let vpns = Hashtbl.fold (fun vpn _ acc -> vpn :: acc) t.pages [] in
  List.iter (fun vpn -> if wp_page t ~shootdown vpn then incr n) vpns;
  !n

let harvest_dirty t =
  Hashtbl.fold (fun vpn () acc -> vpn :: acc) t.dirty []
  |> List.sort compare

(* End one pre-copy round: harvest the dirty log and re-arm write
   protection on exactly those pages, so the next round only sees new
   writes. *)
let dirty_track_round t ~shootdown =
  if not t.tracking then invalid_arg "Mm.dirty_track_round: not tracking";
  let dirty = harvest_dirty t in
  Hashtbl.reset t.dirty;
  List.iter (fun vpn -> ignore (wp_page t ~shootdown vpn)) dirty;
  dirty

(* Stop-and-copy: harvest the final dirty set and drop every remaining
   write protection, restoring each PTE to its VMA permission.  Runs
   before the final capture so the captured PTEs carry the container's
   real protections, not the epoch's. *)
let dirty_track_finish t =
  if not t.tracking then invalid_arg "Mm.dirty_track_finish: not tracking";
  t.tracking <- false;
  Hashtbl.iter
    (fun vpn () ->
      if Hashtbl.mem t.pages vpn then
        let va = Hw.Addr.va_of_vpn vpn in
        match Vma.find t.vmas va with
        | Some area ->
            t.platform.Platform.pte_protect t.aspace ~va ~writable:area.Vma.prot.Vma.write
        | None -> ())
    t.wp;
  Hashtbl.reset t.wp;
  let dirty = harvest_dirty t in
  Hashtbl.reset t.dirty;
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
  match Hashtbl.find_opt t.cow vpn with
  | None -> ()
  | Some { shared; own } -> (
      let va = Hw.Addr.va_of_vpn vpn in
      match Vma.find t.vmas va with
      | None -> raise (Segfault va)
      | Some area ->
          t.faults <- t.faults + 1;
          let p = t.platform in
          p.Platform.fault_round_trip ();
          Hw.Clock.charge p.Platform.clock p.Platform.fault_service;
          Hw.Clock.charge p.Platform.clock Hw.Cost.cow_break_copy;
          p.Platform.pte_install t.aspace ~va ~pfn:own ~writable:area.Vma.prot.Vma.write
            ~user:true;
          Hashtbl.replace t.pages vpn own;
          Hashtbl.remove t.cow vpn;
          if t.tracking then Hashtbl.replace t.dirty vpn ();
          t.release_shared shared)

(* Write fault on a page the tracking epoch protected: re-arm the PTE
   writable and log the page — one fault per page per round. *)
let wp_break t vpn =
  let va = Hw.Addr.va_of_vpn vpn in
  t.faults <- t.faults + 1;
  let p = t.platform in
  p.Platform.fault_round_trip ();
  Hw.Clock.charge p.Platform.clock p.Platform.fault_service;
  p.Platform.pte_protect t.aspace ~va ~writable:true;
  Hashtbl.remove t.wp vpn;
  Hashtbl.replace t.dirty vpn ()

let munmap t ~start ~pages =
  let stop = start + (pages * Hw.Addr.page_size) in
  let _removed = Vma.remove t.vmas ~start ~stop in
  for vpn = Hw.Addr.vpn_of_va start to Hw.Addr.vpn_of_va (stop - 1) do
    match Hashtbl.find_opt t.pages vpn with
    | None -> ()
    | Some pfn -> (
        Hashtbl.remove t.pages vpn;
        Hashtbl.remove t.wp vpn;
        Hashtbl.remove t.dirty vpn;
        t.resident <- t.resident - 1;
        t.platform.Platform.pte_remove t.aspace ~va:(Hw.Addr.va_of_vpn vpn);
        match Hashtbl.find_opt t.cow vpn with
        | Some { shared; own } ->
            (* Un-broken CoW page: the PTE referenced the template's
               frame; give that reference back and free our reserve. *)
            Hashtbl.remove t.cow vpn;
            t.release_shared shared;
            t.platform.Platform.free_frame own
        | None -> t.platform.Platform.free_frame pfn)
  done

let mprotect t ~start ~pages ~prot =
  let stop = start + (pages * Hw.Addr.page_size) in
  (* A frozen template page can never become writable again: its frame
     is shared read-only with live clones. *)
  if prot.Vma.write then
    for vpn = Hw.Addr.vpn_of_va start to Hw.Addr.vpn_of_va (stop - 1) do
      if Hashtbl.mem t.frozen vpn then raise (Segfault (Hw.Addr.va_of_vpn vpn))
    done;
  ignore (Vma.protect t.vmas ~start ~stop ~prot);
  (* Update PTEs of resident pages in the range.  Making a CoW page
     writable must break the share first — the template's frame can
     never be reachable through a writable PTE. *)
  for vpn = Hw.Addr.vpn_of_va start to Hw.Addr.vpn_of_va (stop - 1) do
    if Hashtbl.mem t.pages vpn then begin
      if prot.Vma.write && Hashtbl.mem t.cow vpn then cow_break t vpn;
      (* mprotect overrides the epoch's write protection: treat a page
         re-opened for writing as dirty rather than lose the log. *)
      if Hashtbl.mem t.wp vpn then begin
        Hashtbl.remove t.wp vpn;
        if t.tracking && prot.Vma.write then Hashtbl.replace t.dirty vpn ()
      end;
      t.platform.Platform.pte_protect t.aspace ~va:(Hw.Addr.va_of_vpn vpn)
        ~writable:prot.Vma.write
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
      Hashtbl.replace t.pages (Hw.Addr.vpn_of_va va) pfn;
      if t.tracking then Hashtbl.replace t.dirty (Hw.Addr.vpn_of_va va) ();
      t.resident <- t.resident + 1

(* Access the page containing [va], demand-faulting if needed.  A
   write to a frozen template page faults: the hardware PTE was
   downgraded read-only when the template froze, and the frame is
   shared with live clones. *)
let touch t va ~write =
  let vpn = Hw.Addr.vpn_of_va va in
  match Hashtbl.find_opt t.pages vpn with
  | Some _ ->
      if write then
        if Hashtbl.mem t.frozen vpn then raise (Segfault va)
        else if Hashtbl.mem t.cow vpn then cow_break t vpn
        else if Hashtbl.mem t.wp vpn then wp_break t vpn
  | None -> handle_fault t va ~write

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
   platform charges in pte_install). *)
let fork t =
  let child = create t.platform in
  Vma.iter t.vmas (fun a ->
      if not (Vma.overlaps child.vmas ~start:a.Vma.start ~stop:a.Vma.stop) then
        ignore
          (Vma.add child.vmas ~start:a.Vma.start ~stop:a.Vma.stop ~prot:a.Vma.prot
             ~backing:a.Vma.backing));
  Hashtbl.iter
    (fun vpn _pfn ->
      let pfn' = t.platform.Platform.alloc_frame () in
      Hw.Clock.charge t.platform.Platform.clock Hw.Cost.per_pte_copy;
      (match Vma.find t.vmas (Hw.Addr.va_of_vpn vpn) with
      | Some a ->
          t.platform.Platform.pte_install child.aspace ~va:(Hw.Addr.va_of_vpn vpn) ~pfn:pfn'
            ~writable:a.Vma.prot.Vma.write ~user:true
      | None -> ());
      Hashtbl.replace child.pages vpn pfn';
      child.resident <- child.resident + 1)
    t.pages;
  child
