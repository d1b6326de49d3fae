(* The snapshot/restore/warm-clone subsystem.

   The anchor test is determinism: capture -> restore -> capture must
   be byte-identical even though every frame moved.  Around it: CoW
   divergence on clones, cross-machine relocation, corrupted-image
   rejection, the Cow_writable invariant rule, warm-pool accounting,
   Buddy.reserve, and the ISSUE's acceptance ratios. *)

open Alcotest

let cfg = { Cki.Config.default with Cki.Config.segment_frames = 8192 (* 32 MiB *) }

let mk_host ?(mem_mib = 256) () = Cki.Host.create (Hw.Machine.create ~mem_mib ())

(* Boot a container with real state: a task with dirty heap pages and
   a tmpfs config file held open. *)
let boot_ready ?(pages = 64) host =
  let c = Cki.Container.create ~cfg host in
  let b = Cki.Container.backend c in
  let task = Virt.Backend.spawn b in
  (match
     Virt.Backend.syscall_exn b task
       (Kernel_model.Syscall.Mmap { pages; prot = Kernel_model.Vma.prot_rw })
   with
  | Kernel_model.Syscall.Rint base ->
      ignore (Kernel_model.Mm.touch_range task.Kernel_model.Task.mm ~start:base ~pages ~write:true)
  | _ -> fail "mmap");
  (match
     Virt.Backend.syscall_exn b task (Kernel_model.Syscall.Open { path = "/app.conf"; create = true })
   with
  | Kernel_model.Syscall.Rint fd ->
      ignore
        (Virt.Backend.syscall_exn b task
           (Kernel_model.Syscall.Write { fd; data = Bytes.of_string "threads=4\ncache=64M\n" }))
  | _ -> fail "open");
  c

let capture_exn c =
  match Snapshot.Capture.capture c with
  | Ok image -> image
  | Error e -> fail ("capture: " ^ Snapshot.Capture.show_error e)

let restore_exn host image =
  match Snapshot.Restore.restore host image with
  | Ok c -> c
  | Error e -> fail ("restore: " ^ Snapshot.Restore.show_error e)

let template_exn c =
  match Snapshot.Template.create c with
  | Ok t -> t
  | Error e -> fail ("template: " ^ Snapshot.Template.show_error e)

let clone_exn tpl =
  match Snapshot.Template.clone tpl with
  | Ok c -> c
  | Error e -> fail ("clone: " ^ Snapshot.Template.show_error e)

let first_task (c : Cki.Container.t) =
  match Kernel_model.Kernel.tasks c.Cki.Container.backend.Virt.Backend.kernel with
  | t :: _ -> t
  | [] -> fail "no tasks"

(* Rewrite the first payload line starting with [prefix] (every such
   line with [~all]) through [f], then re-seal the checksum the way
   anyone holding an image can. *)
let reseal ?(all = false) ~prefix f enc =
  let lines = String.split_on_char '\n' enc in
  let magic = List.hd lines in
  let payload = List.filteri (fun i _ -> i >= 2) lines in
  let hits = ref 0 in
  let payload =
    List.map
      (fun l ->
        if (all || !hits = 0) && String.starts_with ~prefix l then begin
          incr hits;
          f l
        end
        else l)
      payload
  in
  if !hits = 0 then fail ("no line with prefix " ^ prefix);
  let body = String.concat "\n" payload in
  String.concat "\n" [ magic; Printf.sprintf "checksum %016Lx" (Snapshot.Image.fnv1a64 body); body ]

(* ------------------------------------------------------------------ *)

(* capture∘restore∘capture is byte-identical: every frame relocated,
   nothing else changed. *)
let test_roundtrip_byte_identical () =
  let host = mk_host () in
  let c0 = boot_ready host in
  let img0 = capture_exn c0 in
  let enc0 = Snapshot.Image.encode img0 in
  (match Snapshot.Image.decode enc0 with
  | Ok img -> check string "decode∘encode is the identity" enc0 (Snapshot.Image.encode img)
  | Error e -> fail (Snapshot.Image.show_decode_error e));
  let c1 = restore_exn host img0 in
  (* Different segment: the restore really relocated. *)
  check bool "restored into a different segment" false
    (Cki.Ksm.segments (Cki.Container.ksm c0) = Cki.Ksm.segments (Cki.Container.ksm c1));
  let enc1 = Snapshot.Image.encode (capture_exn c1) in
  check string "re-capture after restore is byte-identical" enc0 enc1

(* A frame the container owns outside its segments that no table
   reaches makes the image not closed: the capture names that frame,
   whether the container or its monitor owns it.  Freed again, the
   capture succeeds. *)
let test_unreachable_frame () =
  let host = mk_host () in
  let c = boot_ready host in
  let mem = Hw.Machine.mem (Cki.Host.machine host) in
  let id = c.Cki.Container.container_id in
  List.iter
    (fun owner ->
      let stray = Hw.Phys_mem.alloc mem ~owner ~kind:Hw.Phys_mem.Data in
      check bool "outside the segments" false (Cki.Ksm.owns_frame (Cki.Container.ksm c) stray);
      (match Snapshot.Capture.capture c with
      | Error (Snapshot.Capture.Unreachable_frame pfn) ->
          check int (Hw.Phys_mem.show_owner owner ^ ": the stray frame is named") stray pfn
      | Error e -> fail ("wrong capture error: " ^ Snapshot.Capture.show_error e)
      | Ok _ -> fail "capture of an unclosed container succeeded");
      Hw.Phys_mem.free mem stray;
      ignore (capture_exn c))
    [ Hw.Phys_mem.Container id; Hw.Phys_mem.Ksm id ]

(* Clone-then-write: CoW pages diverge one at a time; the template is
   untouched; both stay clean under the scanner. *)
let test_clone_cow_divergence () =
  let host = mk_host () in
  let c0 = boot_ready host in
  let mem = Hw.Machine.mem (Cki.Host.machine host) in
  let tpl = template_exn c0 in
  let clone = clone_exn tpl in
  let mm = (first_task clone).Kernel_model.Task.mm in
  let tpl_mm = (first_task (Snapshot.Template.container tpl)).Kernel_model.Task.mm in
  let cow0 = Kernel_model.Mm.cow_count mm in
  check bool "clone starts with CoW pages" true (cow0 = 64);
  check int "resident pages all CoW-shared" (Kernel_model.Mm.resident_pages mm) cow0;
  (* Capturing a clone with pending CoW is refused. *)
  (match Snapshot.Capture.capture clone with
  | Error (Snapshot.Capture.Cow_pending _) -> ()
  | Ok _ -> fail "capture of CoW-pending clone must fail"
  | Error e -> fail ("unexpected capture error: " ^ Snapshot.Capture.show_error e));
  let va = Kernel_model.Mm.user_mmap_base in
  let vpn = Hw.Addr.vpn_of_va va in
  check bool "first page is CoW before the write" true (Kernel_model.Mm.is_cow mm vpn);
  let shared_before = ref (-1) in
  Kernel_model.Mm.iter_pages mm (fun v p -> if v = vpn then shared_before := p);
  Kernel_model.Mm.touch mm va ~write:true;
  check int "one CoW page broken" (cow0 - 1) (Kernel_model.Mm.cow_count mm);
  check bool "page no longer CoW" false (Kernel_model.Mm.is_cow mm vpn);
  let own = ref (-1) in
  Kernel_model.Mm.iter_pages mm (fun v p -> if v = vpn then own := p);
  check bool "write materialized a private frame" false (!own = !shared_before);
  check bool "template frame still pinned shared" true (Hw.Phys_mem.is_shared_ro mem !shared_before);
  (* Template's own page table still references its own frame. *)
  let tpl_pfn = ref (-1) in
  Kernel_model.Mm.iter_pages tpl_mm (fun v p -> if v = vpn then tpl_pfn := p);
  check int "template mapping untouched" !shared_before !tpl_pfn;
  check int "clone clean after divergence" 0
    (List.length (Analysis.check_machine ~containers:[ clone ]));
  check int "template clean after divergence" 0
    (List.length (Analysis.check_machine ~containers:[ Snapshot.Template.container tpl ]))

(* Restore onto a different machine whose free memory starts elsewhere:
   every hPA is relocated, state survives. *)
let test_cross_machine_restore () =
  let host1 = mk_host () in
  let c0 = boot_ready host1 in
  let base0 = List.hd (Cki.Ksm.segments (Cki.Container.ksm c0)) |> fst in
  let image = capture_exn c0 in
  let host2 = mk_host ~mem_mib:512 () in
  (* Shift host2's first-fit cursor so the segment cannot land at the
     same base. *)
  ignore
    (Cki.Host.delegate_segment host2 ~container:(Cki.Host.fresh_container_id host2) ~frames:160);
  let c1 = restore_exn host2 image in
  let base1 = List.hd (Cki.Ksm.segments (Cki.Container.ksm c1)) |> fst in
  check bool "segment relocated" false (base0 = base1);
  let task = first_task c1 in
  check int "heap pages resident" 64 (Kernel_model.Mm.resident_pages task.Kernel_model.Task.mm);
  (* File contents and the open descriptor survived. *)
  let fs = Kernel_model.Kernel.fs c1.Cki.Container.backend.Virt.Backend.kernel in
  let inode = Kernel_model.Tmpfs.resolve fs "/app.conf" in
  check string "tmpfs contents survive relocation" "threads=4\ncache=64M\n"
    (let buf = Bytes.create (Kernel_model.Tmpfs.size inode) in
     ignore (Kernel_model.Tmpfs.read_into fs inode ~off:0 buf);
     Bytes.to_string buf);
  (match Kernel_model.Task.fd task 3 with
  | Some (Kernel_model.Task.File f) ->
      check int "fd position survives" (String.length "threads=4\ncache=64M\n")
        f.Kernel_model.Task.pos
  | _ -> fail "captured fd missing");
  (* The restored guest still works: grow the heap through the full
     KSM-mediated fault path. *)
  let grown =
    Kernel_model.Mm.touch_range task.Kernel_model.Task.mm
      ~start:(Kernel_model.Mm.user_mmap_base + (64 * Hw.Addr.page_size))
      ~pages:0 ~write:false
  in
  check int "restored mm usable" 0 grown;
  check int "cross-machine restore clean" 0 (List.length (Analysis.check_machine ~containers:[ c1 ]))

let test_corrupted_image_rejected () =
  let host = mk_host () in
  let image = capture_exn (boot_ready host) in
  let enc = Snapshot.Image.encode image in
  let expect name want s =
    match Snapshot.Image.decode s with
    | Error e ->
        check string name want (Snapshot.Image.show_decode_error e |> String.split_on_char ' ' |> List.hd)
    | Ok _ -> fail (name ^ ": corrupted image accepted")
  in
  (* Flip one payload byte: checksum catches it. *)
  let flipped = Bytes.of_string enc in
  let i = String.length enc - 2 in
  Bytes.set flipped i (if Bytes.get flipped i = '0' then '1' else '0');
  expect "bit flip" "checksum" (Bytes.to_string flipped);
  (* Truncate mid-payload but with a matching checksum: structural
     parse must still refuse. *)
  let lines = String.split_on_char '\n' enc in
  let header = List.filteri (fun i _ -> i < 1) lines in
  let payload = List.filteri (fun i _ -> i >= 2) lines in
  let cut =
    List.filteri (fun i _ -> i < List.length payload / 2) payload |> String.concat "\n"
  in
  let rebuilt =
    String.concat "\n"
      (header @ [ Printf.sprintf "checksum %016Lx" (Snapshot.Image.fnv1a64 cut); cut ])
  in
  expect "truncation" "truncated" rebuilt;
  (* Version skew and bad magic. *)
  let swap_first_line repl =
    match String.index_opt enc '\n' with
    | Some i -> repl ^ String.sub enc i (String.length enc - i)
    | None -> fail "no newline"
  in
  expect "version skew" "unsupported" (swap_first_line "CKI-SNAPSHOT v99");
  expect "bad magic" "bad" (swap_first_line "NOT-A-SNAPSHOT v1");
  (* And the file loader surfaces missing files as Truncated. *)
  match Snapshot.Image.read_file "/nonexistent/image.ckisnap" with
  | Error _ -> ()
  | Ok _ -> fail "read_file of missing path succeeded"

(* Fault injection: forge a writable PTE onto a CoW-shared frame behind
   the monitor's back; the scanner must name it. *)
let test_cow_writable_detected () =
  let host = mk_host () in
  let c0 = boot_ready host in
  let mem = Hw.Machine.mem (Cki.Host.machine host) in
  let tpl = template_exn c0 in
  let clone = clone_exn tpl in
  let mm = (first_task clone).Kernel_model.Task.mm in
  let va = Kernel_model.Mm.user_mmap_base in
  let root =
    match Hw.Int_tbl.find_opt clone.Cki.Container.aspaces (Kernel_model.Mm.aspace mm) with
    | Some r -> r
    | None -> fail "clone aspace root"
  in
  (* Walk to the leaf by hand and set the write bit raw. *)
  let rec walk pfn lvl =
    let e = Hw.Phys_mem.read_entry mem ~pfn ~index:(Hw.Addr.index_at_level ~lvl va) in
    if lvl = 1 then (pfn, e) else walk (Hw.Pte.pfn e) (lvl - 1)
  in
  let l1, leaf = walk root 4 in
  check bool "leaf is CoW-shared and read-only" false (Hw.Pte.is_writable leaf);
  Hw.Phys_mem.write_entry mem ~pfn:l1 ~index:(Hw.Addr.index_at_level ~lvl:1 va)
    (Hw.Pte.with_writable leaf true);
  let violations = Analysis.check_machine ~containers:[ clone ] in
  check bool "scanner flags the forged writable CoW mapping" true
    (List.exists
       (fun v -> Analysis.Invariants.rule_name v = "cow-writable-leaf")
       violations)

let test_warm_pool_counts () =
  let host = mk_host ~mem_mib:512 () in
  let boots = ref 0 in
  let make () =
    incr boots;
    template_exn (boot_ready host)
  in
  let pool = Snapshot.Pool.create ~target:2 ~make () in
  check int "pool pre-boots to target" 2 (Snapshot.Pool.prebooted pool);
  check int "pool size" 2 (Snapshot.Pool.size pool);
  check int "no clones served yet" 0 (Snapshot.Pool.served pool);
  for _ = 1 to 3 do
    match Snapshot.Pool.spawn_fast pool with
    | Ok _ -> ()
    | Error e -> fail (Snapshot.Template.show_error e)
  done;
  check int "three clones served" 3 (Snapshot.Pool.served pool);
  check int "templates are rotated, not consumed" 2 (Snapshot.Pool.size pool);
  check int "no extra boots beyond the target" 2 !boots

let test_buddy_reserve () =
  let b = Kernel_model.Buddy.create ~base:1000 ~frames:64 in
  Kernel_model.Buddy.reserve b 1008 3;
  Kernel_model.Buddy.reserve b 1000 0;
  check bool "reserved blocks recorded" true
    (List.mem (1008, 3) (Kernel_model.Buddy.allocated_blocks b)
    && List.mem (1000, 0) (Kernel_model.Buddy.allocated_blocks b));
  check int "free count reflects reservations" (64 - 8 - 1) (Kernel_model.Buddy.free_frames b);
  (* The allocator never hands out a reserved frame. *)
  for _ = 1 to 64 - 8 - 1 do
    let pfn = Kernel_model.Buddy.alloc b in
    check bool "alloc avoids reserved ranges" false ((pfn >= 1008 && pfn < 1016) || pfn = 1000)
  done;
  check_raises "double reserve refused" (Invalid_argument "Buddy.reserve: block not free")
    (fun () -> Kernel_model.Buddy.reserve b 1008 3);
  check_raises "misaligned reserve refused" (Invalid_argument "Buddy.reserve: misaligned block")
    (fun () ->
      ignore (Kernel_model.Buddy.reserve (Kernel_model.Buddy.create ~base:1000 ~frames:64) 1003 2));
  (* Reserved blocks free like allocated ones (everything else is
     still held by the alloc loop above). *)
  Kernel_model.Buddy.free b 1008;
  check int "reserved block freed" 8 (Kernel_model.Buddy.free_frames b)

(* The ISSUE's acceptance criteria, asserted (the bench prints them). *)
let test_acceptance_ratios () =
  let host = mk_host ~mem_mib:512 () in
  let clock = Hw.Machine.clock (Cki.Host.machine host) in
  (* A realistically-sized init (512 dirty pages): the clone's fixed
     metadata footprint must be small relative to real state. *)
  let c0, cold_ns = Hw.Clock.timed clock (fun () -> boot_ready ~pages:512 host) in
  let tpl = template_exn c0 in
  let image = Snapshot.Template.image tpl in
  let restored, restore_ns = Hw.Clock.timed clock (fun () -> restore_exn host image) in
  let clone, clone_ns = Hw.Clock.timed clock (fun () -> clone_exn tpl) in
  check bool
    (Printf.sprintf "restore >= 10x faster than cold boot (%.0f vs %.0f ns)" restore_ns cold_ns)
    true
    (cold_ns >= 10.0 *. restore_ns);
  check bool
    (Printf.sprintf "clone >= 10x faster than cold boot (%.0f vs %.0f ns)" clone_ns cold_ns)
    true
    (cold_ns >= 10.0 *. clone_ns);
  let tpl_frames =
    Snapshot.Restore.materialized_frames (Snapshot.Template.container tpl)
  in
  let clone_frames = Snapshot.Restore.materialized_frames clone in
  check bool
    (Printf.sprintf "clone materializes < 25%% of template (%d vs %d frames)" clone_frames
       tpl_frames)
    true
    (float_of_int clone_frames < 0.25 *. float_of_int tpl_frames);
  check bool "restored container materializes the full image" true
    (Snapshot.Restore.materialized_frames restored >= tpl_frames);
  check int "all three clean" 0
    (List.length (Analysis.check_machine ~containers:[ c0; restored; clone ]))

(* Regression for the direct-map relocation bug: the direct map's VA
   layout keys on physical addresses, so a restored container must get
   one rebuilt from its *new* segment bases — otherwise the first
   post-restore PTP declaration retags the wrong direct-map leaf (or
   none at all) and leaves a guest-writable alias of a page-table page.
   600 fresh pages cross a 512-entry L1 boundary, forcing the guest
   kernel to declare a brand-new page-table page through the KSM. *)
let grow_fresh_ptp c =
  let b = Cki.Container.backend c in
  let task = first_task c in
  match
    Virt.Backend.syscall_exn b task
      (Kernel_model.Syscall.Mmap { pages = 600; prot = Kernel_model.Vma.prot_rw })
  with
  | Kernel_model.Syscall.Rint base ->
      ignore
        (Kernel_model.Mm.touch_range task.Kernel_model.Task.mm ~start:base ~pages:600 ~write:true)
  | _ -> fail "mmap"

let test_restored_ptp_declaration () =
  let host = mk_host ~mem_mib:512 () in
  let c0 = boot_ready host in
  let tpl = template_exn c0 in
  let image = Snapshot.Template.image tpl in
  let restored = restore_exn host image in
  grow_fresh_ptp restored;
  check int "restored container clean after fresh PTP" 0
    (List.length (Analysis.check_machine ~containers:[ restored ]));
  let clone = clone_exn tpl in
  grow_fresh_ptp clone;
  check int "clone clean after fresh PTP" 0
    (List.length (Analysis.check_machine ~containers:[ clone ]));
  (* Cross-machine: the segment lands at a different hPA, so a stale
     (relocated-but-not-rekeyed) direct map could not be correct. *)
  let host2 = mk_host ~mem_mib:512 () in
  ignore
    (Cki.Host.delegate_segment host2 ~container:(Cki.Host.fresh_container_id host2) ~frames:160);
  let restored2 = restore_exn host2 image in
  grow_fresh_ptp restored2;
  check int "cross-machine restore clean after fresh PTP" 0
    (List.length (Analysis.check_machine ~containers:[ restored2 ]));
  (* Template.freeze walks the direct map of the container it freezes:
     freezing a *restored* container exercises the rebuilt map end to
     end, and its clones must still be able to grow. *)
  let tpl2 = template_exn restored2 in
  let clone2 = clone_exn tpl2 in
  grow_fresh_ptp clone2;
  check int "clone of a restored-then-frozen template clean" 0
    (List.length (Analysis.check_machine ~containers:[ restored2; clone2 ]))

(* A restore and a clone re-derive which entry links each PTP: no
   imported table or root can be undeclared while it is in use. *)
let test_restored_ptps_in_use () =
  let host = mk_host ~mem_mib:512 () in
  let c0 = boot_ready host in
  let tpl = template_exn c0 in
  let restored = restore_exn host (Snapshot.Template.image tpl) in
  let clone = clone_exn tpl in
  List.iter
    (fun (label, c) ->
      let ksm = Cki.Container.ksm c in
      let ptps = Cki.Ksm.declared_ptps ksm in
      check bool (label ^ ": has tables below the roots") true
        (List.exists (fun (_, lvl) -> lvl < 4) ptps);
      List.iter
        (fun (pfn, _) ->
          match Cki.Ksm.undeclare_ptp ksm ~pfn with
          | Error (Cki.Ksm.Ptp_in_use _) -> ()
          | _ -> fail (Printf.sprintf "%s: in-use PTP %d undeclared" label pfn))
        ptps)
    [ ("restored", restored); ("clone", clone) ]

(* A frozen template's pages are read-only to the template itself: the
   hardware PTEs were downgraded, so the mm model must fault on writes
   too instead of silently mutating frames that live clones share. *)
let test_template_write_faults () =
  let host = mk_host () in
  let c0 = boot_ready host in
  let tpl = template_exn c0 in
  let mm = (first_task (Snapshot.Template.container tpl)).Kernel_model.Task.mm in
  let va = Kernel_model.Mm.user_mmap_base in
  check bool "resident pages are frozen" true
    (Kernel_model.Mm.frozen_count mm >= 64
    && Kernel_model.Mm.is_frozen mm (Hw.Addr.vpn_of_va va));
  (* Reads still work; writes fault like the downgraded PTE would. *)
  Kernel_model.Mm.touch mm va ~write:false;
  check_raises "template write faults" (Kernel_model.Mm.Segfault va) (fun () ->
      Kernel_model.Mm.touch mm va ~write:true);
  check_raises "mprotect-to-writable refused" (Kernel_model.Mm.Segfault va) (fun () ->
      Kernel_model.Mm.mprotect mm ~start:va ~pages:1 ~prot:Kernel_model.Vma.prot_rw)

(* A restore that fails verification must roll back completely: no
   leaked frames, no inflated template refcounts — a host that keeps
   receiving bad images must not bleed memory. *)
let test_failed_restore_rollback () =
  let host = mk_host ~mem_mib:512 () in
  let c0 = boot_ready host in
  let mem = Hw.Machine.mem (Cki.Host.machine host) in
  let tpl = template_exn c0 in
  let image = Snapshot.Template.image tpl in
  let map = Snapshot.Template.map tpl in
  (* An image claiming no PTPs rebuilds into a container the scanner
     rejects: its page tables are all undeclared. *)
  let bad = { image with Snapshot.Image.ptps = [] } in
  let vpn0 = Hw.Addr.vpn_of_va Kernel_model.Mm.user_mmap_base in
  let shared = ref (-1) in
  Kernel_model.Mm.iter_pages (first_task c0).Kernel_model.Task.mm (fun v p ->
      if v = vpn0 then shared := p);
  let free0 = Hw.Phys_mem.free_frames mem in
  let rc0 = Hw.Phys_mem.refcount mem !shared in
  for _ = 1 to 3 do
    (match Snapshot.Restore.restore host bad with
    | Error (Snapshot.Restore.Verify_failed _) -> ()
    | Ok _ -> fail "restore of an image with no declared PTPs must fail verification"
    | Error e -> fail ("unexpected restore error: " ^ Snapshot.Restore.show_error e));
    match
      Snapshot.Restore.clone_of host bad ~orig_seg_bases:map.Snapshot.Capture.m_seg_bases
        ~orig_aux:map.Snapshot.Capture.m_aux
    with
    | Error (Snapshot.Restore.Verify_failed _) -> ()
    | Ok _ -> fail "clone of an image with no declared PTPs must fail verification"
    | Error e -> fail ("unexpected clone error: " ^ Snapshot.Restore.show_error e)
  done;
  check int "repeated failed restores leak no frames" free0 (Hw.Phys_mem.free_frames mem);
  check int "failed clones release template references" rc0 (Hw.Phys_mem.refcount mem !shared);
  (* The host is still healthy: a good restore succeeds afterwards. *)
  check int "subsequent good restore clean" 0
    (List.length (Analysis.check_machine ~containers:[ restore_exn host image ]))

(* Declared element counts are enforced: a root or per-vCPU line whose
   count disagrees with its actual list is malformed, even with a valid
   checksum. *)
let test_decode_count_mismatch () =
  let host = mk_host () in
  let image = capture_exn (boot_ready host) in
  let enc = Snapshot.Image.encode image in
  let tamper prefix f = reseal ~prefix f enc in
  let bump_count l =
    match String.split_on_char ' ' l with
    | tag :: frame :: n :: rest ->
        String.concat " " (tag :: frame :: string_of_int (int_of_string n + 1) :: rest)
    | _ -> fail ("unexpected line: " ^ l)
  in
  let expect_malformed name s =
    match Snapshot.Image.decode s with
    | Error (Snapshot.Image.Malformed _) -> ()
    | Error e -> fail (name ^ ": wrong error: " ^ Snapshot.Image.show_decode_error e)
    | Ok _ -> fail (name ^ ": mismatched count accepted")
  in
  expect_malformed "root copy count" (tamper "r " bump_count);
  expect_malformed "pervcpu frame count" (tamper "v " bump_count)

(* ------------------------------------------------------------------ *)
(* Decode accepts exactly what encode writes                           *)
(* ------------------------------------------------------------------ *)

let golden = lazy (In_channel.with_open_bin "fixtures/golden_v2.ckisnap" In_channel.input_all)

(* Re-seal any text the way anyone holding an image can: the line
   after the first is replaced by the checksum of everything after it. *)
let reseal_text s =
  match String.index_opt s '\n' with
  | None -> s
  | Some i -> (
      match String.index_from_opt s (i + 1) '\n' with
      | None -> s
      | Some j ->
          let payload = String.sub s (j + 1) (String.length s - j - 1) in
          Printf.sprintf "%schecksum %016Lx\n%s" (String.sub s 0 (i + 1))
            (Snapshot.Image.fnv1a64 payload) payload)

let decode_exn s =
  match Snapshot.Image.decode s with
  | Ok img -> img
  | Error e -> fail ("decode: " ^ Snapshot.Image.show_decode_error e)

let expect_error name want s =
  match Snapshot.Image.decode s with
  | Error e when e = want -> ()
  | Error e -> fail (name ^ ": wrong error: " ^ Snapshot.Image.show_decode_error e)
  | Ok _ -> fail (name ^ ": accepted")

(* [Malformed] whose message starts with [prefix]. *)
let expect_malformed_at name prefix s =
  match Snapshot.Image.decode s with
  | Error (Snapshot.Image.Malformed m) when String.starts_with ~prefix m -> ()
  | Error e -> fail (name ^ ": wrong error: " ^ Snapshot.Image.show_decode_error e)
  | Ok _ -> fail (name ^ ": accepted")

(* Texts encode never writes, each with a valid checksum. *)
let test_decode_only_canonical () =
  let g = Lazy.force golden in
  check string "the fixture re-encodes byte-identical" g (Snapshot.Image.encode (decode_exn g));
  let body = String.sub g 0 (String.length g - 1) in
  let last = List.hd (List.rev (String.split_on_char '\n' body)) in
  expect_malformed_at "a line after files" "line after the files" (reseal_text (g ^ "x 1\n"));
  expect_malformed_at "the last line twice" "line after the files" (reseal_text (g ^ last ^ "\n"));
  expect_error "no final newline" Snapshot.Image.Truncated (reseal_text body);
  expect_error "empty input" Snapshot.Image.Truncated "";
  expect_error "empty version word" Snapshot.Image.Bad_magic
    ("CKI-SNAPSHOT " ^ String.sub g 15 (String.length g - 15));
  expect_malformed_at "leading zero" "segments record"
    (reseal ~prefix:"segments " (fun _ -> "segments 01 16384") g);
  expect_malformed_at "aux index" "k record" (reseal ~prefix:"k 1 " (fun _ -> "k 2 pt4") g)

(* Every record of the format, its first line corrupted two ways (a
   leading zero, an extra word): decode refuses it by the record's
   name.  The fixture has no directory, so one is added. *)
let test_malformed_names_record () =
  let enc = Snapshot.Image.encode { (decode_exn (Lazy.force golden)) with dirs = [ "/etc" ] } in
  List.iter
    (fun tag ->
      let prefix = tag ^ " " in
      let at = String.length prefix in
      let zero l = String.sub l 0 at ^ "0" ^ String.sub l at (String.length l - at) in
      expect_malformed_at (tag ^ ": leading zero") (tag ^ " record") (reseal ~prefix zero enc);
      expect_malformed_at (tag ^ ": extra word") (tag ^ " record") (reseal ~prefix (fun l -> l ^ " 0") enc))
    [ "cfg"; "segments"; "aux"; "k"; "ptps"; "p"; "kernel_root"; "template"; "s"; "roots"; "r";
      "tables"; "t"; "e"; "pervcpu"; "v"; "cpus"; "c"; "kernel"; "buddy"; "b"; "aspaces"; "a";
      "tasks"; "task"; "m"; "g"; "f"; "dirs"; "d"; "files"; "F" ]

type mutation =
  | Insert of int * char
  | Delete of int
  | Replace of int * char
  | Drop_line of int
  | Dup_line of int

let show_mutation = function
  | Insert (i, c) -> Printf.sprintf "insert %C at %d" c i
  | Delete i -> Printf.sprintf "delete byte %d" i
  | Replace (i, c) -> Printf.sprintf "replace byte %d by %C" i c
  | Drop_line k -> Printf.sprintf "delete line %d" k
  | Dup_line k -> Printf.sprintf "duplicate line %d" k

let mutate s m =
  let n = String.length s in
  let on_lines f = String.concat "\n" (List.concat (List.mapi f (String.split_on_char '\n' s))) in
  match m with
  | Insert (i, c) -> String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)
  | Delete i -> String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
  | Replace (i, c) -> String.mapi (fun j d -> if j = i then c else d) s
  | Drop_line k -> on_lines (fun j l -> if j = k then [] else [ l ])
  | Dup_line k -> on_lines (fun j l -> if j = k then [ l; l ] else [ l ])

(* One re-sealed mutation of the fixture: decode never raises, and an
   image it accepts re-encodes to the same bytes. *)
let prop_decode_canonical =
  let g = Lazy.force golden in
  let n = String.length g and nlines = List.length (String.split_on_char '\n' g) in
  let gen =
    let open QCheck.Gen in
    let byte = oneof [ oneofl [ '0'; '1'; '9'; 'a'; 'f'; 'x'; 'A'; 'S'; '.'; '-'; '+'; '_'; ' '; '\n' ]; char ] in
    oneof
      [
        map2 (fun i c -> Insert (i, c)) (int_bound n) byte;
        map (fun i -> Delete i) (int_bound (n - 1));
        map2 (fun i c -> Replace (i, c)) (int_bound (n - 1)) byte;
        map (fun k -> Drop_line k) (int_bound (nlines - 1));
        map (fun k -> Dup_line k) (int_bound (nlines - 1));
      ]
  in
  QCheck.Test.make ~name:"decode accepts only what encode writes" ~count:400
    (QCheck.make ~print:show_mutation gen)
    (fun m ->
      let s = reseal_text (mutate g m) in
      match Snapshot.Image.decode s with
      | Ok img -> String.equal (Snapshot.Image.encode img) s
      | Error _ -> true)

(* The image does not choose vCPU privilege state.  Both probes re-seal
   a genuine image with one field of every vCPU record ("c kernel pkrs
   if gs kgs cr3") rewritten; the restore must refuse it by name and
   roll back without leaking a frame. *)
let expect_vcpu_refusal name rewrite =
  let host = mk_host ~mem_mib:512 () in
  let mem = Hw.Machine.mem (Cki.Host.machine host) in
  let enc = Snapshot.Image.encode (capture_exn (boot_ready host)) in
  let set_field k v l =
    String.concat " " (List.mapi (fun i f -> if i = k then v else f) (String.split_on_char ' ' l))
  in
  let forged =
    match Snapshot.Image.decode (reseal ~all:true ~prefix:"c " (rewrite set_field) enc) with
    | Ok image -> image
    | Error e -> fail (name ^ ": re-sealed image did not decode: " ^ Snapshot.Image.show_decode_error e)
  in
  let free0 = Hw.Phys_mem.free_frames mem in
  (match Snapshot.Restore.restore ~verify:true host forged with
  | Error (Snapshot.Restore.Untrusted_vcpu_state _) -> ()
  | Ok _ -> fail (name ^ ": forged vCPU state restored")
  | Error e -> fail (name ^ ": wrong error: " ^ Snapshot.Restore.show_error e));
  check int (name ^ ": refusal leaks no frames") free0 (Hw.Phys_mem.free_frames mem)

let test_forged_pkrs_refused () =
  expect_vcpu_refusal "PKRS 0" (fun set l ->
      check string "captured PKRS is the guest value" (string_of_int Hw.Pks.pkrs_guest)
        (List.nth (String.split_on_char ' ' l) 2);
      set 2 "0" l)

(* Aux frame 5 is a level-2 page table: a frame the KSM knows, but not
   a root. *)
let test_forged_cr3_refused () = expect_vcpu_refusal "CR3 at A5" (fun set l -> set 6 "A5" l)

(* ------------------------------------------------------------------ *)
(* Counted footprints against the owner-list sweeps they replaced      *)
(* ------------------------------------------------------------------ *)

let mem_of (c : Cki.Container.t) = Hw.Machine.mem (Cki.Host.machine c.Cki.Container.host)
let owners (c : Cki.Container.t) =
  [ Hw.Phys_mem.Container c.Cki.Container.container_id; Hw.Phys_mem.Ksm c.Cki.Container.container_id ]

(* The oracles: [materialized_frames] and [has_live_clones] as sweeps
   of the container's owner lists. *)
let swept_materialized (c : Cki.Container.t) =
  let mem = mem_of c in
  let id = c.Cki.Container.container_id in
  let meta = ref (Hw.Phys_mem.owned_count mem (Hw.Phys_mem.Ksm id)) in
  Hw.Phys_mem.iter_owned mem (Hw.Phys_mem.Container id) (fun pfn ->
      match Hw.Phys_mem.kind mem pfn with
      | Hw.Phys_mem.Page_table _ | Hw.Phys_mem.Kernel_code -> incr meta
      | _ -> ());
  List.fold_left
    (fun acc (task : Kernel_model.Task.t) ->
      let mm = task.Kernel_model.Task.mm in
      acc + Kernel_model.Mm.resident_pages mm - Kernel_model.Mm.cow_count mm)
    !meta
    (Kernel_model.Kernel.tasks c.Cki.Container.backend.Virt.Backend.kernel)

let swept_live_clones (c : Cki.Container.t) =
  let mem = mem_of c in
  let live = ref false in
  List.iter
    (fun o ->
      Hw.Phys_mem.iter_owned mem o (fun pfn ->
          if Hw.Phys_mem.is_shared_ro mem pfn && Hw.Phys_mem.refcount mem pfn > 0 then live := true))
    (owners c);
  !live

(* Every shared frame [c] owns, with its refcount. *)
let shared_refs (c : Cki.Container.t) =
  let mem = mem_of c in
  let l = ref [] in
  List.iter
    (fun o ->
      Hw.Phys_mem.iter_owned mem o (fun pfn ->
          if Hw.Phys_mem.is_shared_ro mem pfn then l := (pfn, Hw.Phys_mem.refcount mem pfn) :: !l))
    (owners c);
  List.sort compare !l

let break_cow (c : Cki.Container.t) pages =
  let mm = (first_task c).Kernel_model.Task.mm in
  for i = 0 to pages - 1 do
    Kernel_model.Mm.touch mm (Kernel_model.Mm.user_mmap_base + (i * Hw.Addr.page_size)) ~write:true
  done

let test_counts_match_sweeps () =
  let host = mk_host ~mem_mib:512 () in
  let agree name c =
    check int (name ^ ": materialized_frames") (swept_materialized c)
      (Snapshot.Restore.materialized_frames c);
    check bool (name ^ ": has_live_clones") (swept_live_clones c) (Cki.Container.has_live_clones c)
  in
  let fresh = boot_ready host in
  agree "fresh" fresh;
  agree "restored" (restore_exn host (capture_exn fresh));
  let forked = boot_ready host in
  let b = Cki.Container.backend forked in
  (match Virt.Backend.syscall_exn b (first_task forked) Kernel_model.Syscall.Fork with
  | Kernel_model.Syscall.Rint _ -> ()
  | _ -> fail "fork");
  check int "forked: two tasks" 2
    (List.length (Kernel_model.Kernel.tasks b.Virt.Backend.kernel));
  agree "forked" forked;
  let tpl = template_exn (boot_ready host) in
  let tc = Snapshot.Template.container tpl in
  agree "template" tc;
  let clone = clone_exn tpl in
  agree "warm clone" clone;
  agree "template with a clone" tc;
  check bool "a clone keeps its template in use" true (Cki.Container.has_live_clones tc);
  break_cow clone 8;
  agree "warm clone after CoW breaks" clone;
  agree "template after CoW breaks" tc;
  Cki.Container.destroy clone;
  agree "template after its clone is gone" tc;
  check bool "no clone, no use" false (Cki.Container.has_live_clones tc)

(* Destroying a warm clone gives back every reference it took, whether
   its pages are still shared or were copied by a CoW break. *)
let test_clone_destroy_restores_refcounts () =
  let host = mk_host () in
  let tpl = template_exn (boot_ready host) in
  let tc = Snapshot.Template.container tpl in
  let before = shared_refs tc in
  check bool "the template shares frames" true (before <> []);
  let clone = clone_exn tpl in
  check bool "the clone took references" true (shared_refs tc <> before);
  break_cow clone 8;
  Cki.Container.destroy clone;
  check (list (pair int int)) "every template frame's refcount is back" before (shared_refs tc)

(* ------------------------------------------------------------------ *)
(* The cki_demo snapshot and restore scenarios lint gate traffic       *)
(* ------------------------------------------------------------------ *)

(* cki_demo's [fsync_config]: /app.conf flushed through an I/O plane. *)
let fsync_config (c : Cki.Container.t) =
  let b = Cki.Container.backend c in
  let kernel = b.Virt.Backend.kernel in
  let loop = Ioplane.Loop.create b.Virt.Backend.clock in
  let att = Ioplane.Loop.attach loop kernel ~name:"app" in
  let task = first_task c in
  (match
     Virt.Backend.syscall_exn b task (Kernel_model.Syscall.Open { path = "/app.conf"; create = false })
   with
  | Kernel_model.Syscall.Rint fd ->
      ignore (Virt.Backend.syscall_exn b task (Kernel_model.Syscall.Fsync fd));
      ignore (Virt.Backend.syscall_exn b task (Kernel_model.Syscall.Close fd))
  | _ -> fail "open");
  ignore (Ioplane.Loop.service loop att);
  Ioplane.Loop.detach loop att

(* A gate entered and then left on the same CPU. *)
let rec gate_pair open_ = function
  | [] -> false
  | Hw.Probe.Gate_enter { cpu; gate; _ } :: rest -> gate_pair ((cpu, gate) :: open_) rest
  | Hw.Probe.Gate_exit { cpu; gate; _ } :: rest -> List.mem (cpu, gate) open_ || gate_pair open_ rest
  | _ :: rest -> gate_pair open_ rest

(* Each scenario runs once under Analysis.run, as `--check` runs it,
   and once more (it is deterministic) under a list sink, which shows
   the sample the lint saw. *)
let test_demo_scenarios_lint_gates () =
  let snapshot () =
    let c = Cki.Container.create_standalone ~mem_mib:256 () in
    Test_engine.init_workload c;
    fsync_config c;
    (capture_exn c, [ c ])
  in
  let restore image () =
    let c = restore_exn (mk_host ()) image in
    fsync_config c;
    ((), [ c ])
  in
  let sample name scenario =
    let x, r = Analysis.run scenario in
    check bool (name ^ ": clean") true (Analysis.is_clean r);
    let events = ref [] in
    Hw.Probe.set_sink (fun ev -> events := ev :: !events);
    ignore (Fun.protect ~finally:Hw.Probe.clear_sink scenario);
    let events = List.rev !events in
    check int (name ^ ": the same sample") r.Analysis.linted (List.length events);
    check bool (name ^ ": a gate entered and left") true (gate_pair [] events);
    x
  in
  let image = sample "snapshot" snapshot in
  sample "restore" (restore image)

(* A table is charged once all its entries are read.  A foreign entry
   in the kernel root, the first table captured, stops the capture
   before any table is done: none is charged.  Taken away, the capture
   charges every table of the image. *)
let test_failed_capture_charges_read_tables () =
  let host = mk_host () in
  let c = boot_ready host in
  let machine = Cki.Host.machine host in
  let mem = Hw.Machine.mem machine and clock = Hw.Machine.clock machine in
  let charged () = Hw.Clock.occurrences clock "snapshot_capture_table" in
  let kroot = Cki.Ksm.kernel_root (Cki.Container.ksm c) in
  let slot =
    let rec free i = if Hw.Pte.is_present (Hw.Phys_mem.read_entry mem ~pfn:kroot ~index:i) then free (i + 1) else i in
    free 0
  in
  let foreign = Hw.Phys_mem.alloc mem ~owner:Hw.Phys_mem.Host ~kind:Hw.Phys_mem.Data in
  Hw.Phys_mem.write_entry mem ~pfn:kroot ~index:slot (Hw.Pte.make ~pfn:foreign ~flags:Hw.Pte.default_flags);
  let before = charged () in
  (match Snapshot.Capture.capture c with
  | Error (Snapshot.Capture.Foreign_frame pfn) -> check int "the foreign frame is named" foreign pfn
  | Error e -> fail ("wrong capture error: " ^ Snapshot.Capture.show_error e)
  | Ok _ -> fail "capture through a foreign frame succeeded");
  check int "no table charged" before (charged ());
  Hw.Phys_mem.write_entry mem ~pfn:kroot ~index:slot Hw.Pte.empty;
  Hw.Phys_mem.free mem foreign;
  let image = capture_exn c in
  check int "every table charged" (before + List.length image.Snapshot.Image.tables) (charged ())

let suite =
  [
    ( "snapshot",
      [
        test_case "capture-restore-capture is byte-identical" `Quick test_roundtrip_byte_identical;
        test_case "clone-then-write CoW divergence" `Quick test_clone_cow_divergence;
        test_case "cross-machine restore relocates hPAs" `Quick test_cross_machine_restore;
        test_case "corrupted images are rejected" `Quick test_corrupted_image_rejected;
        test_case "forged writable CoW mapping is flagged" `Quick test_cow_writable_detected;
        test_case "warm pool pre-boots and rotates" `Quick test_warm_pool_counts;
        test_case "buddy reserve replays allocations" `Quick test_buddy_reserve;
        test_case "acceptance: speedups and memory ratio" `Quick test_acceptance_ratios;
        test_case "post-restore PTP declaration hits the rebuilt direct map" `Quick
          test_restored_ptp_declaration;
        test_case "frozen template writes fault" `Quick test_template_write_faults;
        test_case "failed restores roll back cleanly" `Quick test_failed_restore_rollback;
        test_case "declared counts are enforced in decode" `Quick test_decode_count_mismatch;
        test_case "re-sealed PKRS 0 is refused" `Quick test_forged_pkrs_refused;
        test_case "re-sealed CR3 at a PTP is refused" `Quick test_forged_cr3_refused;
        test_case "restored and cloned PTPs stay in use" `Quick test_restored_ptps_in_use;
        test_case "unreachable owned frame is named" `Quick test_unreachable_frame;
        test_case "counted footprints match the owner sweeps" `Quick test_counts_match_sweeps;
        test_case "destroying a warm clone returns its references" `Quick
          test_clone_destroy_restores_refcounts;
        test_case "demo snapshot and restore lint a gate pair" `Quick test_demo_scenarios_lint_gates;
        test_case "decode refuses text encode never writes" `Quick test_decode_only_canonical;
        test_case "a malformed record is named" `Quick test_malformed_names_record;
        QCheck_alcotest.to_alcotest prop_decode_canonical;
        test_case "a failed capture charges only the tables it read" `Quick
          test_failed_capture_charges_read_tables;
      ] );
  ]
