(* Analysis-subsystem tests.

   Two families:
     - fault injection: corrupt live machine state behind the KSM's
       back (raw Hw.Phys_mem writes, TLB desync) or synthesize probe
       event sequences the hardware extensions would normally prevent,
       then assert the matching scanner/lint rule fires;
     - clean runs: boot + workload + gate traffic must scan and lint
       to zero findings. *)

open Alcotest

let check_bool = check bool

let mk ?(mem_mib = 160) () = Cki.Container.create_standalone ~mem_mib ()
let mem_of (c : Cki.Container.t) = Hw.Machine.mem (Cki.Host.machine c.Cki.Container.host)
let scan c = Analysis.check_machine ~containers:[ c ]
let has rule vs = List.exists (fun v -> Analysis.Invariants.rule_name v = rule) vs
let lint_has rule fs = List.exists (fun f -> Analysis.Lint.rule_name f = rule) fs

(* Run [f] with a list sink installed; return its result and the
   events it emitted, oldest first. *)
let with_trace f =
  let events = ref [] in
  Hw.Probe.set_sink (fun ev -> events := ev :: !events);
  let x = Fun.protect ~finally:Hw.Probe.clear_sink f in
  (x, List.rev !events)

let fires name rule vs =
  check_bool (Printf.sprintf "%s: %s fires" name rule) true (has rule vs)

(* Raw leaf-slot lookup (own walk, no KSM involvement): the L1 table
   frame and index holding [va]'s leaf under the kernel root. *)
let leaf_slot c va =
  let mem = mem_of c in
  let rec go lvl table =
    let idx = Hw.Addr.index_at_level ~lvl va in
    if lvl = 1 then (table, idx)
    else go (lvl - 1) (Hw.Pte.pfn (Hw.Phys_mem.read_entry mem ~pfn:table ~index:idx))
  in
  go 4 (Cki.Ksm.kernel_root (Cki.Container.ksm c))

(* Install a user page at [va] through the legitimate KSM path. *)
let map_user ?(user = true) ?(writable = true) c ~va =
  let ksm = Cki.Container.ksm c in
  let buddy = Cki.Container.buddy c in
  let pfn = Kernel_model.Buddy.alloc buddy in
  match
    Cki.Ksm.guest_map ksm ~root:(Cki.Ksm.kernel_root ksm) ~va ~pfn
      ~flags:{ Hw.Pte.default_flags with writable; user; nx = true }
      ~alloc_ptp:(fun () -> Kernel_model.Buddy.alloc buddy)
  with
  | Ok () -> pfn
  | Error e -> fail (Cki.Ksm.show_error e)

let raw_write c ~pfn ~index v = Hw.Phys_mem.write_entry (mem_of c) ~pfn ~index v

(* ------------------------------------------------------------------ *)
(* Clean runs                                                          *)
(* ------------------------------------------------------------------ *)

let test_clean_boot () =
  let c = mk () in
  check int "fresh boot scans clean" 0 (List.length (scan c))

let test_clean_scenario () =
  (* Boot + syscalls + faults + munmap + hypercall + interrupt under a
     recorder: machine scan and trace lint both come back empty. *)
  Analysis.checked ~label:"clean-scenario" (fun () ->
      let c = mk () in
      let b = Cki.Container.backend c in
      let task = Virt.Backend.spawn b in
      (match Virt.Backend.syscall_exn b task Kernel_model.Syscall.Getpid with
      | Kernel_model.Syscall.Rint _ -> ()
      | _ -> fail "getpid");
      let base =
        match
          Virt.Backend.syscall_exn b task
            (Kernel_model.Syscall.Mmap { pages = 16; prot = Kernel_model.Vma.prot_rw })
        with
        | Kernel_model.Syscall.Rint v -> v
        | _ -> fail "mmap"
      in
      ignore (Kernel_model.Mm.touch_range task.Kernel_model.Task.mm ~start:base ~pages:16 ~write:true);
      Kernel_model.Mm.munmap task.Kernel_model.Task.mm ~start:base ~pages:16;
      b.Virt.Backend.empty_hypercall ();
      let gates = Cki.Container.gates c in
      let cpu = Cki.Container.cpu c 0 in
      (match
         Cki.Gates.interrupt gates cpu ~vcpu:0 ~vector:Hw.Idt.vec_timer ~kind:Hw.Idt.Hardware
           (fun _ -> ())
       with
      | Ok () -> ()
      | Error e -> fail (Cki.Gates.show_error e));
      ((), [ c ]))

let test_clean_gate_traffic () =
  (* Interleaved gate traffic produces a lint-clean trace. *)
  let c, trace =
    with_trace (fun () ->
        let c = mk () in
        let gates = Cki.Container.gates c in
        let cpu = Cki.Container.cpu c 0 in
        for i = 1 to 300 do
          match i mod 3 with
          | 0 -> (
              match Cki.Gates.ksm_call gates cpu ~vcpu:0 (fun () -> ()) with
              | Ok () -> ()
              | Error e -> fail (Cki.Gates.show_error e))
          | 1 -> (
              match
                Cki.Gates.hypercall gates cpu ~vcpu:0 ~request:Kernel_model.Platform.Timer
                  (fun _ -> ())
              with
              | Ok () -> ()
              | Error e -> fail (Cki.Gates.show_error e))
          | _ -> (
              match
                Cki.Gates.interrupt gates cpu ~vcpu:0 ~vector:Hw.Idt.vec_timer
                  ~kind:Hw.Idt.Hardware (fun _ -> ())
              with
              | Ok () -> ()
              | Error e -> fail (Cki.Gates.show_error e))
        done;
        c)
  in
  check int "trace lints clean" 0 (List.length (Analysis.Lint.run trace));
  check int "machine scans clean" 0 (List.length (scan c))

let test_attacks_leave_clean_state () =
  (* Every blocked escape attempt leaves no residue the scanner
     objects to. *)
  let c = mk ~mem_mib:256 () in
  List.iter
    (fun (name, outcome) ->
      match outcome with
      | Cki.Attacks.Blocked _ -> ()
      | Cki.Attacks.Succeeded -> fail (name ^ " escaped"))
    (Cki.Attacks.all c);
  check int "post-attack scan clean" 0 (List.length (scan c))

(* ------------------------------------------------------------------ *)
(* Scanner fault injection                                             *)
(* ------------------------------------------------------------------ *)

let test_undeclared_ptp () =
  let c = mk () in
  let rogue = Kernel_model.Buddy.alloc (Cki.Container.buddy c) in
  let root = Cki.Ksm.kernel_root (Cki.Container.ksm c) in
  (* splice an undeclared guest frame in as an L3 table *)
  raw_write c ~pfn:root ~index:5
    (Hw.Pte.make ~pfn:rogue ~flags:{ Hw.Pte.default_flags with writable = true });
  fires "corrupt root entry" "I1-undeclared-ptp" (scan c)

let test_guest_writable_ptp () =
  let c = mk () in
  let buddy = Cki.Container.buddy c in
  let ksm = Cki.Container.ksm c in
  let ptp = Kernel_model.Buddy.alloc buddy in
  (match Cki.Ksm.declare_ptp ksm ~pfn:ptp ~level:1 with
  | Ok () -> ()
  | Error e -> fail (Cki.Ksm.show_error e));
  (* undo the I2 re-tag behind the monitor's back: the guest's
     direct-map view becomes writable again *)
  let va = Cki.Layout.direct_va_of_pa (Hw.Addr.pa_of_pfn ptp) in
  let table, idx = leaf_slot c va in
  let e = Hw.Phys_mem.read_entry (mem_of c) ~pfn:table ~index:idx in
  raw_write c ~pfn:table ~index:idx (Hw.Pte.with_pkey e Hw.Pks.pkey_guest);
  fires "direct-map retag undone" "I2-writable-ptp" (scan c)

let test_maps_declared_ptp () =
  let c = mk () in
  let buddy = Cki.Container.buddy c in
  let ksm = Cki.Container.ksm c in
  let ptp = Kernel_model.Buddy.alloc buddy in
  (match Cki.Ksm.declare_ptp ksm ~pfn:ptp ~level:1 with
  | Ok () -> ()
  | Error e -> fail (Cki.Ksm.show_error e));
  (* a read-only alias outside the pkey_ptp view *)
  let va = Cki.Layout.direct_va_of_pa (Hw.Addr.pa_of_pfn ptp) in
  let table, idx = leaf_slot c va in
  let e = Hw.Phys_mem.read_entry (mem_of c) ~pfn:table ~index:idx in
  raw_write c ~pfn:table ~index:idx
    (Hw.Pte.with_pkey (Hw.Pte.with_writable e false) Hw.Pks.pkey_guest);
  fires "read-only alias of PTP" "I2-maps-ptp" (scan c)

let test_targets_monitor () =
  let c = mk () in
  let va = 0x4000_0000 in
  ignore (map_user c ~va);
  let table, idx = leaf_slot c va in
  (* redirect the leaf at KSM-owned memory (the root table itself) *)
  raw_write c ~pfn:table ~index:idx
    (Hw.Pte.make
       ~pfn:(Cki.Ksm.kernel_root (Cki.Container.ksm c))
       ~flags:{ Hw.Pte.default_flags with writable = true; nx = true });
  fires "leaf targets monitor memory" "pte-targets-monitor" (scan c)

let test_outside_delegation () =
  let c = mk () in
  let mem = mem_of c in
  let va = 0x4000_0000 in
  ignore (map_user c ~va);
  (* find a frame outside the delegation (free, or host-owned) *)
  let total = Hw.Phys_mem.total_frames mem in
  let rec find_free pfn =
    if pfn >= total then fail "no free frame"
    else if Hw.Phys_mem.is_free mem pfn then pfn
    else find_free (pfn + 1)
  in
  let foreign = find_free 0 in
  let table, idx = leaf_slot c va in
  raw_write c ~pfn:table ~index:idx
    (Hw.Pte.make ~pfn:foreign ~flags:{ Hw.Pte.default_flags with writable = true; nx = true });
  fires "leaf escapes the delegated segment" "pte-outside-delegation" (scan c)

let test_kernel_exec_leaf () =
  let c = mk () in
  let va = 0x4000_0000 in
  let pfn = map_user c ~va in
  let table, idx = leaf_slot c va in
  (* flip to a kernel-executable mapping after the freeze *)
  raw_write c ~pfn:table ~index:idx
    (Hw.Pte.make ~pfn ~flags:{ Hw.Pte.default_flags with writable = false; user = false; nx = false });
  fires "new kernel-executable mapping" "kernel-exec-leaf" (scan c)

let test_wx_leaf () =
  let c = mk () in
  let va = 0x4000_0000 in
  let pfn = map_user c ~va in
  let table, idx = leaf_slot c va in
  raw_write c ~pfn:table ~index:idx
    (Hw.Pte.make ~pfn ~flags:{ Hw.Pte.default_flags with writable = true; user = true; nx = false });
  fires "writable+executable leaf" "wx-leaf" (scan c)

let test_missing_splice () =
  let c = mk () in
  let ksm = Cki.Container.ksm c in
  let root = Cki.Ksm.kernel_root ksm in
  let copies = Option.get (Cki.Ksm.root_copies ksm root) in
  (* drop the KSM region from one per-vCPU copy: gate code would no
     longer be mapped on that vCPU *)
  raw_write c ~pfn:copies.(0) ~index:Cki.Layout.l4_ksm Hw.Pte.empty;
  fires "copy lost the KSM splice" "I3-missing-splice" (scan c)

let test_missing_pervcpu_splice () =
  let c = mk () in
  let ksm = Cki.Container.ksm c in
  let copies = Option.get (Cki.Ksm.root_copies ksm (Cki.Ksm.kernel_root ksm)) in
  raw_write c ~pfn:copies.(0) ~index:Cki.Layout.l4_pervcpu Hw.Pte.empty;
  fires "copy lost the per-vCPU splice" "I3-missing-splice" (scan c)

let test_copy_divergence () =
  let c = mk () in
  let ksm = Cki.Container.ksm c in
  let va = 0x4000_0000 in
  ignore (map_user c ~va);
  let copies = Option.get (Cki.Ksm.root_copies ksm (Cki.Ksm.kernel_root ksm)) in
  (* clear the propagated user-range slot in one copy only *)
  raw_write c ~pfn:copies.(0) ~index:(Hw.Addr.index_at_level ~lvl:4 va) Hw.Pte.empty;
  fires "copy user slot diverged" "I3-copy-divergence" (scan c)

let test_ptp_level_mismatch () =
  let c = mk () in
  let ksm = Cki.Container.ksm c in
  let va = 0x4000_0000 in
  ignore (map_user c ~va);
  (* the L1 PTP of that mapping, wired in as an L3 table elsewhere *)
  let l1, _ = leaf_slot c va in
  raw_write c ~pfn:(Cki.Ksm.kernel_root ksm) ~index:7
    (Hw.Pte.make ~pfn:l1 ~flags:{ Hw.Pte.default_flags with writable = true });
  fires "declared PTP used at the wrong level" "I1-level-mismatch" (scan c)

let test_ptp_kind_mismatch () =
  let c = mk () in
  let ksm = Cki.Container.ksm c in
  let buddy = Cki.Container.buddy c in
  let ptp = Kernel_model.Buddy.alloc buddy in
  (match Cki.Ksm.declare_ptp ksm ~pfn:ptp ~level:2 with
  | Ok () -> ()
  | Error e -> fail (Cki.Ksm.show_error e));
  (* frame metadata contradicts the declaration *)
  Hw.Phys_mem.set_kind (mem_of c) ptp Hw.Phys_mem.Data;
  fires "declared PTP with data kind" "I1-kind-mismatch" (scan c)

let test_segment_owner () =
  let c = mk () in
  let base, _ = List.hd (Cki.Ksm.segments (Cki.Container.ksm c)) in
  Hw.Phys_mem.set_owner (mem_of c) base Hw.Phys_mem.Host;
  fires "delegated frame re-owned" "segment-owner" (scan c)

let test_stale_tlb () =
  let c = mk () in
  let ksm = Cki.Container.ksm c in
  let va = 0x4000_0000 in
  ignore (map_user c ~va);
  let cpu = Cki.Container.cpu c 0 in
  let pt = Hw.Page_table.of_root (mem_of c) cpu.Hw.Cpu.cr3 in
  (match Hw.Cpu.access cpu pt ~va ~access_kind:Hw.Pks.Read () with
  | Ok _ -> ()
  | Error f -> fail (Hw.Cpu.show_fault f));
  (* unmap through the KSM but "forget" the TLB shootdown *)
  (match Cki.Ksm.guest_unmap ksm ~root:(Cki.Ksm.kernel_root ksm) ~va with
  | Ok () -> ()
  | Error e -> fail (Cki.Ksm.show_error e));
  fires "cached translation survived unmap" "stale-tlb" (scan c);
  (* the shootdown clears the finding *)
  Hw.Cpu.exec_priv_exn cpu (Hw.Priv.Invlpg va);
  check_bool "invlpg resolves it" false (has "stale-tlb" (scan c))

(* A cr3 that is no declared root is rewalked only by the stale-TLB
   rule, so that walk must check every table on the path: a cached
   translation derived only through a data frame linked as the L3
   table is stale. *)
let test_stale_tlb_through_data_frame () =
  let c = mk () in
  let mem = mem_of c in
  let ksm = Cki.Container.ksm c in
  let va = 0x4000_0000 in
  let pfn = map_user c ~va in
  let cpu = Cki.Container.cpu c 0 in
  let pt = Hw.Page_table.of_root mem cpu.Hw.Cpu.cr3 in
  (match Hw.Cpu.access cpu pt ~va ~access_kind:Hw.Pks.Read () with
  | Ok _ -> ()
  | Error f -> fail (Hw.Cpu.show_fault f));
  (match Cki.Ksm.guest_unmap ksm ~root:(Cki.Ksm.kernel_root ksm) ~va with
  | Ok () -> ()
  | Error e -> fail (Cki.Ksm.show_error e));
  let frame kind = Hw.Phys_mem.alloc mem ~owner:Hw.Phys_mem.Host ~kind in
  let root = frame (Hw.Phys_mem.Page_table 4) and l3 = frame Hw.Phys_mem.Data in
  let l2 = frame (Hw.Phys_mem.Page_table 2) and l1 = frame (Hw.Phys_mem.Page_table 1) in
  let link ~lvl table target flags =
    Hw.Phys_mem.write_entry mem ~pfn:table ~index:(Hw.Addr.index_at_level ~lvl va)
      (Hw.Pte.make ~pfn:target ~flags:{ Hw.Pte.default_flags with writable = true; user = true; nx = flags })
  in
  link ~lvl:4 root l3 false;
  link ~lvl:3 l3 l2 false;
  link ~lvl:2 l2 l1 false;
  link ~lvl:1 l1 pfn true;
  cpu.Hw.Cpu.cr3 <- root;
  fires "translation derived through a data frame" "stale-tlb" (scan c);
  Hw.Phys_mem.set_kind mem l3 (Hw.Phys_mem.Page_table 3);
  check_bool "the same path through tables derives it" false (has "stale-tlb" (scan c))

(* ------------------------------------------------------------------ *)
(* The direct map by runs against the per-leaf walk                   *)
(* ------------------------------------------------------------------ *)

(* Corruptions of a container's direct map and of the frames under it.
   Frames are picked by offset into the delegation. *)
type dm_corruption =
  | Flip of int * [ `Writable | `Nx | `Pkey ]  (** toggle one bit field of a leaf *)
  | Clear of int  (** clear a leaf *)
  | Point of int * [ `Ksm | `Host | `Foreign | `Shared ]  (** aim a leaf elsewhere *)
  | Undo_retag of int  (** a declared PTP's leaf back to pkey_guest *)
  | Reown of int * [ `Host | `Foreign ]  (** re-own a segment frame *)
  | Share of int  (** mark a segment frame CoW-shared *)
  | Declare_unretagged  (** declare a PTP, then undo its retag *)
  | Beyond of int * [ `Below | `Above ]
      (** a canonical leaf over a frame just outside the delegation, in
          the direct-map table at the segment's edge *)

let show_dm_corruption = function
  | Flip (k, f) ->
      Printf.sprintf "Flip (%d, %s)" k (match f with `Writable -> "writable" | `Nx -> "nx" | `Pkey -> "pkey")
  | Clear k -> Printf.sprintf "Clear %d" k
  | Point (k, t) ->
      Printf.sprintf "Point (%d, %s)" k
        (match t with `Ksm -> "ksm" | `Host -> "host" | `Foreign -> "foreign" | `Shared -> "shared")
  | Undo_retag i -> Printf.sprintf "Undo_retag %d" i
  | Reown (k, o) -> Printf.sprintf "Reown (%d, %s)" k (match o with `Host -> "host" | `Foreign -> "foreign")
  | Share k -> Printf.sprintf "Share %d" k
  | Declare_unretagged -> "Declare_unretagged"
  | Beyond (k, side) -> Printf.sprintf "Beyond (%d, %s)" k (match side with `Below -> "below" | `Above -> "above")

(* The corruptions after which the per-leaf walk must report something. *)
let must_fire = function
  | Point _ | Undo_retag _ | Reown _ | Share _ | Declare_unretagged -> true
  | Flip _ | Clear _ | Beyond _ -> false

let dm_corruption =
  let open QCheck.Gen in
  (* Offsets near both ends of the delegation reach the partly covered
     tables at a segment's edges. *)
  let off = oneof [ int_bound 600; int_bound 8191; map (fun k -> 8191 - k) (int_bound 600) ] in
  oneof
    [
      map2 (fun k f -> Flip (k, f)) off (oneofl [ `Writable; `Nx; `Pkey ]);
      map (fun k -> Clear k) off;
      map2 (fun k t -> Point (k, t)) off (oneofl [ `Ksm; `Host; `Foreign; `Shared ]);
      map (fun i -> Undo_retag i) nat;
      map2 (fun k o -> Reown (k, o)) off (oneofl [ `Host; `Foreign ]);
      map (fun k -> Share k) off;
      return Declare_unretagged;
      map2 (fun k side -> Beyond (k, side)) nat (oneofl [ `Below; `Above ]);
    ]

(* A container with a mapped heap (so it has declared PTPs) beside
   another container on the same host; with [restored], the first is a
   copy restored onto a host that already runs the other. *)
let dm_setup ~restored =
  let cfg = { Cki.Config.default with Cki.Config.segment_frames = 8192 } in
  let boot host =
    let c = Cki.Container.create ~cfg host in
    let b = Cki.Container.backend c in
    let task = Virt.Backend.spawn b in
    (match
       Virt.Backend.syscall_exn b task
         (Kernel_model.Syscall.Mmap { pages = 64; prot = Kernel_model.Vma.prot_rw })
     with
    | Kernel_model.Syscall.Rint base ->
        ignore (Kernel_model.Mm.touch_range task.Kernel_model.Task.mm ~start:base ~pages:64 ~write:true)
    | _ -> fail "mmap");
    c
  in
  let host () = Cki.Host.create (Hw.Machine.create ~mem_mib:128 ()) in
  let h = host () in
  let c = boot h in
  if not restored then (c, Cki.Container.create ~cfg h)
  else
    let image =
      match Snapshot.Capture.capture c with
      | Ok i -> i
      | Error e -> fail (Snapshot.Capture.show_error e)
    in
    let h' = host () in
    let other = Cki.Container.create ~cfg h' in
    match Snapshot.Restore.restore h' image with
    | Ok c' -> (c', other)
    | Error e -> fail (Snapshot.Restore.show_error e)

let corrupt c other op =
  let mem = mem_of c in
  let ksm = Cki.Container.ksm c in
  let base, frames = List.hd (Cki.Ksm.segments ksm) in
  let frame k = base + (k mod frames) in
  let leaf pfn = leaf_slot c (Cki.Layout.direct_va_of_pa (Hw.Addr.pa_of_pfn pfn)) in
  let rewrite pfn f =
    let table, idx = leaf pfn in
    raw_write c ~pfn:table ~index:idx (f (Hw.Phys_mem.read_entry mem ~pfn:table ~index:idx))
  in
  let foreign () = fst (List.hd (Cki.Ksm.segments (Cki.Container.ksm other))) in
  let unretag pfn = rewrite pfn (fun e -> Hw.Pte.with_pkey e Hw.Pks.pkey_guest) in
  match op with
  | Flip (k, field) ->
      rewrite (frame k) (fun e ->
          let fl = Hw.Pte.flags_of e in
          let fl =
            match field with
            | `Writable -> { fl with Hw.Pte.writable = not fl.Hw.Pte.writable }
            | `Nx -> { fl with Hw.Pte.nx = not fl.Hw.Pte.nx }
            | `Pkey ->
                let pkey = if fl.Hw.Pte.pkey = Hw.Pks.pkey_guest then Hw.Pks.pkey_ksm else Hw.Pks.pkey_guest in
                { fl with Hw.Pte.pkey }
          in
          Hw.Pte.make ~pfn:(Hw.Pte.pfn e) ~flags:fl)
  | Clear k -> rewrite (frame k) (fun _ -> Hw.Pte.empty)
  | Point (k, target) ->
      let pfn =
        match target with
        | `Ksm -> Cki.Ksm.kernel_root ksm
        | `Host -> Cki.Host.host_root c.Cki.Container.host
        | `Foreign -> foreign ()
        | `Shared ->
            let p = foreign () + 1 in
            Hw.Phys_mem.set_shared_ro mem p true;
            p
      in
      rewrite (frame k) (fun e -> Hw.Pte.make ~pfn ~flags:(Hw.Pte.flags_of e))
  | Undo_retag i ->
      let ptps = Cki.Ksm.declared_frames ksm in
      unretag ptps.(i mod Array.length ptps)
  | Reown (k, o) ->
      Hw.Phys_mem.set_owner mem (frame k)
        (match o with
        | `Host -> Hw.Phys_mem.Host
        | `Foreign -> Hw.Phys_mem.Container (Cki.Container.container_id other))
  | Share k -> Hw.Phys_mem.set_shared_ro mem (frame k) true
  | Declare_unretagged ->
      let pfn = Kernel_model.Buddy.alloc (Cki.Container.buddy c) in
      (match Cki.Ksm.declare_ptp ksm ~pfn ~level:1 with
      | Ok () -> ()
      | Error e -> fail (Cki.Ksm.show_error e));
      unretag pfn
  | Beyond (k, side) -> (
      (* The edge table's free indices; none when the edge is aligned. *)
      let n = Hw.Addr.entries_per_table in
      let room, pfn =
        match side with
        | `Below -> (base mod n, fun i -> base - 1 - i)
        | `Above -> ((n - ((base + frames) mod n)) mod n, fun i -> base + frames + i)
      in
      if room > 0 then
        let pfn = pfn (k mod room) in
        let table, idx = leaf pfn in
        raw_write c ~pfn:table ~index:idx
          (Hw.Pte.make ~pfn
             ~flags:
               { Hw.Pte.writable = true; user = false; nx = true; huge = false; pkey = Hw.Pks.pkey_guest }))

let violation = testable Analysis.Invariants.pp_violation Analysis.Invariants.equal_violation

(* The run-based direct-map check returns the per-leaf walk's findings,
   in its order, on fresh and restored containers after any mix of
   corruptions. *)
let prop_direct_map_by_runs =
  let arb =
    QCheck.make
      ~print:(fun (restored, ops) ->
        Printf.sprintf "restored=%b [%s]" restored (String.concat "; " (List.map show_dm_corruption ops)))
      QCheck.Gen.(pair bool (list_size (int_range 1 3) dm_corruption))
  in
  QCheck.Test.make ~name:"direct map by runs equals the per-leaf walk" ~count:60 arb
    (fun (restored, ops) ->
      let c, other = dm_setup ~restored in
      List.iter (corrupt c other) ops;
      let oracle = Analysis.Invariants.check_machine_per_leaf ~containers:[ c ] in
      let runs = Analysis.Invariants.check_machine ~containers:[ c ] in
      if not (List.equal Analysis.Invariants.equal_violation oracle runs) then
        QCheck.Test.fail_reportf "per-leaf:@.%a@.by runs:@.%a"
          Fmt.(list ~sep:cut Analysis.Invariants.pp_violation) oracle
          Fmt.(list ~sep:cut Analysis.Invariants.pp_violation) runs;
      (match ops with
      | [ op ] when must_fire op && oracle = [] -> QCheck.Test.fail_reportf "no finding"
      | _ -> ());
      true)

(* Clean fresh and restored containers: both walks find nothing. *)
let test_direct_map_clean () =
  List.iter
    (fun restored ->
      let c, _ = dm_setup ~restored in
      check (list violation) "per-leaf clean" [] (Analysis.Invariants.check_machine_per_leaf ~containers:[ c ]);
      check (list violation) "by runs clean" [] (scan c))
    [ false; true ]

(* ------------------------------------------------------------------ *)
(* Lint fault injection                                                *)
(* ------------------------------------------------------------------ *)

let guest = Hw.Pks.pkrs_guest

let test_lint_destructive_exec () =
  let fs =
    Analysis.Lint.run
      [
        Hw.Probe.Priv_exec
          { cpu = 0; mnemonic = "lidt"; destructive = true; pkrs = guest; blocked = false };
      ]
  in
  check_bool "unblocked destructive insn" true (lint_has "E2-destructive-exec" fs);
  let blocked =
    Analysis.Lint.run
      [
        Hw.Probe.Priv_exec
          { cpu = 0; mnemonic = "lidt"; destructive = true; pkrs = guest; blocked = true };
      ]
  in
  check int "blocked execution is fine" 0 (List.length blocked)

let test_lint_gate_pkrs_leak () =
  let fs =
    Analysis.Lint.run
      [
        Hw.Probe.Gate_enter { cpu = 0; gate = Hw.Probe.Ksm_call_gate; pkrs = guest };
        Hw.Probe.Gate_exit
          { cpu = 0; gate = Hw.Probe.Ksm_call_gate; entry_pkrs = guest; pkrs = 0 };
      ]
  in
  check_bool "gate exited with monitor rights" true (lint_has "gate-pkrs-leak" fs)

let test_lint_sysret_if_down () =
  let fs = Analysis.Lint.run [ Hw.Probe.Sysret { cpu = 0; pkrs = guest; if_after = false } ] in
  check_bool "sysret left IF off" true (lint_has "E3-sysret-if-down" fs);
  let ok = Analysis.Lint.run [ Hw.Probe.Sysret { cpu = 0; pkrs = guest; if_after = true } ] in
  check int "E3-pinned sysret is fine" 0 (List.length ok)

let test_lint_forged_pks_switch () =
  let fs =
    Analysis.Lint.run
      [
        Hw.Probe.Idt_deliver
          {
            cpu = 0;
            vector = 32;
            hardware = false;
            pks_switch = true;
            pkrs_before = guest;
            pkrs_after = 0;
          };
      ]
  in
  check_bool "software int zeroed PKRS" true (lint_has "E4-forged-pks-switch" fs);
  let fs2 =
    Analysis.Lint.run
      [
        Hw.Probe.Idt_deliver
          {
            cpu = 0;
            vector = 32;
            hardware = true;
            pks_switch = true;
            pkrs_before = guest;
            pkrs_after = guest;
          };
      ]
  in
  check_bool "hardware PKS switch failed to zero" true (lint_has "E4-forged-pks-switch" fs2)

let test_lint_wrpkrs_outside_gate () =
  let fs = Analysis.Lint.run [ Hw.Probe.Wrpkrs { cpu = 0; value = 0 } ] in
  check_bool "bare wrpkrs" true (lint_has "E1-wrpkrs-outside-gate" fs);
  let inside =
    Analysis.Lint.run
      [
        Hw.Probe.Gate_enter { cpu = 0; gate = Hw.Probe.Ksm_call_gate; pkrs = guest };
        Hw.Probe.Wrpkrs { cpu = 0; value = 0 };
        Hw.Probe.Wrpkrs { cpu = 0; value = guest };
        Hw.Probe.Gate_exit
          { cpu = 0; gate = Hw.Probe.Ksm_call_gate; entry_pkrs = guest; pkrs = guest };
      ]
  in
  check int "wrpkrs inside a gate is fine" 0 (List.length inside);
  (* The lint sees the whole trace: a later unmatched exit does not
     put an earlier wrpkrs inside a gate. *)
  let unmatched =
    Analysis.Lint.run
      [
        Hw.Probe.Wrpkrs { cpu = 0; value = guest };
        Hw.Probe.Gate_exit
          { cpu = 0; gate = Hw.Probe.Ksm_call_gate; entry_pkrs = guest; pkrs = guest };
      ]
  in
  check_bool "wrpkrs before an unmatched exit" true (lint_has "E1-wrpkrs-outside-gate" unmatched)

let test_lint_forged_completion () =
  (* A completion interrupt with nothing serviced: interrupt forgery
     (the legitimate host path never injects without publishing). *)
  let fs =
    Analysis.Lint.run
      [ Hw.Probe.Io_completion { queue = "cki1-net-tx"; used_idx = 3; serviced = 0 } ]
  in
  check_bool "completion with nothing serviced" true (lint_has "io-forged-completion" fs);
  (* used_idx replay: the index must strictly advance per completion. *)
  let fs2 =
    Analysis.Lint.run
      [
        Hw.Probe.Io_completion { queue = "q"; used_idx = 4; serviced = 2 };
        Hw.Probe.Io_completion { queue = "q"; used_idx = 4; serviced = 1 };
      ]
  in
  check_bool "replayed used_idx" true (lint_has "io-forged-completion" fs2);
  (* Distinct queues track distinct indexes. *)
  let fs3 =
    Analysis.Lint.run
      [
        Hw.Probe.Io_completion { queue = "a"; used_idx = 4; serviced = 4 };
        Hw.Probe.Io_completion { queue = "b"; used_idx = 2; serviced = 2 };
      ]
  in
  check int "per-queue index tracking" 0 (List.length fs3);
  (* Legitimate advancing completions are clean. *)
  let ok =
    Analysis.Lint.run
      [
        Hw.Probe.Io_completion { queue = "q"; used_idx = 2; serviced = 2 };
        Hw.Probe.Io_completion { queue = "q"; used_idx = 4; serviced = 2 };
      ]
  in
  check int "advancing completions are fine" 0 (List.length ok)

let test_lint_empty_doorbell () =
  (* A doorbell exit with an empty avail ring burns a host service
     pass for nothing — interrupt-storm shaped. *)
  let fs =
    Analysis.Lint.run [ Hw.Probe.Io_doorbell { queue = "q"; avail_idx = 5; in_flight = 0 } ]
  in
  check_bool "doorbell with empty ring" true (lint_has "io-empty-doorbell" fs);
  let ok =
    Analysis.Lint.run [ Hw.Probe.Io_doorbell { queue = "q"; avail_idx = 5; in_flight = 2 } ]
  in
  check int "doorbell with work is fine" 0 (List.length ok)

(* The make-check fleet scenario emits more events than the old
   65,536-event ring held.  A wrpkrs outside any gate emitted before
   the run, as the first event, must still be reported. *)
let test_fleet_first_event_linted () =
  let tenant i =
    {
      Fleet.Controller.default_tenant with
      Fleet.Controller.name = Printf.sprintf "tenant%d" i;
      rate_rps = 45_000.0;
      requests = 2_000;
    }
  in
  let cfg =
    {
      Fleet.Controller.default_config with
      Fleet.Controller.tenants = List.init 2 tenant;
      cpu_quota = Some (1_000_000.0, 100_000.0);
    }
  in
  let (), r =
    Analysis.run (fun () ->
        Hw.Probe.emit (Hw.Probe.Wrpkrs { cpu = 0; value = 0 });
        ignore (Fleet.Controller.run cfg);
        ((), []))
  in
  check_bool
    (Printf.sprintf "more events than the old ring held (%d)" r.Analysis.linted)
    true (r.Analysis.linted > 65_536);
  check (list string) "the first event's finding, and only it" [ "E1-wrpkrs-outside-gate" ]
    (List.map Analysis.Lint.rule_name r.Analysis.lints)

let test_lint_missing_shootdown () =
  (* Real machine states + events: map, cache on the vCPU, downgrade
     through the KSM, skip the shootdown. *)
  let c, trace =
    with_trace (fun () ->
        let c = mk () in
        let ksm = Cki.Container.ksm c in
        let va = 0x4000_0000 in
        ignore (map_user c ~va);
        let cpu = Cki.Container.cpu c 0 in
        let pt = Hw.Page_table.of_root (mem_of c) cpu.Hw.Cpu.cr3 in
        (match Hw.Cpu.access cpu pt ~va ~access_kind:Hw.Pks.Read () with
        | Ok _ -> ()
        | Error f -> fail (Hw.Cpu.show_fault f));
        (match Cki.Ksm.guest_unmap ksm ~root:(Cki.Ksm.kernel_root ksm) ~va with
        | Ok () -> ()
        | Error e -> fail (Cki.Ksm.show_error e));
        c)
  in
  ignore c;
  check_bool "downgrade without shootdown" true
    (lint_has "missing-shootdown" (Analysis.Lint.run trace));
  (* same scenario with the shootdown: clean *)
  let _, trace2 =
    with_trace (fun () ->
        let c = mk () in
        let ksm = Cki.Container.ksm c in
        let va = 0x4000_0000 in
        ignore (map_user c ~va);
        let cpu = Cki.Container.cpu c 0 in
        let pt = Hw.Page_table.of_root (mem_of c) cpu.Hw.Cpu.cr3 in
        (match Hw.Cpu.access cpu pt ~va ~access_kind:Hw.Pks.Read () with
        | Ok _ -> ()
        | Error f -> fail (Hw.Cpu.show_fault f));
        (match Cki.Ksm.guest_unmap ksm ~root:(Cki.Ksm.kernel_root ksm) ~va with
        | Ok () -> ()
        | Error e -> fail (Cki.Ksm.show_error e));
        Hw.Cpu.exec_priv_exn cpu (Hw.Priv.Invlpg va))
  in
  check_bool "shootdown resolves it" false
    (lint_has "missing-shootdown" (Analysis.Lint.run trace2))

let test_lint_cross_vcpu_shootdown () =
  (* Two vCPUs cache the mapping; only one is invalidated. *)
  let fs =
    Analysis.Lint.run
      [
        Hw.Probe.Container_boot { container = 0; pcid = 1 };
        Hw.Probe.Tlb_fill { cpu = 0; pcid = 1; vpn = 0x400; level = 1; pfn = 42 };
        Hw.Probe.Tlb_fill { cpu = 1; pcid = 1; vpn = 0x400; level = 1; pfn = 42 };
        Hw.Probe.Pte_downgrade { container = 0; root = 7; vpn = 0x400; unmapped = false };
        Hw.Probe.Tlb_invlpg { cpu = 0; pcid = 1; vpn = 0x400 };
      ]
  in
  let stale =
    List.filter
      (function Analysis.Lint.Missing_shootdown { cpu; _ } -> cpu = 1 | _ -> false)
      fs
  in
  check int "exactly the un-invalidated vCPU" 1 (List.length stale);
  check_bool "invalidated vCPU is fine" false
    (List.exists (function Analysis.Lint.Missing_shootdown { cpu; _ } -> cpu = 0 | _ -> false) fs)

(* ------------------------------------------------------------------ *)
(* Report rendering                                                    *)
(* ------------------------------------------------------------------ *)

let test_report_rendering () =
  let c = mk () in
  let clean = { Analysis.violations = scan c; lints = []; linted = 0 } in
  check_bool "clean result" true (Analysis.is_clean clean);
  check_bool "clean summary" true
    (String.length (Analysis.report clean) > 0
    && Report.Findings.summary (Analysis.findings clean) = "clean");
  let rogue = Kernel_model.Buddy.alloc (Cki.Container.buddy c) in
  raw_write c ~pfn:(Cki.Ksm.kernel_root (Cki.Container.ksm c)) ~index:5
    (Hw.Pte.make ~pfn:rogue ~flags:{ Hw.Pte.default_flags with writable = true });
  let dirty = { Analysis.violations = scan c; lints = []; linted = 0 } in
  check_bool "dirty result" false (Analysis.is_clean dirty);
  check_bool "report names the rule" true
    (let s = Analysis.report dirty in
     let contains hay needle =
       let nl = String.length needle and hl = String.length hay in
       let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
       go 0
     in
     contains s "I1-undeclared-ptp");
  check_raises "assert_clean raises"
    (Failure (Analysis.report ~title:"analysis" dirty |> fun r -> "analysis: " ^ r))
    (fun () -> Analysis.assert_clean dirty)

let suite =
  [
    ( "analysis-clean",
      [
        test_case "fresh boot scans clean" `Quick test_clean_boot;
        test_case "boot+workload scenario clean" `Quick test_clean_scenario;
        test_case "gate traffic lints clean" `Quick test_clean_gate_traffic;
        test_case "blocked attacks leave clean state" `Quick test_attacks_leave_clean_state;
      ] );
    ( "analysis-scanner",
      [
        test_case "I1: undeclared PTP" `Quick test_undeclared_ptp;
        test_case "I2: guest-writable PTP" `Quick test_guest_writable_ptp;
        test_case "I2: PTP aliased outside pkey_ptp" `Quick test_maps_declared_ptp;
        test_case "leaf targets monitor memory" `Quick test_targets_monitor;
        test_case "leaf outside delegation" `Quick test_outside_delegation;
        test_case "kernel-exec after freeze" `Quick test_kernel_exec_leaf;
        test_case "W^X breach" `Quick test_wx_leaf;
        test_case "I3: missing KSM splice" `Quick test_missing_splice;
        test_case "I3: missing per-vCPU splice" `Quick test_missing_pervcpu_splice;
        test_case "I3: per-vCPU copy divergence" `Quick test_copy_divergence;
        test_case "I1: PTP level mismatch" `Quick test_ptp_level_mismatch;
        test_case "I1: PTP kind mismatch" `Quick test_ptp_kind_mismatch;
        test_case "segment ownership" `Quick test_segment_owner;
        test_case "stale TLB after unmap" `Quick test_stale_tlb;
        test_case "direct map clean by both walks" `Quick test_direct_map_clean;
        QCheck_alcotest.to_alcotest prop_direct_map_by_runs;
        test_case "stale TLB through a data frame" `Quick test_stale_tlb_through_data_frame;
      ] );
    ( "analysis-lint",
      [
        test_case "E2: destructive exec" `Quick test_lint_destructive_exec;
        test_case "gate PKRS leak" `Quick test_lint_gate_pkrs_leak;
        test_case "E3: sysret with IF down" `Quick test_lint_sysret_if_down;
        test_case "E4: forged PKS switch" `Quick test_lint_forged_pks_switch;
        test_case "E1: wrpkrs outside gate" `Quick test_lint_wrpkrs_outside_gate;
        test_case "io: forged completion" `Quick test_lint_forged_completion;
        test_case "io: empty doorbell" `Quick test_lint_empty_doorbell;
        test_case "fleet run lints first event" `Quick test_fleet_first_event_linted;
        test_case "missing TLB shootdown (real machine)" `Quick test_lint_missing_shootdown;
        test_case "cross-vCPU shootdown race" `Quick test_lint_cross_vcpu_shootdown;
      ] );
    ( "analysis-report",
      [ test_case "rendering + assert_clean" `Quick test_report_rendering ] );
  ]
