(* Tests for the CKI core: KSM invariants, gates, per-vCPU areas,
   container platform behaviour, ablations, and the attack suite. *)

open Alcotest

let check_int = check int
let check_bool = check bool

let mk_container ?(cfg = Cki.Config.default) () =
  Cki.Container.create_standalone ~cfg ~mem_mib:128 ()

let buddy_alloc c () = Kernel_model.Buddy.alloc (Cki.Container.buddy c)

let expect_ok label = function
  | Ok v -> v
  | Error e -> fail (label ^ ": " ^ Cki.Ksm.show_error e)

(* ------------------------------- KSM ------------------------------ *)

let test_ksm_declare_ptp () =
  let c = mk_container () in
  let ksm = Cki.Container.ksm c in
  let pfn = buddy_alloc c () in
  expect_ok "declare" (Cki.Ksm.declare_ptp ksm ~pfn ~level:1);
  check_bool "declared" true (Cki.Ksm.is_declared_ptp ksm pfn);
  (match Cki.Ksm.declare_ptp ksm ~pfn ~level:1 with
  | Error (Cki.Ksm.Already_declared _) -> ()
  | _ -> fail "double declaration must be rejected");
  expect_ok "undeclare" (Cki.Ksm.undeclare_ptp ksm ~pfn);
  check_bool "undeclared" false (Cki.Ksm.is_declared_ptp ksm pfn)

(* A frame guaranteed to be outside the container's delegated segment:
   freshly allocated to the host. *)
let foreign_frame c =
  let mem = Hw.Machine.mem (Cki.Host.machine c.Cki.Container.host) in
  Hw.Phys_mem.alloc mem ~owner:Hw.Phys_mem.Host ~kind:Hw.Phys_mem.Data

let test_ksm_declare_foreign_frame () =
  let c = mk_container () in
  let ksm = Cki.Container.ksm c in
  match Cki.Ksm.declare_ptp ksm ~pfn:(foreign_frame c) ~level:1 with
  | Error (Cki.Ksm.Not_guest_frame _) -> ()
  | _ -> fail "foreign frame must be rejected"

let test_ksm_ptp_readonly_in_direct_map () =
  let c = mk_container () in
  let ksm = Cki.Container.ksm c in
  let pfn = buddy_alloc c () in
  expect_ok "declare" (Cki.Ksm.declare_ptp ksm ~pfn ~level:1);
  (* The direct-map PTE for the declared PTP now carries pkey_ptp:
     writes with guest rights must be refused by the PKS check. *)
  let cpu = Cki.Container.cpu c 0 in
  Cki.Container.enter_guest_kernel cpu;
  let mem = Hw.Machine.mem (Cki.Host.machine c.Cki.Container.host) in
  let pt = Hw.Page_table.of_root mem (Cki.Ksm.kernel_root ksm) in
  let va = Cki.Layout.direct_va_of_pa (Hw.Addr.pa_of_pfn pfn) in
  (match Hw.Cpu.access cpu pt ~va ~access_kind:Hw.Pks.Write () with
  | Error (Hw.Cpu.Pks_violation { key; _ }) -> check_int "ptp key" Hw.Pks.pkey_ptp key
  | _ -> fail "guest write to PTP must fault");
  (* ... but the guest may still *read* it (Read_only domain). *)
  match Hw.Cpu.access cpu pt ~va ~access_kind:Hw.Pks.Read () with
  | Ok _ -> ()
  | Error e -> fail ("read should pass: " ^ Hw.Cpu.show_fault e)

let test_ksm_guest_map_validations () =
  let c = mk_container () in
  let ksm = Cki.Container.ksm c in
  let root = Cki.Ksm.kernel_root ksm in
  let alloc_ptp = buddy_alloc c in
  let data = buddy_alloc c () in
  let user_rw = { Hw.Pte.default_flags with user = true; nx = true } in
  (* valid mapping *)
  expect_ok "valid map" (Cki.Ksm.guest_map ksm ~root ~va:0x40000000 ~pfn:data ~flags:user_rw ~alloc_ptp);
  (* mapping into the KSM VA range *)
  (match Cki.Ksm.guest_map ksm ~root ~va:Cki.Layout.ksm_base ~pfn:data ~flags:user_rw ~alloc_ptp with
  | Error (Cki.Ksm.Reserved_range _) -> ()
  | _ -> fail "KSM range must be reserved");
  (* mapping the per-vCPU constant address *)
  (match
     Cki.Ksm.guest_map ksm ~root ~va:Cki.Layout.pervcpu_base ~pfn:data ~flags:user_rw ~alloc_ptp
   with
  | Error (Cki.Ksm.Reserved_range _) -> ()
  | _ -> fail "per-vCPU range must be reserved");
  (* mapping a declared PTP *)
  let ptp = buddy_alloc c () in
  expect_ok "declare" (Cki.Ksm.declare_ptp ksm ~pfn:ptp ~level:1);
  (match Cki.Ksm.guest_map ksm ~root ~va:0x40002000 ~pfn:ptp ~flags:user_rw ~alloc_ptp with
  | Error (Cki.Ksm.Maps_declared_ptp _) -> ()
  | _ -> fail "mapping a PTP must be rejected");
  (* kernel-executable mapping after freeze *)
  (match
     Cki.Ksm.guest_map ksm ~root ~va:0x40003000 ~pfn:data
       ~flags:{ Hw.Pte.default_flags with user = false; nx = false }
       ~alloc_ptp
   with
  | Error (Cki.Ksm.Kernel_executable_mapping _) -> ()
  | _ -> fail "new kernel-exec mapping must be rejected");
  (* frame outside the delegated segments *)
  match Cki.Ksm.guest_map ksm ~root ~va:0x40004000 ~pfn:(foreign_frame c) ~flags:user_rw ~alloc_ptp with
  | Error (Cki.Ksm.Targets_monitor_memory _) -> ()
  | _ -> fail "foreign frame must be rejected"

let test_ksm_guest_map_walkable () =
  let c = mk_container () in
  let ksm = Cki.Container.ksm c in
  let root = Cki.Ksm.kernel_root ksm in
  let data = buddy_alloc c () in
  expect_ok "map"
    (Cki.Ksm.guest_map ksm ~root ~va:0x50000000 ~pfn:data
       ~flags:{ Hw.Pte.default_flags with user = true; nx = true }
       ~alloc_ptp:(buddy_alloc c));
  let mem = Hw.Machine.mem (Cki.Host.machine c.Cki.Container.host) in
  let pt = Hw.Page_table.of_root mem root in
  let w = Hw.Page_table.walk pt 0x50000000 in
  check_int "mapped to the guest frame" data (Hw.Pte.pfn w.Hw.Page_table.pte);
  (* unmap *)
  expect_ok "unmap" (Cki.Ksm.guest_unmap ksm ~root ~va:0x50000000);
  check_bool "gone" false (Hw.Page_table.is_mapped pt 0x50000000)

let test_ksm_intermediate_ptps_declared () =
  let c = mk_container () in
  let ksm = Cki.Container.ksm c in
  let root = Cki.Ksm.kernel_root ksm in
  let data = buddy_alloc c () in
  let allocated = ref [] in
  let alloc_ptp () =
    let f = Kernel_model.Buddy.alloc (Cki.Container.buddy c) in
    allocated := f :: !allocated;
    f
  in
  expect_ok "map"
    (Cki.Ksm.guest_map ksm ~root ~va:0x60000000 ~pfn:data
       ~flags:{ Hw.Pte.default_flags with user = true; nx = true }
       ~alloc_ptp);
  check_bool "intermediates were needed" true (List.length !allocated >= 1);
  List.iter
    (fun f -> check_bool "intermediate declared as PTP" true (Cki.Ksm.is_declared_ptp ksm f))
    !allocated

let test_ksm_declare_root_and_copies () =
  let c = mk_container () in
  let ksm = Cki.Container.ksm c in
  let root = buddy_alloc c () in
  expect_ok "declare_root" (Cki.Ksm.declare_root ksm ~pfn:root);
  match Cki.Ksm.root_copies ksm root with
  | None -> fail "no copies"
  | Some copies ->
      let vcpus = Array.length c.Cki.Container.cpus in
      check_bool "at least two vCPUs to tell apart" true (vcpus >= 2);
      check_int "one copy per vCPU" vcpus (Array.length copies);
      let mem = Hw.Machine.mem (Cki.Host.machine c.Cki.Container.host) in
      (* each copy maps the KSM subtree and a *different* per-vCPU
         subtree at the constant VA *)
      let pervcpu_entries =
        Array.map
          (fun copy -> Hw.Phys_mem.read_entry mem ~pfn:copy ~index:Cki.Layout.l4_pervcpu)
          copies
      in
      check_bool "per-vCPU slots present" true
        (Array.for_all Hw.Pte.is_present pervcpu_entries);
      check_int "per-vCPU slots differ" vcpus
        (List.length (List.sort_uniq Int64.compare (Array.to_list pervcpu_entries)));
      let ksm_entries =
        Array.map (fun copy -> Hw.Phys_mem.read_entry mem ~pfn:copy ~index:Cki.Layout.l4_ksm) copies
      in
      check_bool "KSM subtree in every copy" true (Array.for_all Hw.Pte.is_present ksm_entries)

let test_ksm_top_level_propagation () =
  let c = mk_container () in
  let ksm = Cki.Container.ksm c in
  let root = buddy_alloc c () in
  expect_ok "declare_root" (Cki.Ksm.declare_root ksm ~pfn:root);
  let data = buddy_alloc c () in
  expect_ok "map"
    (Cki.Ksm.guest_map ksm ~root ~va:0x70000000 ~pfn:data
       ~flags:{ Hw.Pte.default_flags with user = true; nx = true }
       ~alloc_ptp:(buddy_alloc c));
  let mem = Hw.Machine.mem (Cki.Host.machine c.Cki.Container.host) in
  let idx = Hw.Addr.index_at_level ~lvl:4 0x70000000 in
  let original = Hw.Phys_mem.read_entry mem ~pfn:root ~index:idx in
  check_bool "L4 slot filled" true (Hw.Pte.is_present original);
  (match Cki.Ksm.root_copies ksm root with
  | Some copies ->
      Array.iter
        (fun copy ->
          check_bool "copy mirrors top-level write" true
            (Hw.Phys_mem.read_entry mem ~pfn:copy ~index:idx = original))
        copies
  | None -> fail "no copies");
  (* walking through a copy resolves the same data page *)
  match Cki.Ksm.load_cr3 ksm ~vcpu:0 ~root with
  | Ok copy ->
      let pt = Hw.Page_table.of_root mem copy in
      check_int "copy resolves mapping" data
        (Hw.Pte.pfn (Hw.Page_table.walk pt 0x70000000).Hw.Page_table.pte)
  | Error e -> fail (Cki.Ksm.show_error e)

let test_ksm_load_cr3_validation () =
  let c = mk_container () in
  let ksm = Cki.Container.ksm c in
  let rogue = buddy_alloc c () in
  (match Cki.Ksm.load_cr3 ksm ~vcpu:0 ~root:rogue with
  | Error (Cki.Ksm.Undeclared_root _) -> ()
  | _ -> fail "undeclared root must be rejected");
  (match Cki.Ksm.load_cr3 ksm ~vcpu:99 ~root:(Cki.Ksm.kernel_root ksm) with
  | Error (Cki.Ksm.Bad_vcpu _) -> ()
  | _ -> fail "bad vcpu must be rejected");
  match Cki.Ksm.load_cr3 ksm ~vcpu:1 ~root:(Cki.Ksm.kernel_root ksm) with
  | Ok copy -> check_bool "copy differs from original" true (copy <> Cki.Ksm.kernel_root ksm)
  | Error e -> fail (Cki.Ksm.show_error e)

let test_ksm_ad_propagation () =
  let c = mk_container () in
  let ksm = Cki.Container.ksm c in
  let root = buddy_alloc c () in
  expect_ok "declare_root" (Cki.Ksm.declare_root ksm ~pfn:root);
  let data = buddy_alloc c () in
  expect_ok "map"
    (Cki.Ksm.guest_map ksm ~root ~va:0x70000000 ~pfn:data
       ~flags:{ Hw.Pte.default_flags with user = true; nx = true }
       ~alloc_ptp:(buddy_alloc c));
  let mem = Hw.Machine.mem (Cki.Host.machine c.Cki.Container.host) in
  let idx = Hw.Addr.index_at_level ~lvl:4 0x70000000 in
  (* hardware sets A/D in the per-vCPU copy during a walk *)
  (match Cki.Ksm.root_copies ksm root with
  | Some copies ->
      let e = Hw.Phys_mem.read_entry mem ~pfn:copies.(1) ~index:idx in
      Hw.Phys_mem.write_entry mem ~pfn:copies.(1) ~index:idx (Hw.Pte.mark_dirty (Hw.Pte.mark_accessed e))
  | None -> fail "no copies");
  match Cki.Ksm.read_top_pte ksm ~root ~idx with
  | Ok e ->
      check_bool "A propagated" true (Hw.Pte.is_accessed e);
      check_bool "D propagated" true (Hw.Pte.is_dirty e)
  | Error e -> fail (Cki.Ksm.show_error e)

let test_ksm_release_root () =
  let c = mk_container () in
  let ksm = Cki.Container.ksm c in
  let buddy = Cki.Container.buddy c in
  let free_before = Kernel_model.Buddy.free_frames buddy in
  let root = Kernel_model.Buddy.alloc buddy in
  expect_ok "declare_root" (Cki.Ksm.declare_root ksm ~pfn:root);
  let data = Kernel_model.Buddy.alloc buddy in
  expect_ok "map"
    (Cki.Ksm.guest_map ksm ~root ~va:0x70000000 ~pfn:data
       ~flags:{ Hw.Pte.default_flags with user = true; nx = true }
       ~alloc_ptp:(fun () -> Kernel_model.Buddy.alloc buddy));
  expect_ok "release" (Cki.Ksm.release_root ksm ~root ~free_ptp:(Kernel_model.Buddy.free buddy));
  Kernel_model.Buddy.free buddy root;
  Kernel_model.Buddy.free buddy data;
  check_int "all guest frames recovered" free_before (Kernel_model.Buddy.free_frames buddy);
  match Cki.Ksm.load_cr3 ksm ~vcpu:0 ~root with
  | Error (Cki.Ksm.Undeclared_root _) -> ()
  | _ -> fail "released root must not be loadable"

let test_ksm_call_costs () =
  let c = mk_container () in
  let ksm = Cki.Container.ksm c in
  let clock = Hw.Machine.clock (Cki.Host.machine c.Cki.Container.host) in
  let calls0 = Cki.Ksm.ksm_call_count ksm in
  let t0 = Hw.Clock.now clock in
  Cki.Ksm.iret ksm;
  check_int "one call" (calls0 + 1) (Cki.Ksm.ksm_call_count ksm);
  check_bool "charged 38.5ns" true (Hw.Clock.now clock -. t0 = Hw.Cost.ns Hw.Cost.ksm_call)

(* QCheck: after arbitrary *valid* mapping activity, no user-reachable
   leaf PTE ever maps a declared PTP or KSM memory. *)
let prop_ksm_isolation_invariant =
  QCheck.Test.make ~name:"KSM invariant: no leaf maps a PTP or monitor memory" ~count:20
    QCheck.(small_list (pair (int_bound 4095) bool))
    (fun ops ->
      let c = mk_container () in
      let ksm = Cki.Container.ksm c in
      let root = Cki.Ksm.kernel_root ksm in
      let buddy = Cki.Container.buddy c in
      List.iter
        (fun (slot, write) ->
          let va = 0x40000000 + (slot * 4096) in
          if write then begin
            let data = Kernel_model.Buddy.alloc buddy in
            match
              Cki.Ksm.guest_map ksm ~root ~va ~pfn:data
                ~flags:{ Hw.Pte.default_flags with user = true; nx = true }
                ~alloc_ptp:(fun () -> Kernel_model.Buddy.alloc buddy)
            with
            | Ok () -> ()
            | Error e -> failwith (Cki.Ksm.show_error e)
          end
          else ignore (Cki.Ksm.guest_unmap ksm ~root ~va))
        ops;
      let mem = Hw.Machine.mem (Cki.Host.machine c.Cki.Container.host) in
      let pt = Hw.Page_table.of_root mem root in
      Hw.Page_table.fold_leaves pt
        (fun acc ~va ~pte ~level:_ ->
          acc
          &&
          if va < Cki.Layout.user_top || Cki.Layout.in_direct_map va then
            let pfn = Hw.Pte.pfn pte in
            (not (Cki.Ksm.is_declared_ptp ksm pfn && va < Cki.Layout.user_top))
            && (match Hw.Phys_mem.owner mem pfn with
               | Hw.Phys_mem.Ksm _ -> false
               | Hw.Phys_mem.Host | Hw.Phys_mem.Free | Hw.Phys_mem.Container _ -> true)
          else true)
        true)

(* ------------------------------ Gates ----------------------------- *)

let test_gate_ksm_call_roundtrip () =
  let c = mk_container () in
  let cpu = Cki.Container.cpu c 0 in
  Cki.Container.enter_guest_kernel cpu;
  let gates = Cki.Container.gates c in
  (match Cki.Gates.ksm_call gates cpu ~vcpu:0 (fun () -> 42) with
  | Ok v -> check_int "handler result" 42 v
  | Error e -> fail (Cki.Gates.show_error e));
  check_int "guest rights restored" Hw.Pks.pkrs_guest cpu.Hw.Cpu.pkrs

let test_gate_tamper_detection () =
  let c = mk_container () in
  let cpu = Cki.Container.cpu c 0 in
  Cki.Container.enter_guest_kernel cpu;
  let gates = Cki.Container.gates c in
  (match Cki.Gates.ksm_call gates cpu ~vcpu:0 ~tamper_exit:Hw.Pks.all_access (fun () -> ()) with
  | Error Cki.Gates.Pkrs_tamper_detected -> ()
  | _ -> fail "exit tamper must be detected");
  check_int "abort restores guest rights" Hw.Pks.pkrs_guest cpu.Hw.Cpu.pkrs;
  check_bool "counted" true (Cki.Gates.tampers_blocked gates >= 1)

let test_gate_hypercall_context () =
  let c = mk_container () in
  let cpu = Cki.Container.cpu c 0 in
  Cki.Container.enter_guest_kernel cpu;
  let guest_cr3 = cpu.Hw.Cpu.cr3 in
  let gates = Cki.Container.gates c in
  let host_saw = ref None in
  (match
     Cki.Gates.hypercall gates cpu ~vcpu:0 ~request:Kernel_model.Platform.Timer (fun k ->
         host_saw := Some k;
         (* While the host runs, the CPU is in the host address space. *)
         check_bool "host cr3 active" true (cpu.Hw.Cpu.cr3 <> guest_cr3))
   with
  | Ok () -> ()
  | Error e -> fail (Cki.Gates.show_error e));
  check_bool "request delivered" true (!host_saw = Some Kernel_model.Platform.Timer);
  check_int "guest cr3 restored" guest_cr3 cpu.Hw.Cpu.cr3;
  check_int "guest rights restored" Hw.Pks.pkrs_guest cpu.Hw.Cpu.pkrs

let test_gate_interrupt_hardware_vs_forged () =
  let c = mk_container () in
  let cpu = Cki.Container.cpu c 0 in
  Cki.Container.enter_guest_kernel cpu;
  let gates = Cki.Container.gates c in
  let handled = ref 0 in
  (match
     Cki.Gates.interrupt gates cpu ~vcpu:0 ~vector:Hw.Idt.vec_timer ~kind:Hw.Idt.Hardware
       (fun _ -> incr handled)
   with
  | Ok () -> ()
  | Error e -> fail (Cki.Gates.show_error e));
  check_int "handled" 1 !handled;
  check_int "PKRS restored after iret" Hw.Pks.pkrs_guest cpu.Hw.Cpu.pkrs;
  (* forged (software) entry *)
  Cki.Container.enter_guest_kernel cpu;
  (match
     Cki.Gates.interrupt gates cpu ~vcpu:0 ~vector:Hw.Idt.vec_timer ~kind:Hw.Idt.Software
       (fun _ -> incr handled)
   with
  | Error Cki.Gates.Forgery_detected -> ()
  | _ -> fail "forged interrupt must be detected");
  check_int "host handler never ran" 1 !handled;
  check_bool "counted" true (Cki.Gates.forged_blocked gates >= 1)

let test_pervcpu_stack_discipline () =
  let c = mk_container () in
  let area = Cki.Pervcpu.area (Cki.Ksm.pervcpu (Cki.Container.ksm c)) 0 in
  Cki.Pervcpu.push_stack area;
  Cki.Pervcpu.push_stack area;
  Cki.Pervcpu.pop_stack area;
  Cki.Pervcpu.pop_stack area;
  check_raises "underflow" (Failure "Pervcpu: secure stack underflow") (fun () ->
      Cki.Pervcpu.pop_stack area)

(* ---------------------------- Container --------------------------- *)

let test_container_microbench () =
  let c = mk_container () in
  let b = Cki.Container.backend c in
  let task = Virt.Backend.spawn b in
  let getpid =
    Virt.Backend.mean_latency b ~n:200 (fun () ->
        ignore (Virt.Backend.syscall_exn b task Kernel_model.Syscall.Getpid))
  in
  check_bool "getpid = 90ns" true (Float.abs (getpid -. 90.0) < 2.0);
  let base =
    match
      Virt.Backend.syscall_exn b task (Kernel_model.Syscall.Mmap { pages = 256; prot = Kernel_model.Vma.prot_rw })
    with
    | Kernel_model.Syscall.Rint v -> v
    | _ -> fail "mmap"
  in
  let _, ns =
    Hw.Clock.timed b.Virt.Backend.clock (fun () ->
        ignore (Kernel_model.Mm.touch_range task.Kernel_model.Task.mm ~start:base ~pages:256 ~write:true))
  in
  check_bool "pgfault = 1067ns" true (Float.abs ((ns /. 256.0) -. 1067.0) < 25.0);
  let t0 = Hw.Clock.now b.Virt.Backend.clock in
  b.Virt.Backend.empty_hypercall ();
  check_bool "hypercall = 390ns" true
    (Float.abs (Hw.Clock.now b.Virt.Backend.clock -. t0 -. 390.0) < 1.0)

let test_container_ablations () =
  let getpid cfg =
    let b = Cki.Container.backend (mk_container ~cfg ()) in
    let task = Virt.Backend.spawn b in
    Virt.Backend.mean_latency b ~n:100 (fun () ->
        ignore (Virt.Backend.syscall_exn b task Kernel_model.Syscall.Getpid))
  in
  check_bool "wo-OPT2 = 238ns" true (Float.abs (getpid Cki.Config.wo_opt2 -. 238.0) < 2.0);
  check_bool "wo-OPT3 = 153ns" true (Float.abs (getpid Cki.Config.wo_opt3 -. 153.0) < 2.0)

let test_container_fault_charges_two_ksm_calls () =
  let c = mk_container () in
  let b = Cki.Container.backend c in
  let task = Virt.Backend.spawn b in
  let ksm = Cki.Container.ksm c in
  let base =
    match
      Virt.Backend.syscall_exn b task (Kernel_model.Syscall.Mmap { pages = 1; prot = Kernel_model.Vma.prot_rw })
    with
    | Kernel_model.Syscall.Rint v -> v
    | _ -> fail "mmap"
  in
  (* Warm the intermediate tables with a first fault in the same region. *)
  Kernel_model.Mm.touch task.Kernel_model.Task.mm base ~write:true;
  let base2 =
    match
      Virt.Backend.syscall_exn b task (Kernel_model.Syscall.Mmap { pages = 1; prot = Kernel_model.Vma.prot_rw })
    with
    | Kernel_model.Syscall.Rint v -> v
    | _ -> fail "mmap"
  in
  let calls0 = Cki.Ksm.ksm_call_count ksm in
  Kernel_model.Mm.touch task.Kernel_model.Task.mm base2 ~write:true;
  (* PTE update + iret = exactly 2 KSM calls = the paper's 77 ns *)
  check_int "2 KSM calls per steady-state fault" (calls0 + 2) (Cki.Ksm.ksm_call_count ksm)

let test_container_aspace_lifecycle () =
  let c = mk_container () in
  let b = Cki.Container.backend c in
  let buddy = Cki.Container.buddy c in
  let free0 = Kernel_model.Buddy.free_frames buddy in
  let task = Virt.Backend.spawn b in
  let base =
    match
      Virt.Backend.syscall_exn b task (Kernel_model.Syscall.Mmap { pages = 32; prot = Kernel_model.Vma.prot_rw })
    with
    | Kernel_model.Syscall.Rint v -> v
    | _ -> fail "mmap"
  in
  ignore (Kernel_model.Mm.touch_range task.Kernel_model.Task.mm ~start:base ~pages:32 ~write:true);
  ignore (Virt.Backend.syscall_exn b task (Kernel_model.Syscall.Exit 0));
  check_int "exit returns every guest frame" free0 (Kernel_model.Buddy.free_frames buddy)

let test_container_pti_ablation_costs_more () =
  let fault_cost cfg =
    let c = mk_container ~cfg () in
    let b = Cki.Container.backend c in
    let task = Virt.Backend.spawn b in
    let base =
      match
        Virt.Backend.syscall_exn b task (Kernel_model.Syscall.Mmap { pages = 64; prot = Kernel_model.Vma.prot_rw })
      with
      | Kernel_model.Syscall.Rint v -> v
      | _ -> fail "mmap"
    in
    let _, ns =
      Hw.Clock.timed b.Virt.Backend.clock (fun () ->
          ignore (Kernel_model.Mm.touch_range task.Kernel_model.Task.mm ~start:base ~pages:64 ~write:true))
    in
    ns /. 64.0
  in
  let without = fault_cost Cki.Config.default in
  let with_pti = fault_cost { Cki.Config.default with Cki.Config.pti_in_gates = true } in
  check_bool "eliding PTI/IBRS in gates saves time" true (with_pti > without +. 200.0)

let test_two_containers_isolated_segments () =
  let machine = Hw.Machine.create ~cpus:2 ~mem_mib:128 () in
  let host = Cki.Host.create machine in
  let cfg = { Cki.Config.default with Cki.Config.segment_frames = 2048 } in
  let c1 = Cki.Container.create ~cfg host in
  let c2 = Cki.Container.create ~cfg host in
  check_bool "distinct ids" true (Cki.Container.container_id c1 <> Cki.Container.container_id c2);
  check_bool "distinct pcids" true (Cki.Container.pcid c1 <> Cki.Container.pcid c2);
  let d1 = Cki.Host.delegations_of host ~container:(Cki.Container.container_id c1) in
  let d2 = Cki.Host.delegations_of host ~container:(Cki.Container.container_id c2) in
  check_int "one segment each" 1 (List.length d1);
  (* segments must not overlap *)
  match (d1, d2) with
  | [ s1 ], [ s2 ] ->
      let open Cki.Host in
      check_bool "disjoint" true
        (s1.base + s1.frames <= s2.base || s2.base + s2.frames <= s1.base)
  | _ -> fail "unexpected delegations"

(* The guest may call any KSM entry: undeclaring the L1 PTP a live
   table links must be refused, or the guest could map that table as
   user-writable data and rewrite its PTEs with plain stores (I1).  A
   PTP that nothing links, and teardown, still undeclare. *)
let test_ksm_undeclare_live_ptp () =
  let c = mk_container () in
  let ksm = Cki.Container.ksm c in
  let root = Cki.Ksm.kernel_root ksm in
  let ptps = ref [] in
  let alloc_ptp () =
    let pfn = buddy_alloc c () in
    ptps := pfn :: !ptps;
    pfn
  in
  let user_rw = { Hw.Pte.default_flags with writable = true; user = true; nx = true } in
  expect_ok "map"
    (Cki.Ksm.guest_map ksm ~root ~va:0x40_0000 ~pfn:(buddy_alloc c ()) ~flags:user_rw ~alloc_ptp);
  check_int "three PTPs declared inline" 3 (List.length !ptps);
  List.iter
    (fun pfn ->
      match Cki.Ksm.undeclare_ptp ksm ~pfn with
      | Error (Cki.Ksm.Ptp_in_use p) -> check_int "names the PTP" pfn p
      | Ok () -> fail "a live PTP was undeclared"
      | Error e -> fail (Cki.Ksm.show_error e))
    !ptps;
  let guest_root = buddy_alloc c () in
  expect_ok "declare root" (Cki.Ksm.declare_root ksm ~pfn:guest_root);
  (match Cki.Ksm.undeclare_ptp ksm ~pfn:guest_root with
  | Error (Cki.Ksm.Ptp_in_use _) -> ()
  | _ -> fail "a live root was undeclared");
  (match
     Cki.Ksm.guest_map ksm ~root ~va:0x80_0000 ~pfn:(List.hd !ptps) ~flags:user_rw ~alloc_ptp
   with
  | Error (Cki.Ksm.Maps_declared_ptp _) -> ()
  | _ -> fail "the live PTP was mapped as data");
  check_int "machine clean" 0 (List.length (Analysis.check_machine ~containers:[ c ]))

(* ----------------------------- Attacks ---------------------------- *)

let test_all_attacks_blocked () =
  let c = mk_container () in
  List.iter
    (fun (name, outcome) -> check_bool name true (Cki.Attacks.is_blocked outcome))
    (Cki.Attacks.all c);
  check_int "suite size" 18 (List.length (Cki.Attacks.all (mk_container ())));
  check bool "the liveness check stops the undeclare" true
    (Cki.Attacks.attempt_undeclare_live_ptp (mk_container ())
    = Cki.Attacks.Blocked "KSM PTP liveness check")

(* The monitor keeps a state record only for frames whose state is not
   plain guest data: mapping data pages (every one passes the
   [check_leaf] lookup) must not add one each. *)
let test_ksm_state_records_track_declared_ptps () =
  let c = mk_container () in
  let ksm = Cki.Container.ksm c in
  let b = Cki.Container.backend c in
  let task = Virt.Backend.spawn b in
  let before = Cki.Ksm.declared_count ksm in
  let base =
    match
      Virt.Backend.syscall_exn b task
        (Kernel_model.Syscall.Mmap { pages = 1024; prot = Kernel_model.Vma.prot_rw })
    with
    | Kernel_model.Syscall.Rint v -> v
    | _ -> fail "mmap"
  in
  ignore (Kernel_model.Mm.touch_range task.Kernel_model.Task.mm ~start:base ~pages:1024 ~write:true);
  check_int "1024 pages resident" 1024 (Kernel_model.Mm.resident_pages task.Kernel_model.Task.mm);
  check_int "one record per declared PTP" (List.length (Cki.Ksm.declared_ptps ksm))
    (Cki.Ksm.declared_count ksm);
  (* 1024 pages take two more L1 tables (and at most an L2 and an L3) *)
  check_bool "at most 4 new records for 1024 mapped pages" true
    (Cki.Ksm.declared_count ksm - before <= 4);
  let records = Cki.Ksm.declared_count ksm in
  check_bool "fresh frame undeclared" false
    (Cki.Ksm.is_declared_ptp ksm (Kernel_model.Buddy.alloc (Cki.Container.buddy c)));
  check_int "a lookup adds no record" records (Cki.Ksm.declared_count ksm)

(* ------------------------ protect by runs ------------------------ *)

(* The single-page protect that [Ksm.guest_protect]'s run form
   replaced, kept as the oracle: per page, one KSM call's charge, the
   root and reserved-range checks, the walk from the root to the leaf
   (4 KiB, or a 2 MiB leaf at level 2), the downgrade event and the
   rewrite; then the shootdown.  It reaches the machine only through
   the clock, the probe and raw table reads and writes. *)
let protect_per_page c ~root ~vpns ~writable ~shootdown =
  let ksm = Cki.Container.ksm c in
  let machine = Cki.Host.machine c.Cki.Container.host in
  let mem = Hw.Machine.mem machine and clock = Hw.Machine.clock machine in
  let page vpn =
    Hw.Clock.charge clock Hw.Cost.ksm_call;
    if c.Cki.Container.cfg.Cki.Config.pti_in_gates then begin
      Hw.Clock.charge clock Hw.Cost.pti_overhead;
      Hw.Clock.charge clock Hw.Cost.ibrs_overhead
    end;
    let va = Hw.Addr.va_of_vpn vpn in
    if Cki.Ksm.root_copies ksm root = None then Error (Cki.Ksm.Undeclared_root root)
    else if Cki.Layout.in_ksm va || Cki.Layout.in_pervcpu va then Error (Cki.Ksm.Reserved_range va)
    else begin
      let rec go lvl table =
        let index = Hw.Addr.index_at_level ~lvl va in
        let e = Hw.Phys_mem.read_entry mem ~pfn:table ~index in
        if not (Hw.Pte.is_present e) then ()
        else if lvl = 1 || (lvl = 2 && Hw.Pte.is_huge e) then begin
          if (not writable) && Hw.Pte.is_writable e && Hw.Probe.active () then
            Hw.Probe.emit
              (Hw.Probe.Pte_downgrade
                 { container = Cki.Container.container_id c; root; vpn; unmapped = false });
          Hw.Phys_mem.write_entry mem ~pfn:table ~index (Hw.Pte.with_writable e writable)
        end
        else go (lvl - 1) (Hw.Pte.pfn e)
      in
      go 4 root;
      shootdown va;
      Ok ()
    end
  in
  Array.fold_left (fun r vpn -> Result.bind r (fun () -> page vpn)) (Ok ()) vpns

(* One case: a window of pages straddling an L1 boundary (vpn 512 of
   the window's first table is offset [straddle]), each a hole, a
   writable page, a read-only page sharing one frame (as a CoW page
   maps its template's frame) or a frozen page (mapped writable, then
   downgraded); a 2 MiB huge leaf with some of its pages in the run; an
   optional reserved-range page where the run must stop. *)
type protect_case = {
  window : int list;  (** per page: 0 hole, 1 writable, 2 CoW, 3 frozen *)
  picked : bool list;  (** which window pages the run names *)
  huge_pages : int list;  (** offsets into the huge leaf's 512 pages *)
  reserved : int option;  (** 0: a KSM page, 1: a per-vCPU page *)
  writable : bool;
}

let straddle = 24
let window_base = (0x4000_0000 lsr Hw.Addr.page_shift) + 512 - straddle
let huge_base = 0x4080_0000 lsr Hw.Addr.page_shift

let show_protect_case p =
  Printf.sprintf "{window=[%s]; picked=[%s]; huge=[%s]; reserved=%s; writable=%b}"
    (String.concat ";" (List.map string_of_int p.window))
    (String.concat ";" (List.map (fun b -> if b then "1" else "0") p.picked))
    (String.concat ";" (List.map string_of_int p.huge_pages))
    (match p.reserved with None -> "none" | Some k -> string_of_int k)
    p.writable

let gen_protect_case =
  QCheck.Gen.(
    let* n = int_range 1 (2 * straddle) in
    let* window = list_repeat n (int_bound 3) in
    let* picked = list_repeat n (frequency [ (3, return true); (1, return false) ]) in
    let* huge_pages = small_list (int_bound 511) in
    let* reserved = opt ~ratio:0.3 (int_bound 1) in
    let* writable = bool in
    return { window; picked; huge_pages; reserved; writable })

(* The same machine every time for one case: a standalone container,
   the case's pages mapped under the kernel root, the run's vpns in
   ascending order. *)
let build_protect_case p =
  let c = mk_container () in
  let ksm = Cki.Container.ksm c in
  let root = Cki.Ksm.kernel_root ksm in
  let buddy = Cki.Container.buddy c in
  let alloc () = Kernel_model.Buddy.alloc buddy in
  let map ~vpn ~pfn ~writable ~huge =
    expect_ok "guest_map"
      (Cki.Ksm.guest_map ksm ~root ~va:(Hw.Addr.va_of_vpn vpn) ~pfn
         ~flags:{ Hw.Pte.default_flags with writable; user = true; nx = true; huge }
         ~alloc_ptp:alloc)
  in
  let shared = alloc () in
  List.iteri
    (fun i kind ->
      let vpn = window_base + i in
      match kind with
      | 1 -> map ~vpn ~pfn:(alloc ()) ~writable:true ~huge:false
      | 2 -> map ~vpn ~pfn:shared ~writable:false ~huge:false
      | 3 ->
          map ~vpn ~pfn:(alloc ()) ~writable:true ~huge:false;
          expect_ok "freeze"
            (Cki.Ksm.guest_protect ksm ~root ~vpns:[| vpn |] ~writable:false ~shootdown:ignore)
      | _ -> ())
    p.window;
  map ~vpn:huge_base ~pfn:(alloc ()) ~writable:true ~huge:true;
  let run =
    List.filteri (fun i _ -> List.nth p.picked i) (List.mapi (fun i _ -> window_base + i) p.window)
    @ List.sort_uniq Int.compare (List.map (fun k -> huge_base + k) p.huge_pages)
    @
    match p.reserved with
    | None -> []
    | Some k ->
        (* The pages after the reserved one lie past the per-vCPU area:
           a run that did not stop there would charge and shoot them
           down. *)
        let past = (Cki.Layout.pervcpu_base lsr Hw.Addr.page_shift) + Cki.Layout.pervcpu_pages in
        [ (if k = 0 then Cki.Layout.ksm_base else Cki.Layout.pervcpu_base) lsr Hw.Addr.page_shift;
          past; past + 1 ]
  in
  (c, root, Array.of_list run)

(* Every table entry of the machine, frame by frame. *)
let table_entries c =
  let mem = Hw.Machine.mem (Cki.Host.machine c.Cki.Container.host) in
  List.init (Hw.Phys_mem.total_frames mem) (fun pfn ->
      let acc = ref [] in
      Hw.Phys_mem.iter_entries mem ~pfn (fun index e -> acc := (index, e) :: !acc);
      !acc)

(* Run [protect] on a fresh build of [p] with every vCPU's invlpg as
   the shootdown, under a list sink: the result, the events, and the
   machine afterwards. *)
let protect_outcome p protect =
  let c, root, vpns = build_protect_case p in
  let shootdown va =
    Array.iter (fun cpu -> Hw.Cpu.exec_priv_exn cpu (Hw.Priv.Invlpg va)) c.Cki.Container.cpus
  in
  let events = ref [] in
  Hw.Probe.set_sink (fun e -> events := e :: !events);
  let r =
    Fun.protect ~finally:Hw.Probe.clear_sink (fun () ->
        protect c ~root ~vpns ~writable:p.writable ~shootdown)
  in
  let clock = Hw.Machine.clock (Cki.Host.machine c.Cki.Container.host) in
  ( r,
    List.rev !events,
    Int64.bits_of_float (Hw.Clock.now clock),
    Hw.Clock.events clock,
    table_entries c )

let prop_protect_runs_equal_per_page =
  QCheck.Test.make ~name:"guest_protect by runs equals the per-page loop" ~count:40
    (QCheck.make ~print:show_protect_case gen_protect_case)
    (fun p ->
      let r1, ev1, now1, counts1, tables1 = protect_outcome p protect_per_page in
      let r2, ev2, now2, counts2, tables2 =
        protect_outcome p (fun c ~root ~vpns ~writable ~shootdown ->
            Cki.Ksm.guest_protect (Cki.Container.ksm c) ~root ~vpns ~writable ~shootdown)
      in
      let show_r = function Ok () -> "ok" | Error e -> Cki.Ksm.show_error e in
      if r1 <> r2 then QCheck.Test.fail_reportf "result: per-page %s, runs %s" (show_r r1) (show_r r2)
      else if ev1 <> ev2 then
        QCheck.Test.fail_reportf "probe events differ: per-page %d, runs %d" (List.length ev1)
          (List.length ev2)
      else if now1 <> now2 then
        QCheck.Test.fail_reportf "clock: per-page %h, runs %h" (Int64.float_of_bits now1)
          (Int64.float_of_bits now2)
      else if counts1 <> counts2 then QCheck.Test.fail_reportf "clock event counts differ"
      else if tables1 <> tables2 then QCheck.Test.fail_reportf "page-table entries differ"
      else
        (* Non-vacuous: a reserved page must stop the run with its
           error, and a case without one must succeed. *)
        match (p.reserved, r2) with
        | Some _, Error (Cki.Ksm.Reserved_range _) -> true
        | None, Ok () -> true
        | _ -> QCheck.Test.fail_reportf "unexpected result %s" (show_r r2))

let suite =
  [
    ( "cki/ksm",
      [
        test_case "declare/undeclare PTP" `Quick test_ksm_declare_ptp;
        test_case "foreign frame rejected" `Quick test_ksm_declare_foreign_frame;
        test_case "PTP read-only via pkey (I2)" `Quick test_ksm_ptp_readonly_in_direct_map;
        test_case "guest_map validations" `Quick test_ksm_guest_map_validations;
        test_case "guest_map walkable + unmap" `Quick test_ksm_guest_map_walkable;
        test_case "intermediate PTPs declared (I1)" `Quick test_ksm_intermediate_ptps_declared;
        test_case "declare_root builds per-vCPU copies" `Quick test_ksm_declare_root_and_copies;
        test_case "top-level writes propagate to copies" `Quick test_ksm_top_level_propagation;
        test_case "CR3 validation (I3)" `Quick test_ksm_load_cr3_validation;
        test_case "A/D propagation from copies" `Quick test_ksm_ad_propagation;
        test_case "release_root recovers frames" `Quick test_ksm_release_root;
        test_case "a live PTP cannot be undeclared" `Quick test_ksm_undeclare_live_ptp;
        test_case "KSM call cost accounting" `Quick test_ksm_call_costs;
        QCheck_alcotest.to_alcotest prop_ksm_isolation_invariant;
        QCheck_alcotest.to_alcotest prop_protect_runs_equal_per_page;
        test_case "state records only for PTPs" `Quick test_ksm_state_records_track_declared_ptps;
      ] );
    ( "cki/gates",
      [
        test_case "KSM call gate roundtrip" `Quick test_gate_ksm_call_roundtrip;
        test_case "PKRS tamper detection" `Quick test_gate_tamper_detection;
        test_case "hypercall context switch" `Quick test_gate_hypercall_context;
        test_case "interrupt: hardware ok, forged blocked" `Quick test_gate_interrupt_hardware_vs_forged;
        test_case "per-vCPU secure stack discipline" `Quick test_pervcpu_stack_discipline;
      ] );
    ( "cki/container",
      [
        test_case "microbench anchors (90/1067/390)" `Quick test_container_microbench;
        test_case "OPT2/OPT3 ablations (238/153)" `Quick test_container_ablations;
        test_case "2 KSM calls per fault" `Quick test_container_fault_charges_two_ksm_calls;
        test_case "address-space lifecycle" `Quick test_container_aspace_lifecycle;
        test_case "PTI-in-gates ablation" `Quick test_container_pti_ablation_costs_more;
        test_case "two containers, disjoint segments" `Quick test_two_containers_isolated_segments;
      ] );
    ("cki/attacks", [ test_case "all attacks blocked" `Quick test_all_attacks_blocked ]);
  ]
