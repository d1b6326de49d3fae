(* Tests for the virtualization backends: RunC, HVM (BM + nested),
   PVM — including the paper's microbenchmark anchors (Table 2). *)

open Alcotest

let check_int = check int
let check_bool = check bool

let close ?(tol = 0.02) expected actual =
  Float.abs (actual -. expected) <= tol *. expected +. 1.0

let getpid (b : Virt.Backend.t) =
  let task = Virt.Backend.spawn b in
  Virt.Backend.mean_latency b ~n:200 (fun () ->
      ignore (Virt.Backend.syscall_exn b task Kernel_model.Syscall.Getpid))

let pgfault (b : Virt.Backend.t) =
  let task = Virt.Backend.spawn b in
  let pages = 512 in
  let base =
    match
      Virt.Backend.syscall_exn b task
        (Kernel_model.Syscall.Mmap { pages; prot = Kernel_model.Vma.prot_rw })
    with
    | Kernel_model.Syscall.Rint v -> v
    | _ -> fail "mmap"
  in
  let _, ns =
    Hw.Clock.timed b.Virt.Backend.clock (fun () ->
        ignore (Kernel_model.Mm.touch_range task.Kernel_model.Task.mm ~start:base ~pages ~write:true))
  in
  ns /. float_of_int pages

let mk_machine () = Hw.Machine.create ~cpus:2 ~mem_mib:64 ()

(* ------------------------------ RunC ------------------------------ *)

let test_runc_microbench () =
  let b = Virt.Runc.create (mk_machine ()) in
  check_bool "getpid ~93ns" true (close 93.0 (getpid b));
  check_bool "pgfault ~1000ns" true (close 1000.0 (pgfault b));
  check_bool "no hypercall" false b.Virt.Backend.supports_hypercall;
  check_int "1D walk" 4 b.Virt.Backend.walk_refs

(* ------------------------------- HVM ------------------------------ *)

let test_hvm_bm_microbench () =
  let b = Virt.Hvm.create (mk_machine ()) in
  check_bool "getpid native" true (close 90.0 (getpid b));
  check_bool "pgfault ~3257ns" true (close 3257.0 (pgfault b));
  let clock = b.Virt.Backend.clock in
  let t0 = Hw.Clock.now clock and exits = Hw.Clock.occurrences clock "vmexit" in
  b.Virt.Backend.empty_hypercall ();
  check_bool "hypercall ~1088ns" true (close 1088.0 (Hw.Clock.now clock -. t0));
  check_int "one VM exit" (exits + 1) (Hw.Clock.occurrences clock "vmexit");
  check_int "no nested exit" 0 (Hw.Clock.occurrences clock "vmexit_nested");
  check_int "2D walk" 24 b.Virt.Backend.walk_refs

let test_hvm_nst_microbench () =
  let b = Virt.Hvm.create ~env:Virt.Env.Nested (mk_machine ()) in
  check_bool "pgfault ~32565ns" true (close 32565.0 (pgfault b));
  let clock = b.Virt.Backend.clock in
  let t0 = Hw.Clock.now clock and exits = Hw.Clock.occurrences clock "vmexit_nested" in
  b.Virt.Backend.empty_hypercall ();
  check_bool "hypercall ~6746ns" true (close 6746.0 (Hw.Clock.now clock -. t0));
  check_int "one nested VM exit" (exits + 1) (Hw.Clock.occurrences clock "vmexit_nested");
  check_int "no bare-metal exit" 0 (Hw.Clock.occurrences clock "vmexit")

let test_hvm_ept_fault_counting () =
  let b = Virt.Hvm.create (mk_machine ()) in
  let task = Virt.Backend.spawn b in
  let clock = b.Virt.Backend.clock in
  let base =
    match
      Virt.Backend.syscall_exn b task (Kernel_model.Syscall.Mmap { pages = 16; prot = Kernel_model.Vma.prot_rw })
    with
    | Kernel_model.Syscall.Rint v -> v
    | _ -> fail "mmap"
  in
  let before = Hw.Clock.occurrences clock "ept_fault" in
  ignore (Kernel_model.Mm.touch_range task.Kernel_model.Task.mm ~start:base ~pages:16 ~write:true);
  check_int "one EPT fault per fresh page" (before + 16) (Hw.Clock.occurrences clock "ept_fault")

let test_hvm_gfn_recycling_avoids_ept_faults () =
  let b = Virt.Hvm.create (mk_machine ()) in
  let task = Virt.Backend.spawn b in
  let clock = b.Virt.Backend.clock in
  let mmap_touch_unmap () =
    let base =
      match
        Virt.Backend.syscall_exn b task (Kernel_model.Syscall.Mmap { pages = 8; prot = Kernel_model.Vma.prot_rw })
      with
      | Kernel_model.Syscall.Rint v -> v
      | _ -> fail "mmap"
    in
    ignore (Kernel_model.Mm.touch_range task.Kernel_model.Task.mm ~start:base ~pages:8 ~write:true);
    ignore (Virt.Backend.syscall_exn b task (Kernel_model.Syscall.Munmap { addr = base; pages = 8 }))
  in
  mmap_touch_unmap ();
  let after_first = Hw.Clock.occurrences clock "ept_fault" in
  mmap_touch_unmap ();
  (* Recycled gfns keep their EPT mappings: no new violations. *)
  check_int "no EPT faults on recycled memory" after_first (Hw.Clock.occurrences clock "ept_fault")

let test_hvm_huge_ept_amortizes () =
  let b = Virt.Hvm.create ~ept_huge:true (mk_machine ()) in
  let task = Virt.Backend.spawn b in
  let clock = b.Virt.Backend.clock in
  let base =
    match
      Virt.Backend.syscall_exn b task
        (Kernel_model.Syscall.Mmap { pages = 1024; prot = Kernel_model.Vma.prot_rw })
    with
    | Kernel_model.Syscall.Rint v -> v
    | _ -> fail "mmap"
  in
  let before = Hw.Clock.occurrences clock "ept_fault" in
  ignore (Kernel_model.Mm.touch_range task.Kernel_model.Task.mm ~start:base ~pages:1024 ~write:true);
  let faults = Hw.Clock.occurrences clock "ept_fault" - before in
  check_bool "amortized to ~2 faults per 1024 pages" true (faults <= 3);
  check_int "huge 2D walk refs" 15 b.Virt.Backend.walk_refs_huge

(* ------------------------------- PVM ------------------------------ *)

let test_pvm_microbench () =
  let b = Virt.Pvm.create (mk_machine ()) in
  check_bool "getpid ~336ns (syscall redirection)" true (close 336.0 (getpid b));
  check_bool "pgfault ~4425ns (vm exits + SPT emulation)" true (close 4425.0 (pgfault b));
  let t0 = Hw.Clock.now b.Virt.Backend.clock in
  b.Virt.Backend.empty_hypercall ();
  check_bool "hypercall ~466ns" true (close 466.0 (Hw.Clock.now b.Virt.Backend.clock -. t0));
  check_int "shadow = 1D walk" 4 b.Virt.Backend.walk_refs

let test_pvm_nested_slightly_worse () =
  let bm = Virt.Pvm.create (mk_machine ()) in
  let nst = Virt.Pvm.create ~env:Virt.Env.Nested (mk_machine ()) in
  check_bool "same syscall cost" true (close 336.0 (getpid nst));
  check_bool "nested fault costlier" true (pgfault nst > pgfault bm)

let test_pvm_fault_context_switches () =
  let b = Virt.Pvm.create (mk_machine ()) in
  let task = Virt.Backend.spawn b in
  let clock = b.Virt.Backend.clock in
  let base =
    match
      Virt.Backend.syscall_exn b task (Kernel_model.Syscall.Mmap { pages = 1; prot = Kernel_model.Vma.prot_rw })
    with
    | Kernel_model.Syscall.Rint v -> v
    | _ -> fail "mmap"
  in
  let before = Hw.Clock.occurrences clock "pvm_fault_ctx_switch" in
  Kernel_model.Mm.touch task.Kernel_model.Task.mm base ~write:true;
  check_int "6 context switches per fault" (before + 6)
    (Hw.Clock.occurrences clock "pvm_fault_ctx_switch")

let test_pvm_shadow_sync () =
  let b = Virt.Pvm.create (mk_machine ()) in
  let task = Virt.Backend.spawn b in
  let clock = b.Virt.Backend.clock in
  let base =
    match
      Virt.Backend.syscall_exn b task (Kernel_model.Syscall.Mmap { pages = 4; prot = Kernel_model.Vma.prot_rw })
    with
    | Kernel_model.Syscall.Rint v -> v
    | _ -> fail "mmap"
  in
  let before = Hw.Clock.occurrences clock "shadow_sync" in
  ignore (Kernel_model.Mm.touch_range task.Kernel_model.Task.mm ~start:base ~pages:4 ~write:true);
  check_int "one shadow sync per installed PTE" (before + 4)
    (Hw.Clock.occurrences clock "shadow_sync")

let test_pvm_process_switch_needs_hypercall () =
  let b = Virt.Pvm.create (mk_machine ()) in
  let k = b.Virt.Backend.kernel in
  let t1 = Virt.Backend.spawn b in
  let t2 = Virt.Backend.spawn b in
  let clock = b.Virt.Backend.clock in
  let before = Hw.Clock.occurrences clock "pvm_hypercall" in
  Kernel_model.Kernel.context_switch k ~from_pid:t1.Kernel_model.Task.pid ~to_pid:t2.Kernel_model.Task.pid;
  check_bool "CR3 switch trapped to host" true
    (Hw.Clock.occurrences clock "pvm_hypercall" > before)

(* ------------------------- Cross-backend ordering ------------------ *)

let test_fault_cost_ordering () =
  let runc = pgfault (Virt.Runc.create (mk_machine ())) in
  let cki = pgfault (Cki.Container.backend (Cki.Container.create_standalone ~mem_mib:160 ())) in
  let hvm = pgfault (Virt.Hvm.create (mk_machine ())) in
  let pvm = pgfault (Virt.Pvm.create (mk_machine ())) in
  let hvm_nst = pgfault (Virt.Hvm.create ~env:Virt.Env.Nested (mk_machine ())) in
  check_bool "RunC < CKI" true (runc < cki);
  check_bool "CKI < HVM-BM" true (cki < hvm);
  check_bool "HVM-BM < PVM" true (hvm < pvm);
  check_bool "PVM < HVM-NST" true (pvm < hvm_nst)

let suite =
  [
    ("virt/runc", [ test_case "microbench anchors" `Quick test_runc_microbench ]);
    ( "virt/hvm",
      [
        test_case "BM microbench anchors" `Quick test_hvm_bm_microbench;
        test_case "nested microbench anchors" `Quick test_hvm_nst_microbench;
        test_case "EPT fault per fresh page" `Quick test_hvm_ept_fault_counting;
        test_case "gfn recycling avoids EPT faults" `Quick test_hvm_gfn_recycling_avoids_ept_faults;
        test_case "2M EPT amortizes faults" `Quick test_hvm_huge_ept_amortizes;
      ] );
    ( "virt/pvm",
      [
        test_case "microbench anchors" `Quick test_pvm_microbench;
        test_case "nested slightly worse" `Quick test_pvm_nested_slightly_worse;
        test_case "6 ctx switches per fault" `Quick test_pvm_fault_context_switches;
        test_case "shadow sync per PTE" `Quick test_pvm_shadow_sync;
        test_case "process switch traps" `Quick test_pvm_process_switch_needs_hypercall;
      ] );
    ("virt/ordering", [ test_case "page-fault cost ordering" `Quick test_fault_cost_ordering ]);
  ]
