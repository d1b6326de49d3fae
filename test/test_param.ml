(* Parameterized suites: one alcotest case per Table 3 instruction, per
   attack scenario, and per SQLite pattern, so a regression pinpoints
   the exact row that broke. *)

open Alcotest

(* One case per privileged instruction: the simulated CPU's observed
   behaviour in guest context must match the Table 3 policy, and the
   KSM/hypercall replacement must exist for blocked rows. *)
let table3_cases =
  List.map
    (fun inst ->
      test_case (Hw.Priv.mnemonic inst ^ " policy row") `Quick (fun () ->
          let cpu = Hw.Cpu.create (Hw.Clock.create ()) in
          cpu.Hw.Cpu.mode <- Hw.Cpu.Kernel;
          cpu.Hw.Cpu.pkrs <- Hw.Pks.pkrs_guest;
          let observed_blocked =
            match Hw.Cpu.exec_priv cpu inst with
            | Error (Hw.Cpu.Blocked_instruction _) -> true
            | Ok () -> false
            | Error e -> fail (Hw.Cpu.show_fault e)
          in
          check bool "observed = policy" (Hw.Priv.blocked_in_guest inst) observed_blocked;
          if observed_blocked then
            check bool "blocked row has a virtualization" true
              (Hw.Priv.virtualized_as inst <> Hw.Priv.Native)))
    Hw.Priv.all_examples

(* One case per attack scenario. *)
let attack_cases =
  let c = lazy (Cki.Container.create_standalone ~mem_mib:192 ()) in
  List.map
    (fun (name, attack) ->
      test_case ("attack: " ^ name) `Quick (fun () ->
          let c = Lazy.force c in
          check bool "blocked" true (Cki.Attacks.is_blocked (attack c))))
    [
      ("lidt", fun c -> Cki.Attacks.attempt_priv_instruction c Hw.Priv.Lidt);
      ("lgdt", fun c -> Cki.Attacks.attempt_priv_instruction c Hw.Priv.Lgdt);
      ("ltr", fun c -> Cki.Attacks.attempt_priv_instruction c Hw.Priv.Ltr);
      ("rdmsr", fun c -> Cki.Attacks.attempt_priv_instruction c (Hw.Priv.Rdmsr 0x10));
      ("wrmsr", fun c -> Cki.Attacks.attempt_priv_instruction c (Hw.Priv.Wrmsr 0x10));
      ("mov cr0", fun c -> Cki.Attacks.attempt_priv_instruction c Hw.Priv.Mov_to_cr0);
      ("mov cr3", fun c -> Cki.Attacks.attempt_priv_instruction c Hw.Priv.Mov_to_cr3);
      ("mov cr4", fun c -> Cki.Attacks.attempt_priv_instruction c Hw.Priv.Mov_to_cr4);
      ("invpcid", fun c -> Cki.Attacks.attempt_priv_instruction c Hw.Priv.Invpcid);
      ("iret", fun c -> Cki.Attacks.attempt_priv_instruction c Hw.Priv.Iret);
      ("sti", fun c -> Cki.Attacks.attempt_priv_instruction c Hw.Priv.Sti);
      ("cli", fun c -> Cki.Attacks.attempt_priv_instruction c Hw.Priv.Cli);
      ("popf", fun c -> Cki.Attacks.attempt_priv_instruction c Hw.Priv.Popf);
      ("in", fun c -> Cki.Attacks.attempt_priv_instruction c (Hw.Priv.In_port 0x60));
      ("out", fun c -> Cki.Attacks.attempt_priv_instruction c (Hw.Priv.Out_port 0x60));
      ("smsw", fun c -> Cki.Attacks.attempt_priv_instruction c Hw.Priv.Smsw);
      ("ptp write", Cki.Attacks.attempt_ptp_write);
      ("map KSM", Cki.Attacks.attempt_map_ksm_memory);
      ("map PTP writable", Cki.Attacks.attempt_map_ptp_writable);
      ("kernel-exec mapping", Cki.Attacks.attempt_kernel_exec_mapping);
      ("CR3 hijack", Cki.Attacks.attempt_cr3_hijack);
      ("gate PKRS tamper", Cki.Attacks.attempt_gate_pkrs_tamper);
      ("interrupt forgery", Cki.Attacks.attempt_interrupt_forgery);
      ("interrupt monopolize", Cki.Attacks.attempt_interrupt_monopolize);
      ("IDT rewrite", Cki.Attacks.attempt_idt_rewrite);
      ("cross-TLB flush", fun c -> Cki.Attacks.attempt_cross_container_tlb_flush c ~victim_pcid:77);
      ("per-vCPU read", Cki.Attacks.attempt_pervcpu_read);
    ]

(* One case per SQLite pattern: CKI within 3% of RunC on all seven
   (native syscalls + tmpfs = no virtualization tax anywhere). *)
let sqlite_cases =
  List.map
    (fun p ->
      test_case ("sqlite " ^ Workloads.Sqlite.pattern_name p ^ ": CKI ~ RunC") `Slow (fun () ->
          let ops = 400 in
          let runc = Virt.Runc.create (Hw.Machine.create ~mem_mib:128 ()) in
          let cki = Cki.Container.backend (Cki.Container.create_standalone ~mem_mib:192 ()) in
          let r = (Workloads.Sqlite.run_pattern runc p ~ops).Workloads.Sqlite.ops_per_sec in
          let c = (Workloads.Sqlite.run_pattern cki p ~ops).Workloads.Sqlite.ops_per_sec in
          check bool "within 3%" true (Float.abs (1.0 -. (c /. r)) < 0.03)))
    Workloads.Sqlite.all_patterns

(* One case per lmbench op asserting the Figure 11 worst-case is PVM:
   slower than each of RunC, HVM and CKI. *)
let lmbench_cases =
  let suite b = Workloads.Lmbench.run_suite ~iters:30 b in
  let machine () = Hw.Machine.create ~mem_mib:128 () in
  let suites =
    lazy
      ( suite (Virt.Pvm.create (machine ())),
        [
          ("RunC", suite (Virt.Runc.create (machine ())));
          ("HVM", suite (Virt.Hvm.create (machine ())));
          ("CKI", suite (Cki.Container.backend (Cki.Container.create_standalone ~mem_mib:128 ())));
        ] )
  in
  List.map
    (fun op ->
      test_case ("lmbench " ^ Workloads.Lmbench.op_name op ^ ": PVM slowest") `Slow (fun () ->
          let pvm, others = Lazy.force suites in
          List.iter
            (fun (name, s) -> check bool ("PVM > " ^ name) true (List.assoc op pvm > List.assoc op s))
            others))
    Workloads.Lmbench.all_ops

let suite =
  [
    ("param/table3", table3_cases);
    ("param/attacks", attack_cases);
    ("param/sqlite", sqlite_cases);
    ("param/lmbench", lmbench_cases);
  ]
