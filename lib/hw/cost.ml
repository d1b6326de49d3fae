(* The calibrated nanosecond cost model — the single source of truth for
   every latency the simulator charges.  Each cost is declared once, as
   an item carrying its clock event name and nanoseconds.

   Anchors come from the paper's own microbenchmarks (Table 2, Figure 10,
   Section 7.1) measured on an AMD EPYC-9654:

     - RunC getpid                       =   93 ns
     - CKI  getpid                       =   90 ns
     - PVM  getpid                       =  336 ns  (+2 mode, +2 CR3 switches)
     - CKI-wo-OPT2 getpid                =  238 ns  (= 90 + 2 x 74 CR3)
     - CKI-wo-OPT3 getpid                =  153 ns  (= 90 + 2 x 31.5 PKS)
     - native page-fault service         ~ 1000 ns
     - CKI KSM calls per fault           =   77 ns  (PTE update + iret)
     - HVM EPT fault     BM / NST        = 2093 / 30881 ns
     - PVM fault VM exits + SPT emu      = 1532 + 1828 ns
     - empty hypercall HVM BM / NST      = 1088 / 6746 ns
     - empty hypercall PVM BM / NST      =  466 /  486 ns
     - empty hypercall CKI               =  390 ns *)

type item = { name : string; ns : float; per : float; slot : int }

(* Event names by slot, shared by every clock: items register theirs
   when this module is initialised, [Clock.count] any other on first
   use.  The simulator runs on one domain. *)
let slots : (string, int) Hashtbl.t = Hashtbl.create 128
let names = ref [||]

let slot_of_name name =
  match Hashtbl.find_opt slots name with
  | Some i -> i
  | None ->
      let i = Array.length !names in
      Hashtbl.add slots name i;
      names := Array.append !names [| name |];
      i

let find_slot name = Hashtbl.find_opt slots name
let slot_name i = !names.(i)
let item ?(per = 0.0) name ns = { name; ns; per; slot = slot_of_name name }
let name it = it.name
let ns it = it.ns
let slot it = it.slot
let sized it n = it.ns +. (float_of_int n *. it.per)

(* ------------------------------------------------------------------ *)
(* Syscall path primitives                                             *)
(* ------------------------------------------------------------------ *)

(* Hardware ring3<->ring0 crossing pair (syscall+sysret incl. swapgs). *)
let syscall_entry_exit = item "syscall" 87.0
let syscall_instruction = item "syscall_entry_exit" syscall_entry_exit.ns

(* Work of getpid under RunC: namespaces add a pid translation. *)
let runc_pid_ns_translation = item "runc_ns" 3.0

(* One extra user/kernel ring crossing (PVM's syscall redirection adds
   two of these on top of the native pair). *)
let extra_mode_switch = item "pvm_mode_switch" 49.0
let pvm_sys_emul_mode = item "pvm_sys_emul_mode" extra_mode_switch.ns

(* A CR3 load including the TLB/PCID bookkeeping it implies. *)
let cr3_switch = item "cr3_switch" 74.0
let cki_wo_opt2 = item "cki_wo_opt2" cr3_switch.ns
let pvm_sys_emul_cr3 = item "pvm_sys_emul_cr3" cr3_switch.ns

(* A PKS switch on the syscall path when sysret/swapgs must be emulated
   (wrpkrs + post-write sanity check) — CKI-wo-OPT3 pays two of these. *)
let pks_switch = item "cki_wo_opt3" 31.5
let driver_gate = item "driver_gate" pks_switch.ns
let inkernel_syscall = item "inkernel_syscall" (2.0 *. pks_switch.ns)

let driver_ipc =
  item "driver_ipc" ((2.0 *. extra_mode_switch.ns) +. (2.0 *. cr3_switch.ns) +. 180.0)

(* A full KSM call gate round trip: wrpkrs in, secure-stack switch,
   dispatch, wrpkrs out, abuse check.  No PTI/IBRS needed because only
   container-private data is mapped in the KSM (Section 3.3). *)
let ksm_call = item "ksm_call" 38.5

(* Side-channel mitigations that a host-kernel crossing must pay and a
   KSM gate avoids: PTI page-table swap + IBRS write (Section 3.3 cites
   "hundreds of CPU cycles"). *)
let pti_overhead = item "gate_pti" 110.0
let ibrs_overhead = item "gate_ibrs" 55.0

(* ------------------------------------------------------------------ *)
(* Page-fault path primitives (Figure 10a decomposition)               *)
(* ------------------------------------------------------------------ *)

(* Guest/native kernel demand-fault service: VMA lookup, frame alloc,
   zeroing, PTE install.  Per-backend handler figures differ slightly
   because the handler executes under different kernels/configs. *)
let pf_handler_native = item "pf_service" 1000.0
let pf_handler_cki = item "pf_service" 990.0
let pf_handler_pvm = item "pf_service" 1065.0
let pf_handler_hvm_bm = item "pf_service" 1164.0
let pf_handler_hvm_nst = item "pf_service" 1684.0

(* HVM: the EPT violation that follows a fresh gPA allocation.
   BM: one VM exit + EPT update.  NST: L0/L1 bouncing + shadow-EPT
   emulation (about 4 nested exits + SEPT work). *)
let ept_fault_bm = item "ept_fault_bm" 2093.0
let ept_fault_nst = item "ept_fault_nst" 30881.0

(* PVM: per-fault VM exits (redirection + SPT update round trips) and
   the shadow-paging emulation work (guest PT walk, instruction
   emulation, SPTE generation, exception injection). *)
let pvm_fault_vmexits = item "pvm_fault_vmexits" 1532.0
let pvm_fault_spt_emulation = item "pvm_fault_spt" 1828.0

(* Nested PVM pays slightly more per fault (Table 2: 7346 vs 6727). *)
let pvm_fault_nst_extra = item "pvm_fault_nst_extra" 619.0

(* PVM: a guest PTE write outside the fault path traps, and the host
   emulates it beside the hypercall. *)
let shadow_emulation = item "shadow_emulation" 300.0

(* Design-PKU ablation (Section 3.1): a ring-3 guest kernel needs the
   host to inject each fault across the ring boundary. *)
let pku_fault_injection = item "pku_fault_injection" 750.0

(* ------------------------------------------------------------------ *)
(* Hypercall / VM-exit primitives                                      *)
(* ------------------------------------------------------------------ *)

let vmexit_bm = item "vmexit" 1088.0

(* Nested HVM: every L2 exit traps to L0, which resumes L1, which
   handles and traps back to L0, which resumes L2. *)
let vmexit_nst = item "vmexit_nested" 6746.0

let pvm_hypercall_bm = item "pvm_hypercall" 466.0
let pvm_hypercall_nst = item "pvm_hypercall_nst" 486.0

(* CKI hypercall: PKS switch + full context switch (CR3, registers,
   IBRS in the host direction). *)
let cki_hypercall = item "cki_hypercall" 390.0

(* Host work behind a CKI timer or IPI hypercall. *)
let host_timer_setup = item "host_timer_setup" 120.0
let host_ipi = item "host_ipi" 200.0

(* ------------------------------------------------------------------ *)
(* Memory system                                                       *)
(* ------------------------------------------------------------------ *)

(* One page-walk memory reference (mix of cache hits/misses). *)
let walk_mem_ref = item "tlb_miss_walk" 14.0

(* References for a 1-D (native) and 2-D (EPT) page walk: 4 levels
   native; (4+1)*(4+1)-1 = 24 for the two-dimensional walk. *)
let walk_refs_native = 4
let walk_refs_2d = 24

(* Huge (2 MiB) pages remove one level: 3 refs native, 15 refs 2-D. *)
let walk_refs_native_huge = 3
let walk_refs_2d_huge = 15

(* A TLB hit costs (effectively) nothing beyond the access itself. *)
let tlb_hit = item "tlb_hit" 1.0

(* Copying / zeroing a 4 KiB page. *)
let page_zero = 250.0

(* invlpg executed by a kernel. *)
let invlpg = item "invlpg" 120.0

(* ------------------------------------------------------------------ *)
(* Interrupts and scheduling                                           *)
(* ------------------------------------------------------------------ *)

(* Native interrupt delivery (IDT vectoring + handler entry/exit). *)
let irq_delivery = item "irq" 300.0
let host_irq_handler = item "host_irq_handler" irq_delivery.ns
let cki_irq_exit = item "cki_irq_exit" irq_delivery.ns

(* Injecting a virtual interrupt into a resumed guest. *)
let virq_inject = item "virq_inject" 150.0

(* Kernel context switch between two tasks (same address space family). *)
let ctx_switch_work = item "ctx_switch" 900.0

(* ------------------------------------------------------------------ *)
(* Devices (VirtIO)                                                    *)
(* ------------------------------------------------------------------ *)

(* Host-side servicing of one VirtIO queue notification. *)
let virtio_backend_service = item "virtio_service" 800.0

(* MMIO doorbell write: for HVM this is a VM exit; CKI replaces MMIO
   with hypercalls; RunC does not virtualize I/O at all. *)
let virtio_frontend_work = item "virtio_post" 200.0
let virtio_tx_stall = item "virtio_tx_stall" virtio_frontend_work.ns

(* Writing the doorbell register itself (the uncached MMIO/MSR store
   the guest performs before the exit it may or may not take). *)
let doorbell_write = item "doorbell_write" 50.0
let virtio_doorbell = item "virtio_doorbell" doorbell_write.ns

(* Reading the EVENT_IDX suppression field on the notify-or-not check
   (one cache-coherent load of the peer-written event index). *)
let event_idx_check = item "virtio_event_idx" 5.0

let virtio_ring_init = item "virtio_ring_init" page_zero

(* Host block store: media + request overhead per 512-byte sector. *)
let blk_sector = item "blk_io" 600.0

(* Copying one byte (file, pipe, ring and switch copies). *)
let copy_byte = 0.03

(* Inter-container software switch: per-packet lookup + enqueue on the
   destination port (the host-side vswitch fast path), plus the copy. *)
let switch_forward = item "switch_forward" 250.0 ~per:copy_byte

(* Every fabric link is 1 GB/s (one byte per ns) with 20 us latency. *)
let fabric_transfer = item "fabric_transfer" 20_000.0 ~per:1.0

(* PVM's virtio frontend kicks through emulated MMIO: the exit plus
   instruction decoding/emulation work in the host. *)
let pvm_mmio_emulation = item "pvm_mmio_emulation" 1800.0

(* Extra cost of delivering a device interrupt to the L1 host kernel in
   a nested cloud (L0 posts it into the IaaS VM); applies to every
   backend whose host kernel is the L1 kernel (RunC/PVM/CKI).  HVM L2
   guests pay full nested VM exits instead. *)
let nested_irq_extra = item "nested_irq_extra" 1000.0

(* ------------------------------------------------------------------ *)
(* Generic kernel work                                                 *)
(* ------------------------------------------------------------------ *)

let vfs_lookup_component = item "vfs_lookup" 120.0
let file_copy = item "file_copy" copy_byte
let pipe_copy = item "pipe_copy" copy_byte
let virtio_copy = item "virtio_copy" copy_byte
let per_pte_copy = item "fork_page_copy" 18.0
let execve_teardown = item "execve_teardown" per_pte_copy.ns

(* lmbench extras: signal delivery to a handler, AF_UNIX bookkeeping
   beyond a pipe's. *)
let signal_dispatch = item "signal_dispatch" 600.0
let af_unix_overhead = item "af_unix_overhead" 500.0

(* ------------------------------------------------------------------ *)
(* Syscall base work                                                   *)
(* ------------------------------------------------------------------ *)

(* getpid's own work is trivial; fork, execve and exit carry the
   address-space setup and teardown a process lifecycle pays. *)
let sys_getpid = item "sys_getpid" 3.0
let sys_read = item "sys_read" 180.0
let sys_write = item "sys_write" 180.0
let sys_open = item "sys_open" 400.0
let sys_close = item "sys_close" 80.0
let sys_stat = item "sys_stat" 250.0
let sys_fstat = item "sys_fstat" 250.0
let sys_lseek = item "sys_lseek" 40.0
let sys_fsync = item "sys_fsync" 600.0
let sys_unlink = item "sys_unlink" 350.0
let sys_mkdir = item "sys_mkdir" 400.0
let sys_mmap = item "sys_mmap" 450.0
let sys_munmap = item "sys_munmap" 350.0
let sys_mprotect = item "sys_mprotect" 300.0
let sys_brk = item "sys_brk" 200.0
let sys_fork = item "sys_fork" 35_000.0
let sys_execve = item "sys_execve" 120_000.0
let sys_exit = item "sys_exit" 20_000.0
let sys_pipe = item "sys_pipe" 400.0
let sys_socket = item "sys_socket" 500.0
let sys_send = item "sys_send" 250.0
let sys_recv = item "sys_recv" 250.0
let sys_sched_yield = item "sys_sched_yield" 50.0
let sys_nanosleep = item "sys_nanosleep" 100.0

(* ------------------------------------------------------------------ *)
(* Container lifecycle: cold boot vs snapshot restore vs warm clone    *)
(* ------------------------------------------------------------------ *)

(* Cold-booting a guest kernel: decompress + early init + driver probe
   + rootfs mount.  Firecracker-class microVM kernels land in the
   ~125 ms range; this is what snapshot restore and warm cloning
   amortize away. *)
let guest_kernel_boot = item "guest_kernel_boot" 125_000_000.0

(* Importing one frame from a snapshot image into a freshly delegated
   segment (allocate + copy + metadata fix-up); a table captured or
   restored costs the same. *)
let restore_frame = item "snapshot_restore_frame" 120.0
let restore_table = item "snapshot_restore_table" restore_frame.ns
let capture_table = item "snapshot_capture_table" restore_frame.ns

(* Installing one copy-on-write PTE to a shared template frame during a
   warm clone: refcount bump + write-protected leaf write. *)
let cow_map_pte = item "snapshot_cow_map" 25.0

(* Breaking a CoW share on first write: allocate + copy the page. *)
let cow_break_copy = item "cow_break_copy" page_zero
