(** The calibrated nanosecond cost model — the single source of truth
    for every latency the simulator charges.

    A cost is one {!item}: the clock event it is charged to and its
    nanoseconds.  Only this module builds items, so {!Clock.charge}
    can charge no amount that is not declared here.  Items of one
    event name share that event's counter: the five page-fault
    handlers are all ["pf_service"].

    Anchors come from the paper's own microbenchmarks (Table 2,
    Figure 10, Section 7.1) measured on an AMD EPYC-9654; see the
    implementation for the per-constant provenance notes. *)

type item

val name : item -> string
(** The clock event the item is charged to. *)

val ns : item -> float
(** Nanoseconds per charge (per unit for {!Clock.charge_n}). *)

val sized : item -> int -> float
(** [sized item n] is the item's nanoseconds plus [n] units of its
    per-unit rate ({!switch_forward}'s bytes, {!fabric_transfer}'s). *)

(** {2 Event slots}

    Each event name has one slot, numbered in order of first use and
    shared by every item of that name; a clock keeps its counters in
    arrays indexed by slot. *)

val slot : item -> int

val slot_of_name : string -> int
(** The name's slot, registered on first use. *)

val find_slot : string -> int option
(** The name's slot if it is registered; registers nothing. *)

val slot_name : int -> string

(** {2 Syscall path primitives} *)

val syscall_entry_exit : item
val syscall_instruction : item
val runc_pid_ns_translation : item
val extra_mode_switch : item
val pvm_sys_emul_mode : item
val cr3_switch : item
val cki_wo_opt2 : item
val pvm_sys_emul_cr3 : item
val pks_switch : item
val driver_gate : item
val inkernel_syscall : item
val driver_ipc : item
val ksm_call : item
val pti_overhead : item
val ibrs_overhead : item

(** {2 Page-fault path primitives (Figure 10a)} *)

val pf_handler_native : item
val pf_handler_cki : item
val pf_handler_pvm : item
val pf_handler_hvm_bm : item
val pf_handler_hvm_nst : item
val ept_fault_bm : item
val ept_fault_nst : item
val pvm_fault_vmexits : item
val pvm_fault_spt_emulation : item
val pvm_fault_nst_extra : item
val shadow_emulation : item
val pku_fault_injection : item

(** {2 Hypercall / VM-exit primitives} *)

val vmexit_bm : item
val vmexit_nst : item
val pvm_hypercall_bm : item
val pvm_hypercall_nst : item
val cki_hypercall : item
val host_timer_setup : item
val host_ipi : item

(** {2 Memory system} *)

val walk_mem_ref : item
val walk_refs_native : int
val walk_refs_2d : int
val walk_refs_native_huge : int
val walk_refs_2d_huge : int
val tlb_hit : item
val invlpg : item

(** {2 Interrupts and scheduling} *)

val irq_delivery : item
val host_irq_handler : item
val cki_irq_exit : item
val virq_inject : item
val ctx_switch_work : item

(** {2 Devices (VirtIO)} *)

val virtio_backend_service : item
val virtio_frontend_work : item
val virtio_tx_stall : item
val doorbell_write : item
val virtio_doorbell : item
val event_idx_check : item
val virtio_ring_init : item
val blk_sector : item
val switch_forward : item
val fabric_transfer : item
val pvm_mmio_emulation : item
val nested_irq_extra : item

(** {2 Generic kernel work} *)

val vfs_lookup_component : item
val file_copy : item
val pipe_copy : item
val virtio_copy : item
val per_pte_copy : item
val execve_teardown : item
val signal_dispatch : item
val af_unix_overhead : item

(** {2 Syscall base work}

    Each syscall's fixed kernel-side work beyond the entry/exit path and
    the structural costs (copies, lookups) charged as it goes, charged
    to ["sys_" ^ name]. *)

val sys_getpid : item
val sys_read : item
val sys_write : item
val sys_open : item
val sys_close : item
val sys_stat : item
val sys_fstat : item
val sys_lseek : item
val sys_fsync : item
val sys_unlink : item
val sys_mkdir : item
val sys_mmap : item
val sys_munmap : item
val sys_mprotect : item
val sys_brk : item
val sys_fork : item
val sys_execve : item
val sys_exit : item
val sys_pipe : item
val sys_socket : item
val sys_send : item
val sys_recv : item
val sys_sched_yield : item
val sys_nanosleep : item

(** {2 Container lifecycle} *)

val guest_kernel_boot : item
val restore_frame : item
val restore_table : item
val capture_table : item
val cow_map_pte : item
val cow_break_copy : item
