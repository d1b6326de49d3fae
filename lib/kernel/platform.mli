(** The platform interface: everything a kernel needs from the
    privilege layer underneath it.

    The same model kernel runs as the native/host kernel (RunC), an HVM
    guest, a PVM guest, or a CKI guest; each backend supplies this
    record, and the paper's cost structure falls out of which
    operations are expensive on which platform. *)

type io_kind = Net_tx | Net_rx_ack | Blk_read | Blk_write | Timer | Ipi | Console

val pp_io_kind : Format.formatter -> io_kind -> unit
val show_io_kind : io_kind -> string
val equal_io_kind : io_kind -> io_kind -> bool

type aspace = int
(** Opaque address-space handle, interpreted by the backend. *)

type t = {
  name : string;
  clock : Hw.Clock.t;
  alloc_frame : unit -> Hw.Addr.pfn;
      (** one data frame for the kernel's allocator (a gPA under
          HVM/PVM; a host-physical frame under RunC/CKI) *)
  free_frame : Hw.Addr.pfn -> unit;
  as_create : unit -> aspace;
  as_destroy : aspace -> unit;
  as_switch : aspace -> unit;  (** process context switch (CR3 load) *)
  pte_install : aspace -> va:Hw.Addr.va -> pfn:Hw.Addr.pfn -> writable:bool -> user:bool -> unit;
  pte_remove : aspace -> va:Hw.Addr.va -> unit;
  pte_protect :
    aspace -> vpns:Hw.Addr.vpn array -> writable:bool -> shootdown:(Hw.Addr.va -> unit) -> unit;
      (** set the writable bit of every resident page of an ascending
          run, calling [shootdown] with each page's address right after
          its own update (CKI: one [Ksm.guest_protect] for the run, one
          KSM call per page); [shootdown] must not change page tables *)
  fault_round_trip : unit -> unit;
      (** everything a user page fault pays besides the kernel's own
          service work (VM exits, SPT emulation, KSM calls...) *)
  fault_service : Hw.Cost.item;  (** the kernel's own demand-fault service *)
  syscall_round_trip : unit -> unit;  (** full syscall entry/exit path *)
  hypercall : io_kind -> unit;  (** doorbells, timers, vCPU pause *)
  deliver_irq : unit -> unit;  (** device interrupt reaching this kernel *)
  virtualized_io : bool;
      (** I/O rides VirtIO (doorbell exits + backend service); false for
          OS-level containers using host devices natively *)
  mem : Hw.Phys_mem.t;  (** the machine's physical memory *)
  guest_frame : Hw.Addr.pfn -> Hw.Addr.pfn;
      (** the host frame behind an [alloc_frame] frame (VirtIO rings
          and payload buffers are real bytes in these pages): the
          identity under RunC/CKI, whose allocator hands out hPA
          frames; the gPA -> hPA translation under HVM/PVM *)
}

val bare : ?name:string -> Hw.Machine.t -> t
(** Bare-hardware platform for the host kernel / RunC: direct paging,
    native syscalls, no hypercalls. *)
