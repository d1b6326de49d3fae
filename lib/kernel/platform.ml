(* The platform interface: everything a kernel needs from the privilege
   layer underneath it.

   The same model kernel runs as
     - the native/host kernel        (RunC: platform = bare hardware),
     - an HVM guest kernel           (platform = VM exits + EPT),
     - a PVM guest kernel            (platform = user-mode + shadow paging),
     - a CKI guest kernel            (platform = KSM calls + hypercalls).
   Each backend supplies this record; the cost *structure* of the paper
   falls out of which operations are expensive on which platform. *)

type io_kind = Net_tx | Net_rx_ack | Blk_read | Blk_write | Timer | Ipi | Console
[@@deriving show { with_path = false }, eq]

type aspace = int
(** Opaque address-space handle, interpreted by the backend. *)

type t = {
  name : string;
  clock : Hw.Clock.t;
  (* -------- physical memory -------- *)
  alloc_frame : unit -> Hw.Addr.pfn;
      (** allocate one data frame for the kernel's allocator to hand out *)
  free_frame : Hw.Addr.pfn -> unit;
  (* -------- address spaces -------- *)
  as_create : unit -> aspace;
  as_destroy : aspace -> unit;
  as_switch : aspace -> unit;  (** process context switch (CR3 load etc.) *)
  (* -------- page-table updates -------- *)
  pte_install : aspace -> va:Hw.Addr.va -> pfn:Hw.Addr.pfn -> writable:bool -> user:bool -> unit;
  pte_remove : aspace -> va:Hw.Addr.va -> unit;
  pte_protect :
    aspace -> vpns:Hw.Addr.vpn array -> writable:bool -> shootdown:(Hw.Addr.va -> unit) -> unit;
      (** an ascending run of pages, [shootdown] after each page's update *)
  (* -------- fault & syscall paths -------- *)
  fault_round_trip : unit -> unit;
      (** charge everything a user page fault pays besides the kernel's
          own service work (VM exits, SPT emulation, KSM calls...) *)
  fault_service : Hw.Cost.item;  (** the kernel's own demand-fault service cost *)
  syscall_round_trip : unit -> unit;
      (** charge the full syscall entry/exit path for this platform *)
  (* -------- host services -------- *)
  hypercall : io_kind -> unit;  (** device doorbells, timers, vCPU pause *)
  deliver_irq : unit -> unit;  (** device interrupt reaching this kernel *)
  virtualized_io : bool;
      (** I/O goes through VirtIO (doorbell exits + backend service);
          false for OS-level containers, which use host devices natively *)
  (* -------- guest-memory access -------- *)
  mem : Hw.Phys_mem.t;  (** the machine's physical memory *)
  guest_frame : Hw.Addr.pfn -> Hw.Addr.pfn;
      (** the host frame behind a frame returned by [alloc_frame] —
          how the shared-memory path VirtIO rings live on reaches
          guest bytes.  The pfn is in the allocator's own namespace (a
          gfn under HVM/PVM, an hPA frame under RunC/CKI): the identity
          under RunC/CKI, the second-stage translation under HVM/PVM. *)
}

(* A bare-hardware platform for the host kernel / RunC: direct paging,
   native syscalls, no hypercalls. *)
let bare ?(name = "native") (machine : Hw.Machine.t) : t =
  let mem = Hw.Machine.mem machine in
  let clock = Hw.Machine.clock machine in
  let spaces : (int, Hw.Page_table.t) Hashtbl.t = Hashtbl.create 16 in
  let next = ref 0 in
  let pt_of id =
    match Hashtbl.find_opt spaces id with
    | Some pt -> pt
    | None -> invalid_arg "Platform.bare: unknown address space"
  in
  {
    name;
    clock;
    alloc_frame = (fun () -> Hw.Phys_mem.alloc mem ~owner:Hw.Phys_mem.Host ~kind:Hw.Phys_mem.Data);
    free_frame = (fun pfn -> Hw.Phys_mem.free mem pfn);
    as_create =
      (fun () ->
        let id = !next in
        incr next;
        Hashtbl.replace spaces id (Hw.Page_table.create mem ~owner:Hw.Phys_mem.Host);
        id);
    as_destroy = (fun id -> Hashtbl.remove spaces id);
    as_switch = (fun _id -> Hw.Clock.charge clock Hw.Cost.cr3_switch);
    pte_install =
      (fun id ~va ~pfn ~writable ~user ->
        ignore
          (Hw.Page_table.map (pt_of id) ~va ~pfn
             ~flags:{ Hw.Pte.default_flags with writable; user }
             ()));
    pte_remove = (fun id ~va -> ignore (Hw.Page_table.unmap (pt_of id) va));
    pte_protect =
      (fun id ~vpns ~writable ~shootdown ->
        Array.iter
          (fun vpn ->
            let va = Hw.Addr.va_of_vpn vpn in
            Hw.Page_table.update (pt_of id) va (fun e -> Hw.Pte.with_writable e writable);
            shootdown va)
          vpns);
    fault_round_trip = (fun () -> ());
    fault_service = Hw.Cost.pf_handler_native;
    syscall_round_trip =
      (fun () -> Hw.Clock.charge clock Hw.Cost.syscall_entry_exit);
    hypercall = (fun _ -> ());
    deliver_irq = (fun () -> Hw.Clock.charge clock Hw.Cost.irq_delivery);
    virtualized_io = false;
    mem;
    guest_frame = Fun.id;
  }
