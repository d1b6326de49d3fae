(* The CKI host-kernel side: hPA segment delegation, vCPU scheduling,
   VirtIO backends, hardware-interrupt handling and virtual-interrupt
   injection (Sections 3.3 and 4.2, "slow paths").

   In a nested cloud the host kernel *is* the L1 kernel; the crucial
   property is that a CKI exit never involves the L0 hypervisor, so the
   costs here are environment-independent. *)

type delegated = { base : Hw.Addr.pfn; frames : int; container : int }

(* How segments are delegated.  [First_fit] is the paper's inherited
   limitation: the whole request must be one contiguous run, so churn
   plus interleaved host allocations eventually leaves no run long
   enough even when plenty of total memory is free.  [Scatter] tries
   contiguous first and, when no run fits, adaptively splits the
   request into smaller chunks (halving down to [scatter_min_chunk]),
   so delegation succeeds whenever enough memory exists in runs of at
   least the minimum chunk — the property the fleet's create/destroy
   churn depends on. *)
type policy = First_fit | Scatter

let scatter_min_chunk = 64 (* 256 KiB: bounds the zone count per container *)

type t = {
  machine : Hw.Machine.t;
  clock : Hw.Clock.t;
  host_root : Hw.Addr.pfn;  (** host kernel page-table root *)
  host_pcid : int;
  mutable policy : policy;
  mutable delegations : delegated list;
  mutable next_container : int;
}

(* [first_container] separates container-id spaces when several host
   instances share one machine (fleet host slices): delegations and
   frame owners are tagged by container id, so ids must stay unique
   machine-wide. *)
let create ?(policy = Scatter) ?(first_container = 1) (machine : Hw.Machine.t) =
  let mem = Hw.Machine.mem machine in
  let host_root = Hw.Phys_mem.alloc mem ~owner:Hw.Phys_mem.Host ~kind:(Hw.Phys_mem.Page_table 4) in
  {
    machine;
    clock = Hw.Machine.clock machine;
    host_root;
    host_pcid = 0;
    policy;
    delegations = [];
    next_container = first_container;
  }

let machine t = t.machine
let host_root t = t.host_root
let host_pcid t = t.host_pcid
let policy t = t.policy
let set_policy t p = t.policy <- p

let fresh_container_id t =
  let id = t.next_container in
  t.next_container <- id + 1;
  id

(* Delegate a contiguous hPA segment to [container].  First-fit over
   physical memory — the fragmentation-prone allocation the paper
   acknowledges as CKI's limitation. *)
let delegate_segment t ~container ~frames =
  let mem = Hw.Machine.mem t.machine in
  let base =
    Hw.Phys_mem.alloc_contiguous mem ~owner:(Hw.Phys_mem.Container container)
      ~kind:Hw.Phys_mem.Data ~count:frames
  in
  t.delegations <- { base; frames; container } :: t.delegations;
  (base, frames)

(* Scatter delegation: contiguous when a run exists (so the layout is
   identical to first-fit on an unfragmented host), otherwise split the
   request adaptively — halve the attempted chunk on every contiguous
   failure, down to [scatter_min_chunk].  Chunks are recorded as
   independent delegations, so [reclaim_segment] and the analysis
   scanner need no special casing.  On failure every chunk already
   taken is rolled back before Out_of_memory propagates. *)
let delegate_scatter t ~container ~frames =
  let mem = Hw.Machine.mem t.machine in
  let chunks = ref [] in
  let rollback () = List.iter (fun (base, count) -> Hw.Phys_mem.free_range mem ~base ~count) !chunks in
  let rec fill remaining attempt =
    if remaining > 0 then
      let attempt = min attempt remaining in
      match
        Hw.Phys_mem.alloc_contiguous mem ~owner:(Hw.Phys_mem.Container container)
          ~kind:Hw.Phys_mem.Data ~count:attempt
      with
      | base ->
          chunks := (base, attempt) :: !chunks;
          fill (remaining - attempt) attempt
      | exception Hw.Phys_mem.Out_of_memory ->
          if attempt <= scatter_min_chunk then begin
            rollback ();
            raise Hw.Phys_mem.Out_of_memory
          end
          else fill remaining (max scatter_min_chunk (attempt / 2))
  in
  fill frames frames;
  let segs = List.rev !chunks in
  List.iter (fun (base, n) -> t.delegations <- { base; frames = n; container } :: t.delegations) segs;
  segs

let delegate t ~container ~frames =
  match t.policy with
  | First_fit -> [ delegate_segment t ~container ~frames ]
  | Scatter -> delegate_scatter t ~container ~frames

let reclaim_segment t ~container =
  let mem = Hw.Machine.mem t.machine in
  let mine, rest = List.partition (fun d -> d.container = container) t.delegations in
  List.iter (fun d -> Hw.Phys_mem.free_range mem ~base:d.base ~count:d.frames) mine;
  t.delegations <- rest

let delegations_of t ~container = List.filter (fun d -> d.container = container) t.delegations

(* Host-side handler for hypercall requests (the global-data privileged
   operations of Section 3.3: VirtIO, timers, vCPU pause, IPIs). *)
let handle_hypercall t (kind : Kernel_model.Platform.io_kind) =
  match kind with
  | Kernel_model.Platform.Net_tx | Kernel_model.Platform.Net_rx_ack
  | Kernel_model.Platform.Blk_read | Kernel_model.Platform.Blk_write ->
      (* A device doorbell: the MMIO write lands in the host backend.
         The VirtIO service cost is charged by the queue owner
         (Kernel_model.Virtio.service); here only the write itself. *)
      Hw.Clock.charge t.clock Hw.Cost.doorbell_write
  | Kernel_model.Platform.Timer -> Hw.Clock.charge t.clock Hw.Cost.host_timer_setup
  | Kernel_model.Platform.Ipi -> Hw.Clock.charge t.clock Hw.Cost.host_ipi
  | Kernel_model.Platform.Console -> ()

(* A hardware interrupt arrived while a container vCPU was running: the
   interrupt gate redirected it here; handle and inject a virtual
   interrupt on resume. *)
let handle_hw_interrupt t ~vector =
  ignore vector;
  Hw.Clock.charge t.clock Hw.Cost.host_irq_handler

let inject_virq t = Hw.Clock.charge t.clock Hw.Cost.virq_inject

