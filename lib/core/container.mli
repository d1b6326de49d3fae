(** A CKI secure container: guest kernel + KSM + gates on a delegated
    hPA segment, exposed through the common {!Virt.Backend.t}.

    The platform wiring carries the paper's performance structure:
    native syscalls (OPT1/2/3), page faults handled by the guest kernel
    plus exactly two KSM calls (PTE update + iret = 77 ns), validated
    CR3 loads on process switches, 390 ns hypercalls with no L0
    involvement, and single-stage translation (the guest buddy
    allocator hands out host-physical frames directly). *)

type t = {
  backend : Virt.Backend.t;
  host : Host.t;
  ksm : Ksm.t;
  gates : Gates.t;
  cpus : Hw.Cpu.t array;
  buddy : Kernel_model.Buddy.t;
  cfg : Config.t;
  container_id : int;
  pcid : int;
  aspaces : Hw.Addr.pfn Hw.Int_tbl.t;
  next_as : int ref;
}

val backend : t -> Virt.Backend.t
val ksm : t -> Ksm.t
val gates : t -> Gates.t
val cpu : t -> int -> Hw.Cpu.t
val buddy : t -> Kernel_model.Buddy.t
val container_id : t -> int
val pcid : t -> int

val enter_guest_kernel : Hw.Cpu.t -> unit
(** Put a vCPU into the guest-kernel state: kernel mode with
    PKRS = PKRS_GUEST. *)

val create : ?env:Virt.Env.t -> ?cfg:Config.t -> Host.t -> t
(** Boot a container on [Host.t]: delegates hPA segments under the
    host's delegation policy (one contiguous run under [First_fit],
    possibly several chunks under [Scatter]), constructs the KSM
    (trusted boot), allocates a PCID and vCPUs, and wires the guest
    kernel's platform.  Charges the full guest-kernel boot cost
    ({!Hw.Cost.guest_kernel_boot}) — the cost that snapshot restore and
    warm clones amortize away. *)

val has_live_clones : t -> bool
(** [true] while any frame the container or its KSM owns is shared
    read-only with a positive refcount, i.e. while a CoW clone of this
    frozen template is still alive. O(1) for a container that owns no
    shared frame ({!Hw.Phys_mem.shared_count}); O(frames owned) for a
    template. *)

val destroy : t -> unit
(** Tear the container down completely: drop the CoW references it
    holds on other containers' frozen template frames (found by walking
    its live page tables, less the direct map, which maps only its own
    segments), reclaim its delegated segments, and free
    every frame it or its KSM owns.  The operation behind fleet
    scale-in and create/destroy churn.
    @raise Invalid_argument if {!has_live_clones}. *)

val assemble :
  ?env:Virt.Env.t ->
  cfg:Config.t ->
  Host.t ->
  container_id:int ->
  pcid:int ->
  ksm:Ksm.t ->
  buddy:Kernel_model.Buddy.t ->
  aspaces:Hw.Addr.pfn Hw.Int_tbl.t ->
  next_as:int ref ->
  unit ->
  t
(** Wire a container from already-constructed parts: gates, vCPUs, the
    guest kernel's platform closures and the backend record.  [create]
    uses it after trusted KSM boot; the snapshot layer uses it with a
    KSM, buddy and address-space table rebuilt from an image, so
    restored and cloned containers get platform wiring identical to a
    cold boot.  Does not charge boot cost and does not allocate — the
    caller owns the segment, ids and PCID. *)

val create_standalone : ?env:Virt.Env.t -> ?cfg:Config.t -> ?mem_mib:int -> unit -> t
(** Convenience: fresh machine + host + one container. *)
