(** The snapshot image format: a deterministic, versioned, checksummed
    record of one quiesced CKI container.

    {b Position independence.} No absolute frame number appears in an
    image.  Every frame is a {!fref}: an offset inside a delegated
    segment ([Seg]), or an index into the auxiliary-frame table ([Aux])
    for frames allocated outside the segments (KSM-private page tables,
    KSM code/data, per-vCPU areas, the guest kernel image).  Restore
    delegates fresh segments, allocates fresh auxiliary frames and
    re-bases every reference — including the frame field of every PTE —
    so an image can land at any hPA on any machine.

    {b Preserved invariants.} The image carries the monitor's full
    claimed state (declared PTPs with levels, registered roots with
    their per-vCPU copies, the fixed template slots) {e and} the raw
    permission/pkey/accessed/dirty bits of every live PTE, so a restored
    container re-establishes I1–I3, W^X, the kernel-exec freeze and
    per-vCPU copy coherence exactly; the restore path re-verifies this
    with the analysis scanner rather than trusting the image.

    {b Wire form.} Line-oriented text: a [CKI-SNAPSHOT v<n>] magic
    line, an FNV-1a-64 checksum of the payload, then the payload with
    every unordered collection sorted — encoding is a pure function of
    the logical container state, so capture∘restore∘capture is
    byte-identical.  Excluded by design: container id, PCID, clock
    time, TLB contents (an empty TLB on restore is just a full flush)
    and the guest kernel's direct map — its VA layout keys on physical
    addresses, so {!Cki.Ksm.restore} rebuilds it from the new segment
    bases rather than relocating stale keys. *)

type fref = Seg of { seg : int; off : int } | Aux of int

type aux_kind = Pt of int | Ksm_code | Ksm_data | Kernel_code

type entry = {
  e_index : int;
  e_bits : int64;  (** raw PTE with the frame field zeroed *)
  e_target : fref;
}

type table = {
  t_frame : fref;
  t_level : int;
  t_va : Hw.Addr.va;  (** base VA the table's slot 0 translates *)
  t_entries : entry list;
}

type root = { r_frame : fref; r_copies : fref array }
type vcpu_area = { a_l3 : fref; a_frames : fref array }

type cpu_state = {
  c_kernel : bool;
  c_pkrs : int;
  c_if : bool;
  c_gs : int;
  c_kgs : int;
  c_cr3 : fref;
}

type vma_rec = {
  v_start : Hw.Addr.va;
  v_stop : Hw.Addr.va;
  v_prot : bool * bool * bool;  (** read, write, exec *)
  v_backing : Kernel_model.Vma.backing;
}

type fd_rec = { f_fd : int; f_pos : int; f_path : string }

type task_rec = {
  tk_pid : int;
  tk_parent : int;
  tk_next_fd : int;
  tk_aspace : int;
  tk_brk : Hw.Addr.va;
  tk_cursor : Hw.Addr.va;
  tk_vmas : vma_rec list;  (** sorted by start *)
  tk_pages : (Hw.Addr.vpn * fref) list;  (** sorted by vpn *)
  tk_fds : fd_rec list;  (** sorted by fd; regular files only *)
}

type t = {
  cfg : Cki.Config.t;
  segments : int array;  (** delegated segment sizes in frames *)
  aux : aux_kind array;
  ptps : (fref * int) list;  (** declared PTPs with levels, sorted *)
  kernel_root : fref;
  template : (int * int64 * fref) list;
      (** fixed L4 slots, without the rebuilt direct-map slot *)
  roots : root list;  (** kernel root first, then aspace roots by id *)
  tables : table list;  (** canonical traversal order *)
  pervcpu : vcpu_area array;
  cpus : cpu_state array;
  next_pid : int;
  next_as : int;
  buddy_blocks : (int * int) list;  (** (segment-0 offset, order), sorted *)
  aspaces : (int * fref) list;  (** aspace id -> root, sorted *)
  tasks : task_rec list;  (** sorted by pid *)
  dirs : string list;  (** tmpfs directories, parents first *)
  files : (string * string) list;  (** tmpfs regular files with contents *)
}

val strip_pfn : int64 -> int64
(** Zero a PTE's frame field (bits 12..50), keeping every other bit. *)

val with_pfn : int64 -> Hw.Addr.pfn -> int64
(** Install a relocated frame number into a stripped PTE. *)

val fnv1a64 : string -> int64

val encode : t -> string
(** Header + checksum + payload; deterministic. *)

type decode_error =
  | Bad_magic
  | Bad_version of int
  | Bad_checksum
  | Truncated
  | Malformed of string

val show_decode_error : decode_error -> string

val decode : string -> (t, decode_error) result
(** Verifies magic, version and checksum before parsing; never raises.
    It accepts only the text {!encode} writes: every image it returns
    re-encodes to the same bytes.  A refused record is named in the
    [Malformed] message ([<tag> record: <line>]). *)

val write_file : string -> t -> unit
val read_file : string -> (t, decode_error) result
