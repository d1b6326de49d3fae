(** Restore and warm-clone: rebuild containers from images.

    Both paths delegate a fresh segment, allocate fresh KSM-private
    frames, and rewrite every captured PTE with relocated frame numbers
    through {!Cki.Ksm.restore} — so the monitor's declared-PTP set,
    root registrations and the kernel-exec freeze are re-established,
    never trusted from the image.  Unless [verify] is [false], the
    result is checked with {!Analysis.check_machine} before being
    handed out and a finding turns into [Verify_failed].

    The image does not choose vCPU privilege state: a vCPU whose PKRS
    is not {!Hw.Pks.pkrs_guest}, or whose relocated CR3 is not a
    declared root or a per-vCPU copy of one, is refused with
    [Untrusted_vcpu_state] (the partial rebuild is rolled back).

    The {e clone} path additionally shares the template's frozen
    read-only frames: user-range leaf PTEs over shared frames are
    redirected at the template (write bit cleared, reference taken) and
    the guest kernel image is shared outright, so a clone materializes
    only metadata until writes break CoW. *)

type error =
  | Unsupported_image of string
  | Untrusted_vcpu_state of string  (** forged PKRS or CR3 in a vCPU record *)
  | Verify_failed of string

val show_error : error -> string

val restore :
  ?env:Virt.Env.t -> ?verify:bool -> Cki.Host.t -> Image.t -> (Cki.Container.t, error) result
(** Full restore onto [host] (same or different machine): fresh
    container id, PCID and hPA segment; every frame's contents conceptually
    copied (charged at {!Hw.Cost.restore_frame} per frame). *)

val clone_of :
  ?verify:bool ->
  Cki.Host.t ->
  Image.t ->
  orig_seg_bases:Hw.Addr.pfn array ->
  orig_aux:Hw.Addr.pfn array ->
  (Cki.Container.t, error) result
(** Warm clone against a live frozen template on the {e same} machine
    ([orig_*] from {!Capture.capture_full}'s map say where the
    template's frames live).  Use {!Template.clone} rather than calling
    this directly. *)

val materialized_frames : Cki.Container.t -> int
(** Frames the container has actually materialized: KSM-private state,
    own page tables and kernel image, plus resident pages minus those
    still CoW-shared with a template.  Untouched free segment frames
    are excluded — they are address space, not memory.  Computed from
    owner counts and the KSM's declared-PTP count, plus one term per
    task: no frame is visited. *)
