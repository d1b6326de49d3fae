(** Whole-machine invariant scanner.

    An independent re-implementation of the security conditions CKI's
    monitor enforces inline (Section 4.3, Table 3 of the paper): the
    scanner re-walks every container's live 4-level page tables in
    simulated physical memory from scratch — raw {!Hw.Phys_mem} entry
    reads, no {!Cki.Ksm} validation path involved — and cross-checks the
    machine state it finds against what the monitor {e claims}
    (declared PTPs, declared roots, delegated segments).

    Because the walker shares no code with the KSM's enforcement, a bug
    that lets corrupt state through the monitor still trips the
    scanner, and vice versa.

    The direct map is checked by runs: at a direct-map L1 table the leaf
    rules run only on the entries that are not the canonical leaf and on
    the frames that are not plain delegated data (foreign-owned,
    CoW-shared, declared PTPs, outside the segments), which are the only
    entries on which they can fire. *)

type violation =
  | Undeclared_ptp of {
      container : int;
      table : Hw.Addr.pfn;  (** the table holding the offending entry *)
      index : int;
      level : int;  (** level the child would serve at *)
      child : Hw.Addr.pfn;
    }  (** I1: a non-leaf PTE references a frame not declared as a PTP *)
  | Ptp_level_mismatch of { container : int; ptp : Hw.Addr.pfn; claimed : int; used_at : int }
      (** a declared PTP is wired into the tree at the wrong level *)
  | Ptp_kind_mismatch of { container : int; ptp : Hw.Addr.pfn; kind : string }
      (** the frame metadata of a declared PTP is not [Page_table] *)
  | Guest_writable_ptp of { container : int; ptp : Hw.Addr.pfn; va : Hw.Addr.va }
      (** I2: a leaf grants the guest write access to a declared PTP *)
  | Maps_declared_ptp of { container : int; va : Hw.Addr.va; ptp : Hw.Addr.pfn }
      (** a declared PTP is mapped outside the read-only pkey_ptp view *)
  | Targets_monitor of { container : int; va : Hw.Addr.va; pfn : Hw.Addr.pfn; owner : string }
      (** a leaf reachable by the guest targets KSM or host memory *)
  | Outside_delegation of { container : int; va : Hw.Addr.va; pfn : Hw.Addr.pfn; owner : string }
      (** a leaf targets a frame outside the delegated hPA segments *)
  | Kernel_exec_leaf of { container : int; va : Hw.Addr.va; pfn : Hw.Addr.pfn }
      (** a kernel-executable mapping outside the frozen kernel image *)
  | Wx_leaf of { container : int; va : Hw.Addr.va; pfn : Hw.Addr.pfn }
      (** writable + executable guest mapping (W^X breach) *)
  | Missing_splice of { container : int; copy : Hw.Addr.pfn; slot : int }
      (** a top-level table lacks a fixed KSM/per-vCPU template slot *)
  | Copy_divergence of { container : int; root : Hw.Addr.pfn; copy : Hw.Addr.pfn; slot : int }
      (** a per-vCPU copy's user-range slot differs from the original *)
  | Stale_tlb of { container : int; cpu : int; pcid : int; vpn : int; reason : string }
      (** a cached translation no longer matches the live page tables *)
  | Segment_overlap of { container : int; other : int; base : Hw.Addr.pfn; frames : int }
      (** two containers' delegated hPA segments intersect *)
  | Segment_owner of { container : int; pfn : Hw.Addr.pfn; owner : string }
      (** a delegated frame's ownership metadata contradicts delegation *)
  | Cow_writable of { container : int; va : Hw.Addr.va; pfn : Hw.Addr.pfn }
      (** a CoW-shared template frame is reachable through a writable
          leaf — one clone could corrupt every sibling *)

val pp_violation : Format.formatter -> violation -> unit
val show_violation : violation -> string
val equal_violation : violation -> violation -> bool

val rule_name : violation -> string
(** Short stable identifier, e.g. ["I1-undeclared-ptp"]. *)

val subject : violation -> string
(** What the violation is about, e.g. ["container 0"]. *)

val check_machine : containers:Cki.Container.t list -> violation list
(** Scan each container (page-table walk of every declared root and all
    its per-vCPU copies, declared-PTP metadata, template splices, copy
    coherence, each vCPU's TLB against the live tables), then check
    segment disjointness and frame ownership across them. *)

val check_machine_per_leaf : containers:Cki.Container.t list -> violation list
(** {!check_machine} with the leaf rules run on every direct-map leaf:
    the reference the run-based direct-map check is tested against. It
    returns the same list in the same order, at a cost per delegated
    frame. *)
