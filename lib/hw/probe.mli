(** Hardware/monitor event probes.

    Low-overhead hook points scattered through the simulator ([Cpu],
    [Idt], [Pks], the KSM, the gates, the guest [Mm]) emit typed events
    here. Nothing is recorded unless a sink is installed — the analysis
    library's trace recorder attaches one around a scenario and lints
    the resulting event stream afterwards.

    Events carry only primitive payloads so this module sits below
    everything else in [hw] (only {!Pks}-free, {!Priv}-free data), and
    any layer may emit without dependency cycles. *)

(** Which switch gate an event refers to. *)
type gate = Ksm_call_gate | Hypercall_gate | Interrupt_gate

val gate_name : gate -> string

type event =
  | Priv_exec of {
      cpu : int;
      mnemonic : string;
      destructive : bool;  (** blocked-in-guest per Table 3 *)
      pkrs : int;  (** PKRS at the attempt *)
      blocked : bool;  (** did extension E2 fault it? *)
    }
  | Wrpkrs of { cpu : int; value : int }  (** a successful PKRS write *)
  | Sysret of { cpu : int; pkrs : int; if_after : bool }  (** E3 *)
  | Iret of { cpu : int; pkrs_before : int; pkrs_after : int }  (** E4 *)
  | Gate_enter of { cpu : int; gate : gate; pkrs : int }
  | Gate_exit of { cpu : int; gate : gate; entry_pkrs : int; pkrs : int }
  | Idt_deliver of {
      cpu : int;
      vector : int;
      hardware : bool;
      pks_switch : bool;
      pkrs_before : int;
      pkrs_after : int;
    }
  | Tlb_fill of { cpu : int; pcid : int; vpn : int; level : int; pfn : int }
  | Tlb_invlpg of { cpu : int; pcid : int; vpn : int }
  | Tlb_flush_pcid of { cpu : int; pcid : int }
  | Cr3_load of { cpu : int; pcid : int; root : int }
  | Pks_denied of { key : int; write : bool }
  | Ksm_op of { container : int; op : string; ok : bool }
  | Pte_downgrade of {
      container : int;
      root : int;
      vpn : int;
      unmapped : bool;  (** true: PTE cleared; false: write-protected *)
    }
  | Container_boot of { container : int; pcid : int }
  | Mm_op of { op : string; vpn : int; pages : int }
  | Io_doorbell of { queue : string; avail_idx : int; in_flight : int }
      (** a VirtIO doorbell actually rang (suppressed kicks don't emit);
          [in_flight] = avail entries the host has not yet serviced *)
  | Io_completion of { queue : string; used_idx : int; serviced : int }
      (** a VirtIO completion interrupt was injected; [serviced] = used
          entries this injection signals *)

val pp_event : Format.formatter -> event -> unit
val show_event : event -> string

(** {1 Int-encoded event rings}

    A flat preallocated ring of fixed-stride int-encoded event words:
    recording through a ring sink is a handful of array stores with no
    allocation, and the stream is decoded back into {!event} values
    lazily ({!ring_events}) at lint time.  Overflow drops the oldest
    record and counts it.  String payloads are interned in a per-ring
    side table. *)

type ring

val ring_create : ?capacity:int -> unit -> ring
(** Default capacity 65536 events. *)

val ring_length : ring -> int

val ring_dropped : ring -> int
(** Records lost to overflow. *)

val ring_record : ring -> event -> unit
(** Encode one boxed event into the ring (generic path; also the
    injection point for fault-injection tests). *)

val ring_events : ring -> event list
(** Decode the live records, oldest first. *)

(** {1 The sink}

    One process-wide sink slot: the simulator runs on one domain. *)

val active : unit -> bool
(** Cheap guard: emitters must test this before constructing an event,
    so the disabled path costs one load and no allocation. *)

val emit : event -> unit
(** Deliver [ev] to the installed sink (no-op when none). *)

val set_ring : ring -> unit
(** Install a ring sink. Replaces any previous sink. *)

val clear_sink : unit -> unit

val suspended : (unit -> 'a) -> 'a
(** [suspended f] runs [f] with no sink installed and restores the
    previous sink afterwards (even on exception). Used by the model
    checker so exploration does not flood an attached recorder. *)

(** {1 Specialized hot emitters}

    The engine's steady-state emit sites: with a ring sink these write
    int words directly — no event boxing, no closure call; with no sink
    they cost the [active] guard alone. *)

val emit_tlb_fill : cpu:int -> pcid:int -> vpn:int -> level:int -> pfn:int -> unit
val emit_io_doorbell : queue:string -> avail_idx:int -> in_flight:int -> unit
val emit_io_completion : queue:string -> used_idx:int -> serviced:int -> unit
