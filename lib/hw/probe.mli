(** Hardware/monitor event probes.

    Low-overhead hook points scattered through the simulator ([Cpu],
    [Idt], the KSM, the gates, container boot, the VirtIO queues) emit
    typed events here. Nothing is delivered unless a sink is installed —
    the analysis library installs its trace lint as the sink around a
    scenario, so each event is linted as it is emitted.

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
  | Pte_downgrade of {
      container : int;
      root : int;
      vpn : int;
      unmapped : bool;  (** true: PTE cleared; false: write-protected *)
    }
  | Container_boot of { container : int; pcid : int }
  | Io_doorbell of { queue : string; avail_idx : int; in_flight : int }
      (** a VirtIO doorbell actually rang (suppressed kicks don't emit);
          [in_flight] = avail entries the host has not yet serviced *)
  | Io_completion of { queue : string; used_idx : int; serviced : int }
      (** a VirtIO completion interrupt was injected; [serviced] = used
          entries this injection signals *)

val pp_event : Format.formatter -> event -> unit
val show_event : event -> string

(** {1 The sink}

    One process-wide sink slot: the simulator runs on one domain. *)

val active : unit -> bool
(** Cheap guard: emitters must test this before constructing an event,
    so the disabled path costs one load and no allocation. *)

val emit : event -> unit
(** Deliver [ev] to the installed sink (no-op when none). *)

val set_sink : (event -> unit) -> unit
(** Install [f] as the sink: it receives every event, in emit order.
    Replaces any previous sink. *)

val clear_sink : unit -> unit

val suspended : (unit -> 'a) -> 'a
(** [suspended f] runs [f] with no sink installed and restores the
    previous sink afterwards (even on exception). Used by the model
    checker so exploration does not flood the scenario's sink. *)
