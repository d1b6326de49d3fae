(** Trace lint engine.

    Temporal rules over the {!Hw.Probe} event stream — the
    properties that are not visible in a state snapshot because they
    concern orderings: PKRS discipline across gate entry/exit, the
    extensions E2/E3/E4 actually firing, and TLB shootdowns following
    every PTE permission downgrade on every vCPU that had the mapping
    cached. *)

type finding =
  | Destructive_exec of { cpu : int; mnemonic : string; pkrs : int }
      (** Table 3 / E2: a destructive privileged instruction executed
          (not blocked) while PKRS was non-zero *)
  | Gate_pkrs_leak of { cpu : int; gate : string; entry_pkrs : int; exit_pkrs : int }
      (** a switch gate exited with PKRS different from entry rights *)
  | Sysret_if_down of { cpu : int; pkrs : int }
      (** E3: sysret left IF clear while PKRS was non-zero *)
  | Missing_shootdown of { container : int; cpu : int; pcid : int; vpn : int }
      (** a PTE permission downgrade was not followed by a TLB
          invalidation on a vCPU holding the cached translation *)
  | Forged_pks_switch of { cpu : int; vector : int; pkrs_before : int; pkrs_after : int }
      (** E4 anomaly: PKRS changed across a software vectoring, or a
          hardware PKS-switch delivery failed to zero it *)
  | Wrpkrs_outside_gate of { cpu : int; value : int }
      (** a PKRS write executed outside any switch gate — only gate
          text may contain wrpkrs (no-new-kernel-exec invariant) *)
  | Forged_completion of { queue : string; used_idx : int }
      (** a VirtIO completion interrupt was injected with no freshly
          published used-ring entries behind it — interrupt forgery
          through the I/O plane *)
  | Empty_doorbell of { queue : string; avail_idx : int }
      (** a doorbell rang with no new avail-ring entries posted — a
          phantom kick (wasted exit, or probing the host service
          path) *)

val pp_finding : Format.formatter -> finding -> unit
val show_finding : finding -> string
val equal_finding : finding -> finding -> bool

val rule_name : finding -> string
val subject : finding -> string

(** {1 Online lint}

    The lint is one pass over the stream: {!step} each event in emit
    order (install [step t] as the {!Hw.Probe} sink), then {!finish}. *)

type t

val create : unit -> t

val step : t -> Hw.Probe.event -> unit
(** Apply every rule to one event. Findings the event settles are
    recorded now: a [wrpkrs] at gate depth 0 is reported when it is
    stepped. *)

val stepped : t -> int
(** Events stepped so far. *)

val finish : t -> finding list
(** Every finding so far, oldest first, plus a [Missing_shootdown] for
    each downgrade still not followed by an invalidation. *)

val run : Hw.Probe.event list -> finding list
(** [finish] after stepping every event of the list, oldest first. *)
