(** Seeded enforcement mutants for the model checker's mutation-testing
    harness.

    Each knob disables exactly one enforcement step of the PKS hardware
    extensions (E2/E3/E4) or of the switch gates. Production code in
    {!Cpu}, {!Idt} and [Cki.Gates] consults the singleton {!knobs}; with
    every knob at its default the enforced behaviour is exactly the
    paper's. The mutation harness flips one knob at a time (scoped via
    {!with_mutant}) and asserts the bounded model checker kills the
    mutant. *)

type knobs = {
  mutable e2_enforce : bool;
      (** E2: destructive privileged instructions fault when PKRS != 0 *)
  mutable e2_unblocked : string list;
      (** mnemonics exempted from the E2 block (policy-table mutants) *)
  mutable e3_pin_if : bool;  (** E3: sysret pins IF on when PKRS != 0 *)
  mutable e4_save_on_delivery : bool;
      (** E4: hardware delivery pushes PKRS before zeroing it *)
  mutable e4_restore_on_iret : bool;  (** E4: iret pops the saved PKRS *)
  mutable software_pks_switch : bool;
      (** forbidden: software [int] takes the PKS switch like hardware *)
  mutable gate_verify_wrpkrs : bool;
      (** Figure 8a's post-wrpkrs check in [switch_pks] *)
  mutable gate_forgery_check : bool;
      (** interrupt gate's per-vCPU accessibility check on entry *)
}

val knobs : knobs
(** The singleton consulted by enforcement sites. All defaults encode
    the paper's behaviour. *)

val reset : unit -> unit
(** Restore every knob to its default (full enforcement). *)

val pristine : unit -> bool
(** [true] iff every knob is at its default. Tests assert this so a
    leaked mutant cannot silently weaken the rest of the suite. *)

val e2_blocks : mnemonic:('a -> string) -> 'a -> policy_blocked:bool -> bool
(** [e2_blocks ~mnemonic inst ~policy_blocked]: whether extension E2
    blocks [inst] under the active knobs, given the policy table's
    verdict [policy_blocked].  [mnemonic inst] is computed only when a
    mutant exempts some mnemonic, so the enforced path allocates
    nothing. *)

val with_mutant : (unit -> unit) -> (unit -> 'a) -> 'a
(** [with_mutant install f] resets all knobs, runs [install] to flip
    the mutant's knob(s), runs [f], and restores full enforcement even
    on exception. *)
