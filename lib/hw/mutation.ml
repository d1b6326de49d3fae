(* Seeded enforcement mutants for the model checker's mutation-testing
   harness (lib/modelcheck).

   Each knob disables exactly one enforcement step of the PKS hardware
   extensions (E2/E3/E4) or of the switch gates.  The production code in
   [Cpu], [Idt] and [Cki.Gates] consults the singleton [knobs]; with
   every knob at its default the consultation is a plain field read and
   the enforced behaviour is exactly the paper's.  The mutation harness
   flips one knob at a time (scoped via [with_mutant]) and asserts that
   the bounded model checker produces a counterexample — a surviving
   mutant is a test failure, so the checker is itself checked.

   This module deliberately lives in [hw] with no dependencies so any
   layer can consult it without cycles.  Unblocked instructions are
   identified by mnemonic string (not [Priv.t]) for the same reason. *)

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

let knobs =
  {
    e2_enforce = true;
    e2_unblocked = [];
    e3_pin_if = true;
    e4_save_on_delivery = true;
    e4_restore_on_iret = true;
    software_pks_switch = false;
    gate_verify_wrpkrs = true;
    gate_forgery_check = true;
  }

let reset () =
  knobs.e2_enforce <- true;
  knobs.e2_unblocked <- [];
  knobs.e3_pin_if <- true;
  knobs.e4_save_on_delivery <- true;
  knobs.e4_restore_on_iret <- true;
  knobs.software_pks_switch <- false;
  knobs.gate_verify_wrpkrs <- true;
  knobs.gate_forgery_check <- true

let pristine () =
  knobs.e2_enforce
  && knobs.e2_unblocked = []
  && knobs.e3_pin_if
  && knobs.e4_save_on_delivery
  && knobs.e4_restore_on_iret
  && (not knobs.software_pks_switch)
  && knobs.gate_verify_wrpkrs
  && knobs.gate_forgery_check

(* E2 as actually enforced: the golden policy answer, filtered through
   the active mutant. *)
let e2_blocks ~mnemonic inst ~policy_blocked =
  policy_blocked
  && knobs.e2_enforce
  && (knobs.e2_unblocked = [] || not (List.mem (mnemonic inst) knobs.e2_unblocked))

let with_mutant (install : unit -> unit) (f : unit -> 'a) : 'a =
  reset ();
  install ();
  Fun.protect ~finally:reset f
