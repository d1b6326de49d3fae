(* Hardware/monitor event probes.

   Hook points in Cpu/Idt/Ksm/Gates/Container/Virtio emit typed events
   here; the analysis library installs its trace lint as the sink
   around a scenario, so every event is linted as it is emitted.

   The simulator runs on one domain, so the installed sink is one
   module-level slot: with no sink installed an emit site costs one
   load (callers guard event construction behind [active ()]). *)

type gate = Ksm_call_gate | Hypercall_gate | Interrupt_gate

let gate_name = function
  | Ksm_call_gate -> "ksm-call"
  | Hypercall_gate -> "hypercall"
  | Interrupt_gate -> "interrupt"

type event =
  | Priv_exec of { cpu : int; mnemonic : string; destructive : bool; pkrs : int; blocked : bool }
  | Wrpkrs of { cpu : int; value : int }
  | Sysret of { cpu : int; pkrs : int; if_after : bool }
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
  | Pte_downgrade of { container : int; root : int; vpn : int; unmapped : bool }
  | Container_boot of { container : int; pcid : int }
  | Io_doorbell of { queue : string; avail_idx : int; in_flight : int }
  | Io_completion of { queue : string; used_idx : int; serviced : int }

let pp_event fmt = function
  | Priv_exec { cpu; mnemonic; destructive; pkrs; blocked } ->
      Format.fprintf fmt "cpu%d priv %s%s pkrs=%#x %s" cpu mnemonic
        (if destructive then " (destructive)" else "")
        pkrs
        (if blocked then "blocked" else "executed")
  | Wrpkrs { cpu; value } -> Format.fprintf fmt "cpu%d wrpkrs %#x" cpu value
  | Sysret { cpu; pkrs; if_after } ->
      Format.fprintf fmt "cpu%d sysret pkrs=%#x if=%b" cpu pkrs if_after
  | Gate_enter { cpu; gate; pkrs } ->
      Format.fprintf fmt "cpu%d enter %s gate pkrs=%#x" cpu (gate_name gate) pkrs
  | Gate_exit { cpu; gate; entry_pkrs; pkrs } ->
      Format.fprintf fmt "cpu%d exit %s gate pkrs %#x -> %#x" cpu (gate_name gate) entry_pkrs pkrs
  | Idt_deliver { cpu; vector; hardware; pks_switch; pkrs_before; pkrs_after } ->
      Format.fprintf fmt "cpu%d idt vec=%d %s pks_switch=%b pkrs %#x -> %#x" cpu vector
        (if hardware then "hw" else "sw")
        pks_switch pkrs_before pkrs_after
  | Tlb_fill { cpu; pcid; vpn; level; pfn } ->
      Format.fprintf fmt "cpu%d tlb fill pcid=%d vpn=%#x lvl=%d pfn=%d" cpu pcid vpn level pfn
  | Tlb_invlpg { cpu; pcid; vpn } ->
      Format.fprintf fmt "cpu%d invlpg pcid=%d vpn=%#x" cpu pcid vpn
  | Tlb_flush_pcid { cpu; pcid } -> Format.fprintf fmt "cpu%d tlb flush pcid=%d" cpu pcid
  | Pte_downgrade { container; root; vpn; unmapped } ->
      Format.fprintf fmt "ksm[%d] pte %s root=%d vpn=%#x" container
        (if unmapped then "unmap" else "write-protect")
        root vpn
  | Container_boot { container; pcid } ->
      Format.fprintf fmt "container %d boots with pcid=%d" container pcid
  | Io_doorbell { queue; avail_idx; in_flight } ->
      Format.fprintf fmt "io %s doorbell avail=%d in_flight=%d" queue avail_idx in_flight
  | Io_completion { queue; used_idx; serviced } ->
      Format.fprintf fmt "io %s completion used=%d serviced=%d" queue used_idx serviced

let show_event e = Format.asprintf "%a" pp_event e

(* ------------------------------------------------------------------ *)
(* The sink                                                            *)
(* ------------------------------------------------------------------ *)

(* A no-op when no sink is installed; [active] lets emit sites skip
   building the event at all. *)
let sink : (event -> unit) option ref = ref None
let active () = match !sink with None -> false | Some _ -> true
let emit ev = match !sink with None -> () | Some f -> f ev
let set_sink f = sink := Some f
let clear_sink () = sink := None

(* Run [f] with no sink installed, restoring the previous one after —
   the model checker's state-space exploration replays millions of
   probe-instrumented transitions and must not flood a sink the
   surrounding scenario installed. *)
let suspended f =
  let saved = !sink in
  sink := None;
  Fun.protect ~finally:(fun () -> sink := saved) f
