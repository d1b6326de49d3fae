(* Trace lint engine: temporal rules over the probe event stream. *)

type finding =
  | Destructive_exec of { cpu : int; mnemonic : string; pkrs : int }
  | Gate_pkrs_leak of { cpu : int; gate : string; entry_pkrs : int; exit_pkrs : int }
  | Sysret_if_down of { cpu : int; pkrs : int }
  | Missing_shootdown of { container : int; cpu : int; pcid : int; vpn : int }
  | Forged_pks_switch of { cpu : int; vector : int; pkrs_before : int; pkrs_after : int }
  | Wrpkrs_outside_gate of { cpu : int; value : int }
  | Forged_completion of { queue : string; used_idx : int }
  | Empty_doorbell of { queue : string; avail_idx : int }
  | Trace_truncated of { dropped : int; withdrawn : int }
[@@deriving show { with_path = false }, eq]

let rule_name = function
  | Destructive_exec _ -> "E2-destructive-exec"
  | Gate_pkrs_leak _ -> "gate-pkrs-leak"
  | Sysret_if_down _ -> "E3-sysret-if-down"
  | Missing_shootdown _ -> "missing-shootdown"
  | Forged_pks_switch _ -> "E4-forged-pks-switch"
  | Wrpkrs_outside_gate _ -> "E1-wrpkrs-outside-gate"
  | Forged_completion _ -> "io-forged-completion"
  | Empty_doorbell _ -> "io-empty-doorbell"
  | Trace_truncated _ -> "trace-truncated"

let subject = function
  | Destructive_exec { cpu; _ }
  | Gate_pkrs_leak { cpu; _ }
  | Sysret_if_down { cpu; _ }
  | Forged_pks_switch { cpu; _ }
  | Wrpkrs_outside_gate { cpu; _ } ->
      Printf.sprintf "cpu %d" cpu
  | Missing_shootdown { container; cpu; _ } -> Printf.sprintf "container %d cpu %d" container cpu
  | Forged_completion { queue; _ } | Empty_doorbell { queue; _ } ->
      Printf.sprintf "queue %s" queue
  | Trace_truncated _ -> "recorder"

(* The shootdown rule needs the fill/invalidate history per (cpu, pcid)
   and the container -> pcid correlation from Container_boot events. *)
type shootdown_state = {
  c2p : (int, int) Hashtbl.t;  (** container -> pcid *)
  fills : (int * int, (int, unit) Hashtbl.t) Hashtbl.t;  (** (cpu, pcid) -> cached vpns *)
  pending : (int * int * int, int) Hashtbl.t;  (** (cpu, pcid, vpn) -> container *)
}

let fills_of st key =
  match Hashtbl.find_opt st.fills key with
  | Some s -> s
  | None ->
      let s = Hashtbl.create 64 in
      Hashtbl.replace st.fills key s;
      s

let run ?(dropped = 0) (events : Hw.Probe.event list) : finding list =
  let out = ref [] in
  let add f = out := f :: !out in
  (* Rule suppressions caused by the truncated prefix, reported
     alongside the drop count so a clean verdict on a truncated trace
     is visibly weaker than one on a complete trace. *)
  let withdrawn = ref 0 in
  let st = { c2p = Hashtbl.create 8; fills = Hashtbl.create 16; pending = Hashtbl.create 16 } in
  (* Per-CPU gate nesting depth, for the wrpkrs-outside-gate rule. *)
  let depth : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let get_depth cpu = Option.value (Hashtbl.find_opt depth cpu) ~default:0 in
  (* wrpkrs seen at depth 0: candidates, withdrawn if a later unmatched
     Gate_exit shows the trace started mid-gate (ring-buffer drop). *)
  let wrpkrs_cands : (int, int list) Hashtbl.t = Hashtbl.create 8 in
  (* Per-queue used idx at the last completion interrupt, for the
     forged-completion rule (an interrupt must cover freshly published
     used entries). *)
  let last_used : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let resolve_vpn ~cpu ~pcid vpn =
    Hashtbl.remove st.pending (cpu, pcid, vpn);
    (match Hashtbl.find_opt st.fills (cpu, pcid) with
    | Some s -> Hashtbl.remove s vpn
    | None -> ())
  in
  List.iter
    (fun (ev : Hw.Probe.event) ->
      match ev with
      | Hw.Probe.Priv_exec { cpu; mnemonic; destructive; pkrs; blocked } ->
          if destructive && pkrs <> 0 && not blocked then
            add (Destructive_exec { cpu; mnemonic; pkrs })
      | Hw.Probe.Sysret { cpu; pkrs; if_after } ->
          if pkrs <> 0 && not if_after then add (Sysret_if_down { cpu; pkrs })
      | Hw.Probe.Gate_enter { cpu; _ } -> Hashtbl.replace depth cpu (get_depth cpu + 1)
      | Hw.Probe.Gate_exit { cpu; gate; entry_pkrs; pkrs } ->
          if get_depth cpu = 0 then begin
            (* Unmatched exit: the enter (and anything between) fell
               off the ring buffer — withdraw wrpkrs candidates that
               may have been inside that gate. *)
            (match Hashtbl.find_opt wrpkrs_cands cpu with
            | Some cands -> withdrawn := !withdrawn + List.length cands
            | None -> ());
            Hashtbl.remove wrpkrs_cands cpu
          end
          else Hashtbl.replace depth cpu (get_depth cpu - 1);
          if pkrs <> entry_pkrs then
            add
              (Gate_pkrs_leak
                 { cpu; gate = Hw.Probe.gate_name gate; entry_pkrs; exit_pkrs = pkrs })
      | Hw.Probe.Wrpkrs { cpu; value } ->
          if get_depth cpu = 0 then
            Hashtbl.replace wrpkrs_cands cpu
              (value :: Option.value (Hashtbl.find_opt wrpkrs_cands cpu) ~default:[])
      | Hw.Probe.Idt_deliver { cpu; vector; hardware; pks_switch; pkrs_before; pkrs_after } ->
          if
            ((not hardware) && pkrs_after <> pkrs_before)
            || (hardware && pks_switch && pkrs_after <> 0)
          then add (Forged_pks_switch { cpu; vector; pkrs_before; pkrs_after })
      | Hw.Probe.Container_boot { container; pcid } -> Hashtbl.replace st.c2p container pcid
      | Hw.Probe.Tlb_fill { cpu; pcid; vpn; _ } ->
          Hashtbl.replace (fills_of st (cpu, pcid)) vpn ();
          (* A re-fill re-derives the translation from the live tables:
             the stale entry is gone. *)
          Hashtbl.remove st.pending (cpu, pcid, vpn)
      | Hw.Probe.Tlb_invlpg { cpu; pcid; vpn } ->
          resolve_vpn ~cpu ~pcid vpn;
          resolve_vpn ~cpu ~pcid (vpn land lnot 511)
      | Hw.Probe.Tlb_flush_pcid { cpu; pcid } ->
          (match Hashtbl.find_opt st.fills (cpu, pcid) with
          | Some s -> Hashtbl.reset s
          | None -> ());
          Hashtbl.iter
            (fun (c, p, v) _ -> if c = cpu && p = pcid then Hashtbl.remove st.pending (c, p, v))
            (Hashtbl.copy st.pending)
      | Hw.Probe.Pte_downgrade { container; vpn; _ } -> (
          match Hashtbl.find_opt st.c2p container with
          | None -> ()
          | Some pcid ->
              let huge_vpn = vpn land lnot 511 in
              Hashtbl.iter
                (fun (cpu, p) cached ->
                  if p = pcid then begin
                    if Hashtbl.mem cached vpn then
                      Hashtbl.replace st.pending (cpu, pcid, vpn) container;
                    if huge_vpn <> vpn && Hashtbl.mem cached huge_vpn then
                      Hashtbl.replace st.pending (cpu, pcid, huge_vpn) container
                  end)
                st.fills)
      | Hw.Probe.Io_doorbell { queue; avail_idx; in_flight } ->
          (* A doorbell with no new avail entries: phantom kick — either
             a wasted exit or a probe of the host's service path. *)
          if in_flight <= 0 then add (Empty_doorbell { queue; avail_idx })
      | Hw.Probe.Io_completion { queue; used_idx; serviced } ->
          (* A completion interrupt must cover used entries published
             since the last one; anything else is forged (interrupt
             injection with no serviced work behind it). *)
          let prev = Hashtbl.find_opt last_used queue in
          let forged =
            serviced <= 0 || match prev with Some u -> used_idx <= u | None -> used_idx <= 0
          in
          if forged then add (Forged_completion { queue; used_idx });
          Hashtbl.replace last_used queue (max used_idx (Option.value prev ~default:0))
      | Hw.Probe.Iret _ | Hw.Probe.Cr3_load _ | Hw.Probe.Pks_denied _ | Hw.Probe.Ksm_op _
      | Hw.Probe.Mm_op _ ->
          ())
    events;
  (* Verdicts for whatever is still outstanding. *)
  Hashtbl.iter
    (fun (cpu, pcid, vpn) container -> add (Missing_shootdown { container; cpu; pcid; vpn }))
    st.pending;
  Hashtbl.iter
    (fun cpu values -> List.iter (fun value -> add (Wrpkrs_outside_gate { cpu; value })) values)
    wrpkrs_cands;
  if dropped > 0 then add (Trace_truncated { dropped; withdrawn = !withdrawn });
  List.rev !out
