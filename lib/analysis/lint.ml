(* Trace lint engine: temporal rules over the probe event stream,
   stepped one event at a time so it can be the probe sink itself. *)

type finding =
  | Destructive_exec of { cpu : int; mnemonic : string; pkrs : int }
  | Gate_pkrs_leak of { cpu : int; gate : string; entry_pkrs : int; exit_pkrs : int }
  | Sysret_if_down of { cpu : int; pkrs : int }
  | Missing_shootdown of { container : int; cpu : int; pcid : int; vpn : int }
  | Forged_pks_switch of { cpu : int; vector : int; pkrs_before : int; pkrs_after : int }
  | Wrpkrs_outside_gate of { cpu : int; value : int }
  | Forged_completion of { queue : string; used_idx : int }
  | Empty_doorbell of { queue : string; avail_idx : int }
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

(* The shootdown rule needs the fill/invalidate history per (cpu, pcid)
   and the container -> pcid correlation from Container_boot events. *)
type t = {
  mutable out : finding list;  (** newest first *)
  mutable stepped : int;
  c2p : (int, int) Hashtbl.t;  (** container -> pcid *)
  fills : (int * int, (int, unit) Hashtbl.t) Hashtbl.t;  (** (cpu, pcid) -> cached vpns *)
  pending : (int * int * int, int) Hashtbl.t;  (** (cpu, pcid, vpn) -> container *)
  depth : (int, int) Hashtbl.t;  (** cpu -> gate nesting depth, for wrpkrs *)
  last_used : (string, int) Hashtbl.t;
      (** queue -> used idx at its last completion interrupt, for the
          forged-completion rule *)
}

let create () =
  {
    out = [];
    stepped = 0;
    c2p = Hashtbl.create 8;
    fills = Hashtbl.create 16;
    pending = Hashtbl.create 16;
    depth = Hashtbl.create 8;
    last_used = Hashtbl.create 8;
  }

let stepped t = t.stepped
let add t f = t.out <- f :: t.out

let fills_of t key =
  match Hashtbl.find_opt t.fills key with
  | Some s -> s
  | None ->
      let s = Hashtbl.create 64 in
      Hashtbl.replace t.fills key s;
      s

let get_depth t cpu = Option.value (Hashtbl.find_opt t.depth cpu) ~default:0

let resolve_vpn t ~cpu ~pcid vpn =
  Hashtbl.remove t.pending (cpu, pcid, vpn);
  match Hashtbl.find_opt t.fills (cpu, pcid) with Some s -> Hashtbl.remove s vpn | None -> ()

let step t (ev : Hw.Probe.event) =
  t.stepped <- t.stepped + 1;
  match ev with
  | Hw.Probe.Priv_exec { cpu; mnemonic; destructive; pkrs; blocked } ->
      if destructive && pkrs <> 0 && not blocked then add t (Destructive_exec { cpu; mnemonic; pkrs })
  | Hw.Probe.Sysret { cpu; pkrs; if_after } ->
      if pkrs <> 0 && not if_after then add t (Sysret_if_down { cpu; pkrs })
  | Hw.Probe.Gate_enter { cpu; _ } -> Hashtbl.replace t.depth cpu (get_depth t cpu + 1)
  | Hw.Probe.Gate_exit { cpu; gate; entry_pkrs; pkrs } ->
      let d = get_depth t cpu in
      if d > 0 then Hashtbl.replace t.depth cpu (d - 1);
      if pkrs <> entry_pkrs then
        add t (Gate_pkrs_leak { cpu; gate = Hw.Probe.gate_name gate; entry_pkrs; exit_pkrs = pkrs })
  | Hw.Probe.Wrpkrs { cpu; value } ->
      if get_depth t cpu = 0 then add t (Wrpkrs_outside_gate { cpu; value })
  | Hw.Probe.Idt_deliver { cpu; vector; hardware; pks_switch; pkrs_before; pkrs_after } ->
      if ((not hardware) && pkrs_after <> pkrs_before) || (hardware && pks_switch && pkrs_after <> 0)
      then add t (Forged_pks_switch { cpu; vector; pkrs_before; pkrs_after })
  | Hw.Probe.Container_boot { container; pcid } -> Hashtbl.replace t.c2p container pcid
  | Hw.Probe.Tlb_fill { cpu; pcid; vpn; _ } ->
      Hashtbl.replace (fills_of t (cpu, pcid)) vpn ();
      (* A re-fill re-derives the translation from the live tables:
         the stale entry is gone. *)
      Hashtbl.remove t.pending (cpu, pcid, vpn)
  | Hw.Probe.Tlb_invlpg { cpu; pcid; vpn } ->
      resolve_vpn t ~cpu ~pcid vpn;
      resolve_vpn t ~cpu ~pcid (vpn land lnot 511)
  | Hw.Probe.Tlb_flush_pcid { cpu; pcid } ->
      (match Hashtbl.find_opt t.fills (cpu, pcid) with Some s -> Hashtbl.reset s | None -> ());
      Hashtbl.filter_map_inplace
        (fun (c, p, _) container -> if c = cpu && p = pcid then None else Some container)
        t.pending
  | Hw.Probe.Pte_downgrade { container; vpn; _ } -> (
      match Hashtbl.find_opt t.c2p container with
      | None -> ()
      | Some pcid ->
          let huge_vpn = vpn land lnot 511 in
          Hashtbl.iter
            (fun (cpu, p) cached ->
              if p = pcid then begin
                if Hashtbl.mem cached vpn then Hashtbl.replace t.pending (cpu, pcid, vpn) container;
                if huge_vpn <> vpn && Hashtbl.mem cached huge_vpn then
                  Hashtbl.replace t.pending (cpu, pcid, huge_vpn) container
              end)
            t.fills)
  | Hw.Probe.Io_doorbell { queue; avail_idx; in_flight } ->
      (* A doorbell with no new avail entries: phantom kick — either
         a wasted exit or a probe of the host's service path. *)
      if in_flight <= 0 then add t (Empty_doorbell { queue; avail_idx })
  | Hw.Probe.Io_completion { queue; used_idx; serviced } ->
      (* A completion interrupt must cover used entries published
         since the last one; anything else is forged (interrupt
         injection with no serviced work behind it). *)
      let prev = Hashtbl.find_opt t.last_used queue in
      let forged =
        serviced <= 0 || match prev with Some u -> used_idx <= u | None -> used_idx <= 0
      in
      if forged then add t (Forged_completion { queue; used_idx });
      Hashtbl.replace t.last_used queue (max used_idx (Option.value prev ~default:0))

(* The stream's findings so far, oldest first, plus a verdict for
   every shootdown still outstanding. *)
let finish t =
  List.rev
    (Hashtbl.fold
       (fun (cpu, pcid, vpn) container acc -> Missing_shootdown { container; cpu; pcid; vpn } :: acc)
       t.pending t.out)

let run events =
  let t = create () in
  List.iter (step t) events;
  finish t
