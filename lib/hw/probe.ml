(* Hardware/monitor event probes.

   Hook points in Cpu/Idt/Ksm/Gates/Container/Virtio emit typed events
   here; the analysis library installs a sink around a scenario and
   lints the stream afterwards.

   The sink is a flat preallocated ring of int-encoded event words.
   An emit through one of the specialized [emit_*] entry points costs
   a handful of array stores — no allocation, no closure call — and
   the ring is decoded back into [event] values lazily at lint time.

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
(* Int-encoded event rings                                             *)
(* ------------------------------------------------------------------ *)

(* Fixed-stride encoding: each event occupies [stride] words —
   word 0 the variant tag, words 1..6 the payload fields in declaration
   order.  Bools encode as 0/1; the few string payloads (mnemonics,
   queue names) are interned in a per-ring side table and encoded as
   their intern id.
   Overflow drops the *oldest* record (and counts it), matching the
   old queue recorder's semantics. *)

let stride = 7

type ring = {
  buf : int array;  (** capacity * stride event words *)
  capacity : int;  (** events *)
  mutable head : int;  (** slot index of the oldest live event *)
  mutable len : int;
  mutable dropped : int;
  mutable strings : string array;  (** intern id -> string *)
  mutable nstrings : int;
  intern : (string, int) Hashtbl.t;
  mutable last_str : string;  (** 1-entry memo over [intern], hit by [==] *)
  mutable last_id : int;
}

let ring_create ?(capacity = 65536) () =
  if capacity <= 0 then invalid_arg "Probe.ring_create: capacity must be positive";
  {
    buf = Array.make (capacity * stride) 0;
    capacity;
    head = 0;
    len = 0;
    dropped = 0;
    strings = Array.make 16 "";
    nstrings = 0;
    intern = Hashtbl.create 16;
    last_str = "";
    last_id = -1;
  }

let ring_length r = r.len
let ring_dropped r = r.dropped

let intern_slow r s =
  match Hashtbl.find_opt r.intern s with
  | Some id -> id
  | None ->
      let id = r.nstrings in
      if id >= Array.length r.strings then begin
        let bigger = Array.make (2 * Array.length r.strings) "" in
        Array.blit r.strings 0 bigger 0 id;
        r.strings <- bigger
      end;
      r.strings.(id) <- s;
      r.nstrings <- id + 1;
      Hashtbl.replace r.intern s id;
      id

(* Emit sites pass the same physical string on every event of a
   stream (queue names and op mnemonics live in their emitters'
   state), so a 1-entry physical-equality memo skips the hashtable on
   the steady state. *)
let[@inline] intern r s =
  if s == r.last_str && r.last_id >= 0 then r.last_id
  else begin
    let id = intern_slow r s in
    r.last_str <- s;
    r.last_id <- id;
    id
  end

(* Claim the next slot's word offset, dropping the oldest record when
   full.  Indices stay in [0, capacity) by conditional subtraction —
   no division on the emit path. *)
let[@inline] claim r =
  let slot =
    if r.len = r.capacity then begin
      let s = r.head in
      let h = s + 1 in
      r.head <- (if h = r.capacity then 0 else h);
      r.dropped <- r.dropped + 1;
      s
    end
    else begin
      let s = r.head + r.len in
      let s = if s >= r.capacity then s - r.capacity else s in
      r.len <- r.len + 1;
      s
    end
  in
  slot * stride

(* Variant tags (stable; the decoder below is the only reader). *)
let tag_priv_exec = 0
let tag_wrpkrs = 1
let tag_sysret = 2
let tag_gate_enter = 3
let tag_gate_exit = 4
let tag_idt_deliver = 5
let tag_tlb_fill = 6
let tag_tlb_invlpg = 7
let tag_tlb_flush_pcid = 8
let tag_pte_downgrade = 9
let tag_container_boot = 10
let tag_io_doorbell = 11
let tag_io_completion = 12

let gate_code = function Ksm_call_gate -> 0 | Hypercall_gate -> 1 | Interrupt_gate -> 2
let gate_of_code = function 0 -> Ksm_call_gate | 1 -> Hypercall_gate | _ -> Interrupt_gate
let bool_code b = if b then 1 else 0

let[@inline] store4 r tag a b c =
  let o = claim r in
  let buf = r.buf in
  buf.(o) <- tag;
  buf.(o + 1) <- a;
  buf.(o + 2) <- b;
  buf.(o + 3) <- c

let[@inline] store6 r tag a b c d e =
  let o = claim r in
  let buf = r.buf in
  buf.(o) <- tag;
  buf.(o + 1) <- a;
  buf.(o + 2) <- b;
  buf.(o + 3) <- c;
  buf.(o + 4) <- d;
  buf.(o + 5) <- e

let[@inline] store7 r tag a b c d e f =
  let o = claim r in
  let buf = r.buf in
  buf.(o) <- tag;
  buf.(o + 1) <- a;
  buf.(o + 2) <- b;
  buf.(o + 3) <- c;
  buf.(o + 4) <- d;
  buf.(o + 5) <- e;
  buf.(o + 6) <- f

(* Encode one boxed event into the ring (the generic path; hot sites
   use the specialized emitters below and never box). *)
let ring_record r ev =
  match ev with
  | Priv_exec { cpu; mnemonic; destructive; pkrs; blocked } ->
      store6 r tag_priv_exec cpu (intern r mnemonic) (bool_code destructive) pkrs
        (bool_code blocked)
  | Wrpkrs { cpu; value } -> store4 r tag_wrpkrs cpu value 0
  | Sysret { cpu; pkrs; if_after } -> store4 r tag_sysret cpu pkrs (bool_code if_after)
  | Gate_enter { cpu; gate; pkrs } -> store4 r tag_gate_enter cpu (gate_code gate) pkrs
  | Gate_exit { cpu; gate; entry_pkrs; pkrs } ->
      store6 r tag_gate_exit cpu (gate_code gate) entry_pkrs pkrs 0
  | Idt_deliver { cpu; vector; hardware; pks_switch; pkrs_before; pkrs_after } ->
      store7 r tag_idt_deliver cpu vector (bool_code hardware) (bool_code pks_switch)
        pkrs_before pkrs_after
  | Tlb_fill { cpu; pcid; vpn; level; pfn } -> store6 r tag_tlb_fill cpu pcid vpn level pfn
  | Tlb_invlpg { cpu; pcid; vpn } -> store4 r tag_tlb_invlpg cpu pcid vpn
  | Tlb_flush_pcid { cpu; pcid } -> store4 r tag_tlb_flush_pcid cpu pcid 0
  | Pte_downgrade { container; root; vpn; unmapped } ->
      store6 r tag_pte_downgrade container root vpn (bool_code unmapped) 0
  | Container_boot { container; pcid } -> store4 r tag_container_boot container pcid 0
  | Io_doorbell { queue; avail_idx; in_flight } ->
      store4 r tag_io_doorbell (intern r queue) avail_idx in_flight
  | Io_completion { queue; used_idx; serviced } ->
      store4 r tag_io_completion (intern r queue) used_idx serviced

(* Word offset of the [i]-th oldest live record. *)
let[@inline] offset r i =
  let s = r.head + i in
  (if s >= r.capacity then s - r.capacity else s) * stride

(* Decode the [i]-th oldest live record back into a boxed event. *)
let decode r i =
  let o = offset r i in
  let buf = r.buf in
  let a = buf.(o + 1) and b = buf.(o + 2) and c = buf.(o + 3) in
  let d = buf.(o + 4) and e = buf.(o + 5) and f = buf.(o + 6) in
  match buf.(o) with
  | 0 ->
      Priv_exec
        { cpu = a; mnemonic = r.strings.(b); destructive = c = 1; pkrs = d; blocked = e = 1 }
  | 1 -> Wrpkrs { cpu = a; value = b }
  | 2 -> Sysret { cpu = a; pkrs = b; if_after = c = 1 }
  | 3 -> Gate_enter { cpu = a; gate = gate_of_code b; pkrs = c }
  | 4 -> Gate_exit { cpu = a; gate = gate_of_code b; entry_pkrs = c; pkrs = d }
  | 5 ->
      Idt_deliver
        {
          cpu = a;
          vector = b;
          hardware = c = 1;
          pks_switch = d = 1;
          pkrs_before = e;
          pkrs_after = f;
        }
  | 6 -> Tlb_fill { cpu = a; pcid = b; vpn = c; level = d; pfn = e }
  | 7 -> Tlb_invlpg { cpu = a; pcid = b; vpn = c }
  | 8 -> Tlb_flush_pcid { cpu = a; pcid = b }
  | 9 -> Pte_downgrade { container = a; root = b; vpn = c; unmapped = d = 1 }
  | 10 -> Container_boot { container = a; pcid = b }
  | 11 -> Io_doorbell { queue = r.strings.(a); avail_idx = b; in_flight = c }
  | 12 -> Io_completion { queue = r.strings.(a); used_idx = b; serviced = c }
  | t -> invalid_arg (Printf.sprintf "Probe.ring: corrupt tag %d" t)

let ring_events r = List.init r.len (decode r)

(* ------------------------------------------------------------------ *)
(* The sink                                                            *)
(* ------------------------------------------------------------------ *)

type sink = Off | Ring of ring

let sink = ref Off
let active () = match !sink with Off -> false | Ring _ -> true
let emit ev = match !sink with Off -> () | Ring r -> ring_record r ev
let set_ring r = sink := Ring r
let clear_sink () = sink := Off

(* Run [f] with no sink installed, restoring the previous one after —
   the model checker's state-space exploration replays millions of
   probe-instrumented transitions and must not flood a recorder the
   surrounding scenario attached. *)
let suspended f =
  let saved = !sink in
  sink := Off;
  Fun.protect ~finally:(fun () -> sink := saved) f

(* ------------------------------------------------------------------ *)
(* Specialized hot emitters                                            *)
(* ------------------------------------------------------------------ *)

(* The engine's steady-state emit sites: with a ring sink installed
   these are a tag dispatch plus a handful of int stores — no event
   boxing, no closure call. *)

let emit_tlb_fill ~cpu ~pcid ~vpn ~level ~pfn =
  match !sink with Off -> () | Ring r -> store6 r tag_tlb_fill cpu pcid vpn level pfn

let emit_io_doorbell ~queue ~avail_idx ~in_flight =
  match !sink with
  | Off -> ()
  | Ring r -> store4 r tag_io_doorbell (intern r queue) avail_idx in_flight

let emit_io_completion ~queue ~used_idx ~serviced =
  match !sink with
  | Off -> ()
  | Ring r -> store4 r tag_io_completion (intern r queue) used_idx serviced
