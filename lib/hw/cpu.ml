(* A simulated CPU (vCPU) with the paper's PKS hardware extensions:

   E1. `wrpkrs` — a fast, unprivileged-operand instruction writing PKRS
       (kernel mode only), replacing the MSR interface.
   E2. Destructive privileged instructions fault when executed in
       kernel mode with PKRS != 0 (Section 4.1, Table 3).
   E3. `sysret` keeps IF pinned on when PKRS != 0, so a guest kernel
       cannot return to user mode with interrupts disabled.
   E4. Hardware-interrupt delivery saves PKRS and switches it to 0 when
       the IDT entry requests it; the extended `iret` restores it
       (Section 4.4). *)

type mode = User | Kernel [@@deriving show { with_path = false }, eq]

type fault =
  | Blocked_instruction of Priv.t  (** PKS extension E2 trap *)
  | Not_kernel_mode of Priv.t  (** classic #GP: priv insn in ring 3 *)
  | Pks_violation of { va : Addr.va; key : int; access : Pks.access }
  | Smap_violation of Addr.va  (** supervisor touched user page *)
  | Priv_page_violation of Addr.va  (** user touched supervisor page *)
  | Write_violation of Addr.va
  | Nx_violation of Addr.va
  | Not_present of Addr.va
[@@deriving show { with_path = false }]

exception Fault of fault

type t = {
  id : int;
  mutable mode : mode;
  mutable cr3 : Addr.pfn;
  mutable pcid : int;
  mutable pkrs : Pks.rights;
  mutable pkru : Pks.rights;
  mutable gs_base : int;
  mutable kernel_gs_base : int;
  mutable if_flag : bool;  (** RFLAGS.IF *)
  mutable halted : bool;
  mutable saved_pkrs : Pks.rights list;  (** E4: stack of interrupt-saved PKRS *)
  tlb : Tlb.t;
  clock : Clock.t;
}

let create ?(id = 0) clock =
  {
    id;
    mode = Kernel;
    cr3 = 0;
    pcid = 0;
    pkrs = Pks.all_access;
    pkru = Pks.all_access;
    gs_base = 0;
    kernel_gs_base = 0;
    if_flag = true;
    halted = false;
    saved_pkrs = [];
    tlb = Tlb.create ();
    clock;
  }

(* Load CR3 (+PCID) without flushing other PCIDs' TLB entries. *)
let load_cr3 t ~root ~pcid =
  t.cr3 <- root;
  t.pcid <- pcid;
  Clock.charge t.clock Cost.cr3_switch

(* ------------------------------------------------------------------ *)
(* Privileged-instruction execution (extension E2)                     *)
(* ------------------------------------------------------------------ *)

let exec_priv t (inst : Priv.t) : (unit, fault) result =
  let trace ~blocked =
    if Probe.active () then
      Probe.emit
        (Probe.Priv_exec
           {
             cpu = t.id;
             mnemonic = Priv.mnemonic inst;
             destructive = Priv.blocked_in_guest inst;
             pkrs = t.pkrs;
             blocked;
           })
  in
  if t.mode <> Kernel then Error (Not_kernel_mode inst)
  else if
    t.pkrs <> Pks.all_access
    && Mutation.e2_blocks ~mnemonic:(Priv.mnemonic inst)
         ~policy_blocked:(Priv.blocked_in_guest inst)
  then begin
    trace ~blocked:true;
    Clock.count t.clock "priv_inst_blocked";
    Error (Blocked_instruction inst)
  end
  else begin
    trace ~blocked:false;
    (match inst with
    | Priv.Wrpkrs r ->
        t.pkrs <- r;
        if Probe.active () then Probe.emit (Probe.Wrpkrs { cpu = t.id; value = r })
    | Priv.Rdpkrs -> ()
    | Priv.Swapgs ->
        let g = t.gs_base in
        t.gs_base <- t.kernel_gs_base;
        t.kernel_gs_base <- g
    | Priv.Sysret ->
        t.mode <- User;
        (* E3: IF stays on when a deprivileged kernel returns. *)
        if t.pkrs <> Pks.all_access && Mutation.knobs.Mutation.e3_pin_if then t.if_flag <- true;
        if Probe.active () then
          Probe.emit (Probe.Sysret { cpu = t.id; pkrs = t.pkrs; if_after = t.if_flag })
    | Priv.Sti -> t.if_flag <- true
    | Priv.Cli -> t.if_flag <- false
    | Priv.Popf -> ()
    | Priv.Hlt -> t.halted <- true
    | Priv.Invlpg va ->
        Tlb.invlpg t.tlb ~pcid:t.pcid va;
        if Probe.active () then
          Probe.emit (Probe.Tlb_invlpg { cpu = t.id; pcid = t.pcid; vpn = Addr.vpn_of_va va });
        Clock.charge t.clock Cost.invlpg
    | Priv.Invpcid ->
        Tlb.flush_pcid t.tlb ~pcid:t.pcid;
        if Probe.active () then Probe.emit (Probe.Tlb_flush_pcid { cpu = t.id; pcid = t.pcid })
    | Priv.Iret -> (
        t.if_flag <- true;
        (* E4: extended iret restores the interrupt-saved PKRS. *)
        match t.saved_pkrs with
        | [] -> ()
        | r :: rest ->
            if Mutation.knobs.Mutation.e4_restore_on_iret then t.pkrs <- r;
            t.saved_pkrs <- rest)
    | Priv.Lidt | Priv.Sidt | Priv.Lgdt | Priv.Ltr | Priv.Rdmsr _ | Priv.Wrmsr _
    | Priv.Mov_from_cr _ | Priv.Mov_to_cr0 | Priv.Mov_to_cr4 | Priv.Clac | Priv.Stac
    | Priv.Smsw | Priv.In_port _ | Priv.Out_port _ ->
        ()
    | Priv.Mov_to_cr3 -> ());
    Ok ()
  end

let exec_priv_exn t inst =
  match exec_priv t inst with Ok () -> () | Error f -> raise (Fault f)

(* ------------------------------------------------------------------ *)
(* Memory access with full permission checking                         *)
(* ------------------------------------------------------------------ *)

(* Check one leaf PTE against the CPU's current mode and protection-key
   rights; returns the fault, if any. *)
let check_pte t ~va ~(access : Pks.access) ~exec (pte : Pte.t) : fault option =
  if not (Pte.is_present pte) then Some (Not_present va)
  else if t.mode = User && not (Pte.is_user pte) then Some (Priv_page_violation va)
  else if exec && Pte.is_nx pte then Some (Nx_violation va)
  else if access = Pks.Write && not (Pte.is_writable pte) && t.mode = User then Some (Write_violation va)
  else begin
    (* Protection keys apply per the page's U/K bit: PKRU governs user
       pages, PKRS governs supervisor pages.  Instruction fetches are
       not blocked by protection keys (matching real MPK). *)
    let key = Pte.pkey pte in
    let rights = if Pte.is_user pte then t.pkru else t.pkrs in
    if (not exec) && not (Pks.allows rights ~key access) then
      Some (Pks_violation { va; key; access })
    else if access = Pks.Write && not (Pte.is_writable pte) then Some (Write_violation va)
    else None
  end

(* Translate + permission-check an access through [pt], consulting this
   CPU's TLB.  Charges walk costs on TLB miss.  Returns the physical
   address. *)
let access t (pt : Page_table.t) ~va ~(access_kind : Pks.access) ?(exec = false) () : (Addr.pa, fault) result =
  let finish (pte : Pte.t) (level : int) =
    match check_pte t ~va ~access:access_kind ~exec pte with
    | Some f -> Error f
    | None ->
        let base = Addr.pa_of_pfn (Pte.pfn pte) in
        let pa =
          if level = 2 then base lor (va land ((1 lsl 21) - 1)) else base lor Addr.page_offset va
        in
        Ok pa
  in
  match Tlb.lookup t.tlb ~pcid:t.pcid va with
  | Some e ->
      Clock.charge t.clock Cost.tlb_hit;
      finish (Pte.make ~pfn:e.Tlb.pfn ~flags:e.Tlb.flags) e.Tlb.level
  | None -> (
      match Page_table.walk pt va with
      | exception Page_table.Translation_fault _ ->
          Clock.charge_n t.clock Cost.walk_mem_ref Cost.walk_refs_native;
          Error (Not_present va)
      | w ->
          Clock.charge_n t.clock Cost.walk_mem_ref w.Page_table.refs;
          let pfn = Pte.pfn w.pte in
          Tlb.insert t.tlb ~pcid:t.pcid ~va { Tlb.pfn; flags = Pte.flags_of w.pte; level = w.leaf_level };
          let vpn = Addr.vpn_of_va va in
          let fvpn = if w.leaf_level = 2 then vpn land lnot 511 else vpn in
          Probe.emit_tlb_fill ~cpu:t.id ~pcid:t.pcid ~vpn:fvpn ~level:w.leaf_level ~pfn;
          finish w.pte w.leaf_level)

(* ------------------------------------------------------------------ *)
(* Mode transitions                                                    *)
(* ------------------------------------------------------------------ *)

(* A `syscall` instruction: ring3 -> ring0 at the IA32_STAR entry. *)
let syscall_entry t =
  assert (t.mode = User);
  t.mode <- Kernel;
  Clock.charge t.clock Cost.syscall_instruction

(* Hardware interrupt arrival (extension E4): saves PKRS and zeroes it
   when the vectoring IDT entry carries the pks_switch attribute. *)
let hw_interrupt_entry t ~pks_switch =
  if pks_switch then begin
    if Mutation.knobs.Mutation.e4_save_on_delivery then t.saved_pkrs <- t.pkrs :: t.saved_pkrs;
    t.pkrs <- Pks.all_access
  end;
  t.mode <- Kernel;
  t.if_flag <- false

let pp fmt t =
  Format.fprintf fmt "cpu%d mode=%s cr3=%d pcid=%d pkrs=%#x if=%b" t.id
    (match t.mode with User -> "U" | Kernel -> "K")
    t.cr3 t.pcid t.pkrs t.if_flag
