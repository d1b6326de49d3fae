(* HVM: hardware-assisted virtualization (the Kata Containers
   configuration).

   The guest kernel manages its own first-stage page tables natively —
   no exits on PTE writes, native syscalls.  The costs appear in:
     - EPT violations when the guest touches a fresh gPA (a VM exit +
       second-stage mapping; in a nested cloud the L1 hypervisor has no
       hardware EPT, so the L0 kernel maintains a *shadow* EPT and each
       violation bounces L2->L0->L1->L0->L2),
     - a two-dimensional page walk on every TLB miss,
     - VM exits for every hypercall / VirtIO doorbell / interrupt. *)

type state = {
  machine : Hw.Machine.t;
  container_id : int;
  ept : Hw.Ept.t;
  (* Guest-physical frame allocation: gfns are container-local. *)
  mutable next_gfn : int;
  mutable free_gfns : int list;
  (* Guest first-stage page tables, one per guest address space. *)
  spaces : (int, Hw.Page_table.t) Hashtbl.t;
  mutable next_as : int;
  nested : bool;
}

(* Process-wide id allocator. *)
let next_container_id = ref 0

(* Install the second-stage mapping for [gfn], allocating a host frame
   and charging the EPT-violation cost.  This is the VM-exit path a
   fresh gPA takes on first touch; with huge EPT mappings one violation
   backs 512 pages, which is how "RunC 2M" amortizes (Figure 12). *)
let ept_fault_service st gfn =
  let mem = Hw.Machine.mem st.machine in
  let clock = Hw.Machine.clock st.machine in
  let charge_fault () =
    ignore (st.ept |> Hw.Ept.violations);
    Hw.Clock.count clock "ept_fault";
    Hw.Clock.charge clock (if st.nested then Hw.Cost.ept_fault_nst else Hw.Cost.ept_fault_bm)
  in
  if Hw.Ept.huge_enabled st.ept then begin
    let gfn_base = gfn land lnot 511 in
    if not (Hw.Ept.is_mapped st.ept (Hw.Addr.pa_of_pfn gfn_base)) then begin
      charge_fault ();
      let hfn =
        Hw.Phys_mem.alloc_contiguous mem ~owner:(Hw.Phys_mem.Container st.container_id)
          ~kind:Hw.Phys_mem.Data ~count:512
      in
      Hw.Ept.map_huge st.ept ~gfn:gfn_base ~hfn
    end
  end
  else if not (Hw.Ept.is_mapped st.ept (Hw.Addr.pa_of_pfn gfn)) then begin
    charge_fault ();
    let hfn =
      Hw.Phys_mem.alloc mem ~owner:(Hw.Phys_mem.Container st.container_id) ~kind:Hw.Phys_mem.Data
    in
    Hw.Ept.map st.ept ~gfn ~hfn
  end

let create ?(env = Env.Bare_metal) ?(ept_huge = false) (machine : Hw.Machine.t) : Backend.t =
  let clock = Hw.Machine.clock machine in
  let nested = Env.is_nested env in
  let container_id = (incr next_container_id; !next_container_id) in
  let st =
    {
      machine;
      container_id;
      ept = Hw.Ept.create (Hw.Machine.mem machine) ~huge:ept_huge;
      next_gfn = 0;
      free_gfns = [];
      spaces = Hashtbl.create 8;
      next_as = 0;
      nested;
    }
  in
  let mem = Hw.Machine.mem machine in
  let alloc_gfn () =
    match st.free_gfns with
    | g :: rest ->
        st.free_gfns <- rest;
        g
    | [] ->
        let g = st.next_gfn in
        st.next_gfn <- g + 1;
        g
  in
  let pt_of id =
    match Hashtbl.find_opt st.spaces id with
    | Some pt -> pt
    | None -> invalid_arg "Hvm: unknown address space"
  in
  (* Guest PTPs are allocated from guest memory; ownership tracked as
     the container's. *)
  let alloc_table ~level =
    Hw.Phys_mem.alloc mem ~owner:(Hw.Phys_mem.Container container_id)
      ~kind:(Hw.Phys_mem.Page_table level)
  in
  (* Every VM exit costs the same; a nested exit pays the L0
     redirection tax (L2 -> L0 -> L1 -> L0 -> L2). *)
  let vm_exit () = Hw.Clock.charge clock (if nested then Hw.Cost.vmexit_nst else Hw.Cost.vmexit_bm) in
  let platform =
    {
      Kernel_model.Platform.name = "hvm";
      clock;
      alloc_frame =
        (fun () ->
          (* The guest allocator hands out gPA frames; a fresh gfn takes
             an EPT violation (charged) on first touch.  Recycled gfns
             keep their second-stage mapping — no exit. *)
          let gfn = alloc_gfn () in
          ept_fault_service st gfn;
          gfn);
      free_frame = (fun gfn -> st.free_gfns <- gfn :: st.free_gfns);
      as_create =
        (fun () ->
          let id = st.next_as in
          st.next_as <- id + 1;
          let root = alloc_table ~level:4 in
          Hashtbl.replace st.spaces id (Hw.Page_table.of_root mem root);
          id);
      as_destroy = (fun id -> Hashtbl.remove st.spaces id);
      as_switch =
        (fun _ ->
          (* Guest CR3 loads are not intercepted under EPT. *)
          Hw.Clock.charge clock Hw.Cost.cr3_switch);
      pte_install =
        (fun id ~va ~pfn ~writable ~user ->
          ignore
            (Hw.Page_table.map (pt_of id) ~alloc_table ~va ~pfn
               ~flags:{ Hw.Pte.default_flags with writable; user }
               ()));
      pte_remove = (fun id ~va -> ignore (Hw.Page_table.unmap (pt_of id) va));
      pte_protect =
        (fun id ~vpns ~writable ~shootdown ->
          Array.iter
            (fun vpn ->
              let va = Hw.Addr.va_of_vpn vpn in
              Hw.Page_table.update (pt_of id) va (fun e -> Hw.Pte.with_writable e writable);
              shootdown va)
            vpns);
      fault_round_trip =
        (fun () ->
          (* The guest-side fault entry is native (no VM exit); the EPT
             violation cost is charged by alloc_frame when the fresh
             gPA is first backed. *)
          ());
      fault_service =
        (if nested then Hw.Cost.pf_handler_hvm_nst else Hw.Cost.pf_handler_hvm_bm);
      syscall_round_trip =
        (fun () -> Hw.Clock.charge clock Hw.Cost.syscall_entry_exit);
      hypercall = (fun _kind -> vm_exit ());
      deliver_irq =
        (fun () ->
          (* External interrupt: VM exit, host handles, re-enter with a
             virtual interrupt; the guest's EOI write is another exit.
             In a nested cloud each exit is L0-redirected. *)
          vm_exit ();
          Hw.Clock.charge clock Hw.Cost.irq_delivery;
          Hw.Clock.charge clock Hw.Cost.virq_inject;
          vm_exit () (* EOI *));
      virtualized_io = true;
      (* VirtIO rings live at gPAs; the host walks the EPT to reach the
         backing host frame (second-stage translation, no exit). *)
      mem;
      guest_frame =
        (fun gfn -> Hw.Addr.pfn_of_pa (Hw.Ept.translate st.ept (Hw.Addr.pa_of_pfn gfn)));
    }
  in
  let kernel = Kernel_model.Kernel.create platform in
  {
    Backend.label = (if ept_huge then "HVM-2M-" else "HVM-") ^ Env.suffix env;
    backend_name = "hvm";
    env;
    kernel;
    platform;
    clock;
    walk_refs = Hw.Cost.walk_refs_2d;
    walk_refs_huge = Hw.Cost.walk_refs_2d_huge;
    supports_hypercall = true;
    empty_hypercall = vm_exit;
    guest_user_kernel_isolated = true;
  }
