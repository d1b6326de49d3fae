(* Restore: rebuild a container from an image, relocating every frame.

   Two modes share one engine:

   - full restore ([restore]): delegate a fresh segment, allocate fresh
     auxiliary frames, rewrite every PTE through [Ksm.restore] with
     relocated frame numbers, and charge a per-frame copy cost — the
     same image restores onto any machine;

   - warm clone ([clone_of]): same rebuild, but leaf PTEs over shared
     read-only template frames are redirected at the template's frames
     (write bit cleared, refcount taken) instead of copies, and the
     guest kernel image is shared outright.  The clone's own reserved
     frames stay unmaterialized until a write breaks CoW, so the
     incremental footprint is metadata plus dirtied pages.

   Either way the result is re-verified with the analysis scanner
   before being handed out: a restore cannot silently violate I1-I3. *)

type error =
  | Unsupported_image of string
  | Untrusted_vcpu_state of string
  | Verify_failed of string

let show_error = function
  | Unsupported_image s -> "unsupported image: " ^ s
  | Untrusted_vcpu_state s -> "vCPU state refused: " ^ s
  | Verify_failed s -> "restored container failed verification:\n" ^ s

exception Fail of error

(* [share]: (template segment bases, template aux frames) — present in
   clone mode, where the template lives on the same machine. *)
let rebuild ?(env = Virt.Env.Bare_metal) ~verify ~share (host : Cki.Host.t) (image : Image.t) =
  if Array.length image.Image.segments = 0 then
    raise (Fail (Unsupported_image "image has no segments"));
  let machine = Cki.Host.machine host in
  let mem = Hw.Machine.mem machine in
  let clock = Hw.Machine.clock machine in
  let cfg = image.Image.cfg in
  let container_id = Cki.Host.fresh_container_id host in
  (* Every reference taken on a template frame, so a failed rebuild can
     give them back. *)
  let taken = ref [] in
  let take_ref pfn =
    Hw.Phys_mem.incr_ref mem pfn;
    taken := pfn :: !taken
  in
  (* Undo a partial rebuild: drop template references, reclaim the
     delegated segment(s), and free every frame the aborted container
     still owns (auxiliary frames, KSM-private state, fresh direct-map
     tables).  The fresh container id and PCID number are burned, but
     no memory leaks and no refcount stays inflated. *)
  let rollback () =
    List.iter (fun pfn -> Hw.Phys_mem.decr_ref mem pfn) !taken;
    Cki.Host.reclaim_segment host ~container:container_id;
    Hw.Phys_mem.iter_owned mem (Hw.Phys_mem.Ksm container_id) (Hw.Phys_mem.free mem);
    Hw.Phys_mem.iter_owned mem (Hw.Phys_mem.Container container_id) (Hw.Phys_mem.free mem)
  in
  try
  let pcid = Hw.Machine.fresh_pcid machine in
  let bases =
    Array.map
      (fun frames -> fst (Cki.Host.delegate_segment host ~container:container_id ~frames))
      image.Image.segments
  in
  (* Auxiliary frames: fresh allocations, except that a clone shares the
     template's (immutable, frozen) guest kernel image outright. *)
  let aux_pfns =
    Array.mapi
      (fun i kind ->
        match (kind, share) with
        | Image.Kernel_code, Some (_, orig_aux) ->
            let pfn = orig_aux.(i) in
            take_ref pfn;
            pfn
        | _ ->
            let owner, k =
              match kind with
              | Image.Pt l -> (Hw.Phys_mem.Ksm container_id, Hw.Phys_mem.Page_table l)
              | Image.Ksm_code -> (Hw.Phys_mem.Ksm container_id, Hw.Phys_mem.Ksm_code)
              | Image.Ksm_data -> (Hw.Phys_mem.Ksm container_id, Hw.Phys_mem.Ksm_data)
              | Image.Kernel_code -> (Hw.Phys_mem.Container container_id, Hw.Phys_mem.Kernel_code)
            in
            Hw.Clock.charge clock Hw.Cost.restore_frame;
            Hw.Phys_mem.alloc mem ~owner ~kind:k)
      image.Image.aux
  in
  let reloc = function
    | Image.Seg { seg; off } -> bases.(seg) + off
    | Image.Aux i -> aux_pfns.(i)
  in
  (* Is this leaf a CoW share of a frozen template frame? *)
  let shared_target = function
    | Image.Seg { seg; off } -> (
        match share with
        | Some (orig_bases, _) when Hw.Phys_mem.is_shared_ro mem (orig_bases.(seg) + off) ->
            Some (orig_bases.(seg) + off)
        | _ -> None)
    | Image.Aux _ -> None
  in
  let i_tables =
    List.map
      (fun (t : Image.table) ->
        let entries =
          List.map
            (fun (e : Image.entry) ->
              let leaf = Hw.Pte.is_leaf ~level:t.Image.t_level e.Image.e_bits in
              let va = t.Image.t_va + (e.Image.e_index * Hw.Addr.span ~lvl:t.Image.t_level) in
              match (if leaf && Cki.Layout.in_user va then shared_target e.Image.e_target else None) with
              | Some orig ->
                  (* Share the template's frame read-only; the first
                     write breaks CoW through the KSM path. *)
                  take_ref orig;
                  Hw.Clock.charge clock Hw.Cost.cow_map_pte;
                  (e.Image.e_index, Hw.Pte.with_writable (Image.with_pfn e.Image.e_bits orig) false)
              | None -> (e.Image.e_index, Image.with_pfn e.Image.e_bits (reloc e.Image.e_target)))
            t.Image.t_entries
        in
        (reloc t.Image.t_frame, entries))
      image.Image.tables
  in
  let pervcpu =
    Cki.Pervcpu.import
      (Array.map
         (fun (a : Image.vcpu_area) -> (Array.map reloc a.Image.a_frames, reloc a.Image.a_l3))
         image.Image.pervcpu)
  in
  let ksm =
    Cki.Ksm.restore mem clock ~container_id ~cfg ~pervcpu
      {
        Cki.Ksm.i_segments =
          Array.to_list (Array.mapi (fun i base -> (base, image.Image.segments.(i))) bases);
        i_ptps = List.map (fun (r, lvl) -> (reloc r, lvl)) image.Image.ptps;
        i_roots =
          List.map
            (fun (r : Image.root) -> (reloc r.Image.r_frame, Array.map reloc r.Image.r_copies))
            image.Image.roots;
        i_kernel_root = reloc image.Image.kernel_root;
        i_template =
          List.map
            (fun (slot, bits, target) -> (slot, Image.with_pfn bits (reloc target)))
            image.Image.template;
        i_tables;
      }
  in
  (* At rest a CKI vCPU is outside every gate, so its PKRS must be the
     value the gates leave on exit, and its CR3 a declared root or a
     per-vCPU copy of one.  The image does not get to choose privilege
     state: anything else is refused, not repaired, so tampering stays
     visible. *)
  let declared =
    List.concat_map (fun (r, copies) -> r :: Array.to_list copies) (Cki.Ksm.roots ksm)
  in
  let refuse fmt = Printf.ksprintf (fun m -> raise (Fail (Untrusted_vcpu_state m))) fmt in
  Array.iteri
    (fun i (s : Image.cpu_state) ->
      if s.Image.c_pkrs <> Hw.Pks.pkrs_guest then
        refuse "vCPU %d PKRS %#x is not the guest value %#x" i s.Image.c_pkrs Hw.Pks.pkrs_guest;
      let cr3 = reloc s.Image.c_cr3 in
      if not (List.mem cr3 declared) then refuse "vCPU %d CR3 frame %d is not a declared root" i cr3)
    image.Image.cpus;
  (* Guest buddy allocator: same block layout, relocated bases — one
     zone per delegated segment.  Block offsets in the image are
     linearized over the segment sizes (see capture); map each back to
     its owning segment before reserving.  A full restore pays the copy
     of every allocated frame's contents; a clone shares them and pays
     per-PTE above. *)
  let buddy =
    Kernel_model.Buddy.create_zones
      ~segments:(Array.to_list (Array.mapi (fun i base -> (base, image.Image.segments.(i))) bases))
  in
  let seg_starts =
    let acc = Array.make (Array.length image.Image.segments) 0 in
    for i = 1 to Array.length acc - 1 do
      acc.(i) <- acc.(i - 1) + image.Image.segments.(i - 1)
    done;
    acc
  in
  let pfn_of_linear off =
    let seg = ref 0 in
    Array.iteri
      (fun i start -> if off >= start && off < start + image.Image.segments.(i) then seg := i)
      seg_starts;
    bases.(!seg) + (off - seg_starts.(!seg))
  in
  List.iter
    (fun (off, order) ->
      Kernel_model.Buddy.reserve buddy (pfn_of_linear off) order;
      if share = None then
        Hw.Clock.charge_n clock Hw.Cost.restore_frame (1 lsl order))
    image.Image.buddy_blocks;
  let aspaces = Hw.Int_tbl.create 16 in
  List.iter (fun (aid, r) -> Hw.Int_tbl.replace aspaces aid (reloc r)) image.Image.aspaces;
  let next_as = ref image.Image.next_as in
  let c =
    Cki.Container.assemble ~env ~cfg host ~container_id ~pcid ~ksm ~buddy ~aspaces ~next_as ()
  in
  let kernel = c.Cki.Container.backend.Virt.Backend.kernel in
  let platform = c.Cki.Container.backend.Virt.Backend.platform in
  Kernel_model.Kernel.set_next_pid kernel image.Image.next_pid;
  (* Filesystem. *)
  let fs = Kernel_model.Kernel.fs kernel in
  List.iter (fun path -> ignore (Kernel_model.Tmpfs.mkdir fs path)) image.Image.dirs;
  List.iter
    (fun (path, data) ->
      let inode = Kernel_model.Tmpfs.open_or_create fs path in
      if String.length data > 0 then
        ignore (Kernel_model.Tmpfs.write fs inode ~off:0 (Bytes.of_string data)))
    image.Image.files;
  (* Tasks. *)
  List.iter
    (fun (tk : Image.task_rec) ->
      let mm =
        Kernel_model.Mm.restore platform ~aspace:tk.Image.tk_aspace ~brk:tk.Image.tk_brk
          ~mmap_cursor:tk.Image.tk_cursor
      in
      List.iter
        (fun (v : Image.vma_rec) ->
          let read, write, exec = v.Image.v_prot in
          Kernel_model.Mm.add_vma mm ~start:v.Image.v_start ~stop:v.Image.v_stop
            ~prot:{ Kernel_model.Vma.read; write; exec }
            ~backing:v.Image.v_backing)
        tk.Image.tk_vmas;
      List.iter
        (fun (vpn, target) ->
          match shared_target target with
          | Some orig ->
              Kernel_model.Mm.adopt_page mm ~vpn ~pfn:orig;
              Kernel_model.Mm.mark_cow mm ~vpn ~own:(reloc target)
          | None -> Kernel_model.Mm.adopt_page mm ~vpn ~pfn:(reloc target))
        tk.Image.tk_pages;
      if share <> None then
        Kernel_model.Mm.set_release_shared mm (fun pfn -> Hw.Phys_mem.decr_ref mem pfn);
      let task = Kernel_model.Task.create ~pid:tk.Image.tk_pid ~parent:tk.Image.tk_parent mm in
      List.iter
        (fun (f : Image.fd_rec) ->
          let inode = Kernel_model.Tmpfs.resolve fs f.Image.f_path in
          Kernel_model.Task.restore_fd task ~fd:f.Image.f_fd
            (Kernel_model.Task.File { Kernel_model.Task.inode; pos = f.Image.f_pos }))
        tk.Image.tk_fds;
      task.Kernel_model.Task.next_fd <- tk.Image.tk_next_fd;
      Kernel_model.Kernel.restore_task kernel task)
    image.Image.tasks;
  (* vCPU state (PCID is fresh; an empty TLB is just a full flush). *)
  Array.iteri
    (fun i (s : Image.cpu_state) ->
      if i < Array.length c.Cki.Container.cpus then begin
        let cpu = c.Cki.Container.cpus.(i) in
        cpu.Hw.Cpu.mode <- (if s.Image.c_kernel then Hw.Cpu.Kernel else Hw.Cpu.User);
        cpu.Hw.Cpu.pkrs <- s.Image.c_pkrs;
        cpu.Hw.Cpu.if_flag <- s.Image.c_if;
        cpu.Hw.Cpu.gs_base <- s.Image.c_gs;
        cpu.Hw.Cpu.kernel_gs_base <- s.Image.c_kgs;
        cpu.Hw.Cpu.cr3 <- reloc s.Image.c_cr3
      end)
    image.Image.cpus;
  if verify then begin
    match Analysis.check_machine ~containers:[ c ] with
    | [] -> ()
    | violations ->
        raise
          (Fail
             (Verify_failed
                (Analysis.report
                   ~title:(Printf.sprintf "container %d post-restore" container_id)
                   { Analysis.violations; lints = []; linted = 0 })))
  end;
  c
  with e ->
    rollback ();
    raise e

let restore ?env ?(verify = true) host image =
  match rebuild ?env ~verify ~share:None host image with
  | c -> Ok c
  | exception Fail e -> Error e

let clone_of ?(verify = true) host image ~orig_seg_bases ~orig_aux =
  match rebuild ~verify ~share:(Some (orig_seg_bases, orig_aux)) host image with
  | c -> Ok c
  | exception Fail e -> Error e

(* Frames a container has actually materialized: its KSM-private state,
   its own page tables and kernel image, and resident pages minus those
   still shared with a template.  Untouched free segment frames are
   excluded on both sides of a comparison — they are address space, not
   memory.  Counted, not swept: the container's own page tables are its
   declared PTPs, and the frames it owns beyond its segments are its
   kernel image (none for a clone, which shares the template's). *)
let materialized_frames (c : Cki.Container.t) =
  let mem = Hw.Machine.mem (Cki.Host.machine c.Cki.Container.host) in
  let id = c.Cki.Container.container_id in
  let ksm = c.Cki.Container.ksm in
  let segment_frames = List.fold_left (fun n (_, frames) -> n + frames) 0 (Cki.Ksm.segments ksm) in
  let meta =
    Hw.Phys_mem.owned_count mem (Hw.Phys_mem.Ksm id)
    + Cki.Ksm.declared_count ksm
    + (Hw.Phys_mem.owned_count mem (Hw.Phys_mem.Container id) - segment_frames)
  in
  let kernel = c.Cki.Container.backend.Virt.Backend.kernel in
  List.fold_left
    (fun acc (task : Kernel_model.Task.t) ->
      let mm = task.Kernel_model.Task.mm in
      acc + Kernel_model.Mm.resident_pages mm - Kernel_model.Mm.cow_count mm)
    meta
    (Kernel_model.Kernel.tasks kernel)
