(* Capture: walk a quiesced container into an Image.t.

   The walk starts from the monitor's registered roots (kernel root
   first, then aspace roots in id order, each followed by its per-vCPU
   copies) and records every reachable page table in discovery order —
   a canonical order, so re-capturing a restored container yields a
   byte-identical image.  A completeness check then proves the image
   is closed: every frame the container owns outside its segments must
   have been reached.  It is a count against the owner index; only when
   the counts differ does a sweep of the owner lists name the frame. *)

type error =
  | Cow_pending of int  (** task pid with un-broken CoW pages *)
  | Unsupported_fd of { pid : int; fd : int }
  | Device_active of { queue : string; unreclaimed : int }
  | Foreign_frame of Hw.Addr.pfn
  | Unreachable_frame of Hw.Addr.pfn
  | Unregistered_root of Hw.Addr.pfn

let show_error = function
  | Cow_pending pid ->
      Printf.sprintf "task %d has un-broken CoW pages (capture a cold or fully-materialized container)" pid
  | Unsupported_fd { pid; fd } ->
      Printf.sprintf "task %d holds fd %d of an unsupported kind (pipe/socket)" pid fd
  | Device_active { queue; unreclaimed } ->
      Printf.sprintf "virtio queue %s has %d unreclaimed descriptor chains (quiesce I/O before capture)"
        queue unreclaimed
  | Foreign_frame pfn -> Printf.sprintf "page tables reference foreign frame %d" pfn
  | Unreachable_frame pfn -> Printf.sprintf "container-owned frame %d is unreachable from any root" pfn
  | Unregistered_root pfn -> Printf.sprintf "declared root %d is not an aspace or kernel root" pfn

type map = { m_seg_bases : Hw.Addr.pfn array; m_aux : Hw.Addr.pfn array }

exception Fail of error

let capture_full (c : Cki.Container.t) : (Image.t * map, error) result =
  let ksm = c.ksm in
  let id = c.container_id in
  let machine = Cki.Host.machine c.host in
  let mem = Hw.Machine.mem machine in
  let clock = Hw.Machine.clock machine in
  let kernel = c.backend.Virt.Backend.kernel in
  let segs = Cki.Ksm.segments ksm in
  let seg_bases = Array.of_list (List.map fst segs) in
  let seg_sizes = Array.of_list (List.map snd segs) in
  (* The segment holding [pfn] (search from [i]), or -1.  Asked for
     every reference the walk meets, so it allocates nothing. *)
  let rec seg_index pfn i =
    if i = Array.length seg_bases then -1
    else if pfn >= seg_bases.(i) && pfn < seg_bases.(i) + seg_sizes.(i) then i
    else seg_index pfn (i + 1)
  in
  (* Auxiliary frames, numbered in first-reference order.  [aux_image]
     counts the guest kernel image frames among them, the only
     container-owned ones. *)
  let aux_ids = Hw.Int_tbl.create 64 in
  let aux_rev = ref [] in
  let aux_count = ref 0 in
  let aux_image = ref 0 in
  let register_aux pfn =
    match Hw.Int_tbl.find_opt aux_ids pfn with
    | Some i -> i
    | None ->
        let kind =
          match (Hw.Phys_mem.owner mem pfn, Hw.Phys_mem.kind mem pfn) with
          | Hw.Phys_mem.Ksm k, Hw.Phys_mem.Page_table l when k = id -> Image.Pt l
          | Hw.Phys_mem.Ksm k, Hw.Phys_mem.Ksm_code when k = id -> Image.Ksm_code
          | Hw.Phys_mem.Ksm k, Hw.Phys_mem.Ksm_data when k = id -> Image.Ksm_data
          | Hw.Phys_mem.Container k, Hw.Phys_mem.Kernel_code when k = id ->
              incr aux_image;
              Image.Kernel_code
          | _ -> raise (Fail (Foreign_frame pfn))
        in
        let i = !aux_count in
        incr aux_count;
        Hw.Int_tbl.replace aux_ids pfn i;
        aux_rev := (pfn, kind) :: !aux_rev;
        i
  in
  let ref_of pfn =
    let seg = seg_index pfn 0 in
    if seg >= 0 then Image.Seg { seg; off = pfn - seg_bases.(seg) } else Image.Aux (register_aux pfn)
  in
  (* Table walk: a table's entries come right after it is entered, so
     they go to the table entered last, which is charged once they are
     all read: at the next [enter], or when its tree is done.  The
     direct-map subtree is not captured: its VA layout keys on physical
     addresses (va = direct_map_base + pa), so Ksm.restore rebuilds it. *)
  let visited = Hw.Int_tbl.create 256 in
  let tables_rev = ref [] in
  let entries = ref (ref []) in
  let unpaid = ref false in
  let pay () =
    if !unpaid then Hw.Clock.charge clock Hw.Cost.capture_table;
    unpaid := false
  in
  let enter ~level ~table ~va =
    pay ();
    (not (Hw.Int_tbl.mem visited table))
    && begin
         Hw.Int_tbl.replace visited table ();
         entries := ref [];
         tables_rev := (ref_of table, level, va, !entries) :: !tables_rev;
         unpaid := true;
         true
       end
  in
  let record ~level:_ ~table:_ ~va:_ ~index e =
    !entries :=
      { Image.e_index = index; e_bits = Image.strip_pfn e; e_target = ref_of (Hw.Pte.pfn e) } :: !(!entries)
  in
  let emit_tree =
    let walk = Hw.Page_table.iter_tables mem ~skip_slot:Cki.Layout.l4_direct ~enter ~entry:record () in
    fun root -> walk ~level:Hw.Addr.levels ~table:root ~va:0; pay ()
  in
  let copies_of root =
    match Cki.Ksm.root_copies ksm root with
    | Some a -> a
    | None -> raise (Fail (Unregistered_root root))
  in
  try
    (* Quiescence: no task may still share template frames. *)
    List.iter
      (fun (task : Kernel_model.Task.t) ->
        if Kernel_model.Mm.cow_count task.Kernel_model.Task.mm > 0 then
          raise (Fail (Cow_pending task.Kernel_model.Task.pid)))
      (Kernel_model.Kernel.tasks kernel);
    (* ...and no VirtIO queue may hold in-flight or unreclaimed chains:
       capturing mid-I/O would freeze descriptors the host backend still
       owns. *)
    (match Kernel_model.Kernel.io_unreclaimed kernel with
    | [] -> ()
    | (queue, unreclaimed) :: _ -> raise (Fail (Device_active { queue; unreclaimed })));
    let kroot = Cki.Ksm.kernel_root ksm in
    let aspace_list =
      Hw.Int_tbl.fold (fun k v acc -> (k, v) :: acc) c.aspaces [] |> List.sort compare
    in
    (* Seed the walk in canonical order: root, its copies, next root... *)
    let roots =
      List.map
        (fun root ->
          let copies = copies_of root in
          let r = { Image.r_frame = ref_of root; r_copies = Array.map ref_of copies } in
          emit_tree root;
          Array.iter emit_tree copies;
          r)
        (kroot :: List.map snd aspace_list)
    in
    (* Every monitor-registered root must have been seeded. *)
    List.iter
      (fun (root, _) ->
        if not (Hw.Int_tbl.mem visited root) then raise (Fail (Unregistered_root root)))
      (Cki.Ksm.roots ksm);
    (* The direct-map interior tables are KSM-owned but excluded from
       the image (restore rebuilds them); exempt them from the closure
       check below.  [direct_extra] counts those that are KSM-owned and
       not auxiliary. *)
    let direct_tables = Hw.Int_tbl.create 64 in
    let direct_extra = ref 0 in
    let enter_direct ~level ~table ~va:_ =
      (not (Hw.Int_tbl.mem direct_tables table))
      && begin
           Hw.Int_tbl.replace direct_tables table ();
           if
             table >= 0
             && table < Hw.Phys_mem.total_frames mem
             && Hw.Phys_mem.equal_owner (Hw.Phys_mem.owner mem table) (Hw.Phys_mem.Ksm id)
             && not (Hw.Int_tbl.mem aux_ids table)
           then incr direct_extra;
           level > 1
         end
    in
    let direct_link = Hw.Phys_mem.read_entry mem ~pfn:kroot ~index:Cki.Layout.l4_direct in
    if Hw.Pte.is_present direct_link then
      Hw.Page_table.iter_tables mem ~enter:enter_direct () ~level:3 ~table:(Hw.Pte.pfn direct_link) ~va:0;
    (* Completeness: every frame this container owns outside its
       segments must be in the auxiliary table by now.  The reached
       frames are counted as disjoint sets of owned frames, so equal
       counts mean every owned frame was reached:
       - KSM-owned: the auxiliary frames that are not the kernel image
         (all KSM-owned, by [register_aux]) plus [direct_extra];
       - container-owned: its segment frames (a container's segments
         never overlap) plus the kernel image frames, all outside the
         segments ([ref_of] numbers only those as auxiliary).
       Only when a count differs do the owner lists name the frame. *)
    let seg_held =
      List.fold_left
        (fun n (base, count) ->
          let foreign = ref 0 in
          Hw.Phys_mem.iter_not_owned mem ~base ~count (Hw.Phys_mem.Container id) (fun _ ->
              incr foreign);
          n + count - !foreign)
        0 segs
    in
    if
      Hw.Phys_mem.owned_count mem (Hw.Phys_mem.Ksm id) <> !aux_count - !aux_image + !direct_extra
      || Hw.Phys_mem.owned_count mem (Hw.Phys_mem.Container id) <> seg_held + !aux_image
    then begin
      Hw.Phys_mem.iter_owned mem (Hw.Phys_mem.Ksm id) (fun pfn ->
          if not (Hw.Int_tbl.mem aux_ids pfn || Hw.Int_tbl.mem direct_tables pfn) then
            raise (Fail (Unreachable_frame pfn)));
      Hw.Phys_mem.iter_owned mem (Hw.Phys_mem.Container id) (fun pfn ->
          if not (seg_index pfn 0 >= 0 || Hw.Int_tbl.mem aux_ids pfn) then
            raise (Fail (Unreachable_frame pfn)))
    end;
    (* Monitor metadata.  The direct-map template slot is omitted along
       with its subtree. *)
    let ptps =
      Cki.Ksm.declared_ptps ksm |> List.map (fun (pfn, lvl) -> (ref_of pfn, lvl)) |> List.sort compare
    in
    let template =
      Cki.Ksm.template_slots ksm
      |> List.filter (fun slot -> slot <> Cki.Layout.l4_direct)
      |> List.map (fun slot ->
             let e = Hw.Phys_mem.read_entry mem ~pfn:kroot ~index:slot in
             (slot, Image.strip_pfn e, ref_of (Hw.Pte.pfn e)))
    in
    let pervcpu =
      Array.map
        (fun (frames, l3) -> { Image.a_l3 = ref_of l3; a_frames = Array.map ref_of frames })
        (Cki.Pervcpu.export (Cki.Ksm.pervcpu ksm))
    in
    let cpus =
      Array.map
        (fun (cpu : Hw.Cpu.t) ->
          {
            Image.c_kernel = (cpu.Hw.Cpu.mode = Hw.Cpu.Kernel);
            c_pkrs = cpu.Hw.Cpu.pkrs;
            c_if = cpu.Hw.Cpu.if_flag;
            c_gs = cpu.Hw.Cpu.gs_base;
            c_kgs = cpu.Hw.Cpu.kernel_gs_base;
            c_cr3 = ref_of cpu.Hw.Cpu.cr3;
          })
        c.cpus
    in
    (* Guest kernel state.  Buddy blocks are recorded as *linearized*
       offsets — segment sizes summed in order, plus the offset inside
       the owning segment — so a scatter-delegated (multi-zone) buddy
       round-trips without changing the image format: with a single
       segment the linear offset is exactly [pfn - base].  Blocks never
       span zones, so each block lives in exactly one segment. *)
    let seg_starts =
      let acc = Array.make (Array.length seg_sizes) 0 in
      for i = 1 to Array.length seg_sizes - 1 do
        acc.(i) <- acc.(i - 1) + seg_sizes.(i - 1)
      done;
      acc
    in
    (* Zone by zone in segment order, ascending in a zone: the linear
       offsets ascend as they are. *)
    let buddy_blocks =
      Kernel_model.Buddy.allocated_blocks c.buddy
      |> List.map (fun (pfn, order) ->
             let seg = seg_index pfn 0 in
             if seg < 0 then raise (Fail (Foreign_frame pfn))
             else (seg_starts.(seg) + pfn - seg_bases.(seg), order))
    in
    let fs = Kernel_model.Kernel.fs kernel in
    let ino_path : (int, string) Hashtbl.t = Hashtbl.create 64 in
    let dirs_rev = ref [] in
    let files_rev = ref [] in
    let rec walk path inode =
      Hashtbl.replace ino_path (Kernel_model.Tmpfs.ino inode) (if path = "" then "/" else path);
      if Kernel_model.Tmpfs.is_dir inode then begin
        if path <> "" then dirs_rev := path :: !dirs_rev;
        List.iter
          (fun name ->
            let child = path ^ "/" ^ name in
            walk child (Kernel_model.Tmpfs.resolve fs child))
          (List.sort compare (Kernel_model.Tmpfs.readdir inode))
      end
      else
        let data = Bytes.create (Kernel_model.Tmpfs.size inode) in
        ignore (Kernel_model.Tmpfs.read_into fs inode ~off:0 data);
        files_rev := (path, Bytes.unsafe_to_string data) :: !files_rev
    in
    walk "" (Kernel_model.Tmpfs.resolve fs "/");
    let tasks =
      List.map
        (fun (task : Kernel_model.Task.t) ->
          let mm = task.Kernel_model.Task.mm in
          let vmas = ref [] in
          Kernel_model.Mm.iter_vmas mm (fun (a : Kernel_model.Vma.area) ->
              vmas :=
                {
                  Image.v_start = a.Kernel_model.Vma.start;
                  v_stop = a.Kernel_model.Vma.stop;
                  v_prot =
                    ( a.Kernel_model.Vma.prot.Kernel_model.Vma.read,
                      a.Kernel_model.Vma.prot.Kernel_model.Vma.write,
                      a.Kernel_model.Vma.prot.Kernel_model.Vma.exec );
                  v_backing = a.Kernel_model.Vma.backing;
                }
                :: !vmas);
          let pages_rev = ref [] in
          Kernel_model.Mm.iter_pages mm (fun vpn pfn ->
              pages_rev := (vpn, ref_of pfn) :: !pages_rev);
          let fds =
            Hashtbl.fold (fun fd obj acc -> (fd, obj) :: acc) task.Kernel_model.Task.fds []
            |> List.sort compare
            |> List.map (fun (fd, obj) ->
                   match obj with
                   | Kernel_model.Task.File f -> (
                       match Hashtbl.find_opt ino_path (Kernel_model.Tmpfs.ino f.Kernel_model.Task.inode) with
                       | Some path ->
                           { Image.f_fd = fd; f_pos = f.Kernel_model.Task.pos; f_path = path }
                       | None ->
                           raise (Fail (Unsupported_fd { pid = task.Kernel_model.Task.pid; fd })))
                   | Kernel_model.Task.Pipe_read _ | Kernel_model.Task.Pipe_write _
                   | Kernel_model.Task.Socket _ ->
                       raise (Fail (Unsupported_fd { pid = task.Kernel_model.Task.pid; fd })))
          in
          {
            Image.tk_pid = task.Kernel_model.Task.pid;
            tk_parent = task.Kernel_model.Task.parent;
            tk_next_fd = task.Kernel_model.Task.next_fd;
            tk_aspace = Kernel_model.Mm.aspace mm;
            tk_brk = Kernel_model.Mm.brk_now mm;
            tk_cursor = Kernel_model.Mm.mmap_cursor_now mm;
            tk_vmas = List.sort (fun a b -> compare a.Image.v_start b.Image.v_start) !vmas;
            tk_pages = List.rev !pages_rev;
            tk_fds = fds;
          })
        (Kernel_model.Kernel.tasks kernel)
    in
    let aux = Array.of_list (List.rev_map snd !aux_rev) in
    let m_aux = Array.of_list (List.rev_map fst !aux_rev) in
    let image =
      {
        Image.cfg = c.cfg;
        segments = seg_sizes;
        aux;
        ptps;
        kernel_root = ref_of kroot;
        template;
        roots;
        tables =
          List.rev_map
            (fun (t_frame, t_level, t_va, entries) ->
              { Image.t_frame; t_level; t_va; t_entries = List.rev !entries })
            !tables_rev;
        pervcpu;
        cpus;
        next_pid = Kernel_model.Kernel.next_pid kernel;
        next_as = !(c.next_as);
        buddy_blocks;
        aspaces = List.map (fun (aid, root) -> (aid, ref_of root)) aspace_list;
        tasks;
        dirs = List.rev !dirs_rev;
        files = List.rev !files_rev;
      }
    in
    Ok (image, { m_seg_bases = seg_bases; m_aux })
  with Fail e -> Error e

let capture c = Result.map fst (capture_full c)
