(* A frozen in-memory clone template.

   Template.create captures the image first (so the image records the
   container's normal, writable state — what restores and clones should
   reproduce), then freezes the live container in place:

   - every resident user page is downgraded to read-only through the
     KSM path, in both the task's address space and the guest kernel's
     direct map (the writable alias), with an INVLPG on every vCPU for
     both virtual addresses — the same downgrade+shootdown discipline
     the lint engine enforces everywhere else;
   - the page's frame and the guest kernel image's frames are marked
     shared ([Phys_mem.set_shared_ro]), which pins them: the allocator
     refuses to free a shared frame while references remain.

   Clones then point their leaf PTEs at these frames read-only and
   materialize private copies only when written. *)

type t = {
  container : Cki.Container.t;
  image : Image.t;
  map : Capture.map;
}

type error =
  | Capture_error of Capture.error
  | Restore_error of Restore.error
  | Freeze_error of string

let show_error = function
  | Capture_error e -> "capture: " ^ Capture.show_error e
  | Restore_error e -> "clone: " ^ Restore.show_error e
  | Freeze_error s -> "freeze: " ^ s

exception Freeze of string

let ksm_exn label = function
  | Ok v -> v
  | Error e -> raise (Freeze (Printf.sprintf "%s rejected: %s" label (Cki.Ksm.show_error e)))

let freeze (c : Cki.Container.t) (image : Image.t) (map : Capture.map) =
  let ksm = c.Cki.Container.ksm in
  let mem = Hw.Machine.mem (Cki.Host.machine c.Cki.Container.host) in
  let kroot = Cki.Ksm.kernel_root ksm in
  let kernel = c.Cki.Container.backend.Virt.Backend.kernel in
  let invlpg_all va =
    Array.iter (fun cpu -> Hw.Cpu.exec_priv_exn cpu (Hw.Priv.Invlpg va)) c.Cki.Container.cpus
  in
  List.iter
    (fun (task : Kernel_model.Task.t) ->
      let mm = task.Kernel_model.Task.mm in
      let root =
        match Hw.Int_tbl.find_opt c.Cki.Container.aspaces (Kernel_model.Mm.aspace mm) with
        | Some r -> r
        | None -> raise (Freeze "task address space has no root")
      in
      (* In ascending vpn order; freezing writes [frozen], never the
         resident pages.  Each downgrade is a run of one with no hook:
         both downgrades precede both shootdowns, the order in which
         the clock has always summed them. *)
      Kernel_model.Mm.iter_pages mm (fun vpn pfn ->
          let va = Hw.Addr.va_of_vpn vpn in
          let dva = Cki.Layout.direct_va_of_pa (Hw.Addr.pa_of_pfn pfn) in
          ksm_exn "guest_protect(user)"
            (Cki.Ksm.guest_protect ksm ~root ~vpns:[| vpn |] ~writable:false ~shootdown:ignore);
          ksm_exn "guest_protect(direct)"
            (Cki.Ksm.guest_protect ksm ~root:kroot
               ~vpns:[| Hw.Addr.vpn_of_va dva |]
               ~writable:false ~shootdown:ignore);
          invlpg_all va;
          invlpg_all dva;
          (* Mirror the downgrade in the mm model: a template write must
             fault, not silently hit a frame the clones share. *)
          Kernel_model.Mm.freeze_page mm ~vpn;
          Hw.Phys_mem.set_shared_ro mem pfn true))
    (Kernel_model.Kernel.tasks kernel);
  (* The guest kernel image is immutable (exec-frozen at boot): clones
     share it outright rather than copying it. *)
  Array.iteri
    (fun i kind ->
      if kind = Image.Kernel_code then Hw.Phys_mem.set_shared_ro mem map.Capture.m_aux.(i) true)
    image.Image.aux

let create (c : Cki.Container.t) : (t, error) result =
  match Capture.capture_full c with
  | Error e -> Error (Capture_error e)
  | Ok (image, map) -> (
      match freeze c image map with
      | () -> Ok { container = c; image; map }
      | exception Freeze s -> Error (Freeze_error s))

let clone ?verify t =
  Restore.clone_of ?verify t.container.Cki.Container.host t.image
    ~orig_seg_bases:t.map.Capture.m_seg_bases ~orig_aux:t.map.Capture.m_aux
  |> Result.map_error (fun e -> Restore_error e)

let container t = t.container
let image t = t.image
let map t = t.map

let in_use t = Cki.Container.has_live_clones t.container

(* Tear a template down.  The refcount assertion is the point: freeing
   a frame a CoW child still references would hand the child's memory
   to the next allocation.  Callers that may race live clones (pool
   drain, migration cutover) must check {!in_use} and retire instead. *)
let destroy t =
  if in_use t then
    invalid_arg "Template.destroy: shared frames still referenced by live clones";
  Cki.Container.destroy t.container
