(* Snapshot/restore/warm-clone benchmark (simulated ns).

   Measures the three ways to get a ready container:

   - cold boot: Container.create + init workload (guest kernel boot
     dominates at Hw.Cost.guest_kernel_boot);
   - restore: rebuild from a captured image, paying a per-frame copy;
   - warm clone: CoW against a frozen template, paying per-PTE.

   Also reports the clone's incremental memory footprint against the
   template's, and runs the analysis scanner over every restored and
   cloned container — the numbers only count if the results are clean.

   Gates: restore and clone each >= 10x faster than cold boot; clone
   materializes < 25% of the template's frames; every restored and
   cloned container is analysis-clean. *)

(* Boot-time init: a task with a dirty heap and a tmpfs file, so the
   image has real state to carry. *)
let init_workload (c : Cki.Container.t) =
  let b = Cki.Container.backend c in
  let task = Virt.Backend.spawn b in
  let base =
    match
      Virt.Backend.syscall_exn b task
        (Kernel_model.Syscall.Mmap { pages = 1024; prot = Kernel_model.Vma.prot_rw })
    with
    | Kernel_model.Syscall.Rint v -> v
    | _ -> failwith "mmap"
  in
  ignore (Kernel_model.Mm.touch_range task.Kernel_model.Task.mm ~start:base ~pages:1024 ~write:true);
  let fd =
    match
      Virt.Backend.syscall_exn b task (Kernel_model.Syscall.Open { path = "/app.conf"; create = true })
    with
    | Kernel_model.Syscall.Rint fd -> fd
    | _ -> failwith "open"
  in
  (match
     Virt.Backend.syscall_exn b task
       (Kernel_model.Syscall.Write { fd; data = Bytes.of_string "threads=4\ncache=64M\n" })
   with
  | Kernel_model.Syscall.Rint _ -> ()
  | _ -> failwith "write")

let run () =
  let machine = Hw.Machine.create ~cpus:2 ~mem_mib:512 () in
  let host = Cki.Host.create machine in
  let clock = Hw.Machine.clock machine in
  let cfg = { Cki.Config.default with Cki.Config.segment_frames = 16384 (* 64 MiB *) } in
  (* Cold boot to ready. *)
  let c0, cold_ns =
    Hw.Clock.timed clock (fun () ->
        let c = Cki.Container.create ~cfg host in
        init_workload c;
        c)
  in
  (* Freeze it into a template (capture happens inside). *)
  let tpl =
    match Snapshot.Template.create c0 with
    | Ok t -> t
    | Error e -> failwith (Snapshot.Template.show_error e)
  in
  let image = Snapshot.Template.image tpl in
  let image_bytes = String.length (Snapshot.Image.encode image) in
  (* Full restore from the image (fresh segment, full copy). *)
  let restored, restore_ns =
    Hw.Clock.timed clock (fun () ->
        match Snapshot.Restore.restore host image with
        | Ok c -> c
        | Error e -> failwith (Snapshot.Restore.show_error e))
  in
  (* Warm clones through a pool. *)
  let pool = Snapshot.Pool.create ~target:1 ~make:(fun () -> tpl) () in
  let n_clones = 4 in
  let clones, clone_ns_total =
    Hw.Clock.timed clock (fun () ->
        List.init n_clones (fun _ ->
            match Snapshot.Pool.spawn_fast pool with
            | Ok c -> c
            | Error e -> failwith (Snapshot.Template.show_error e)))
  in
  let clone_ns = clone_ns_total /. float_of_int n_clones in
  (* Memory: incremental footprint of a clone vs the template. *)
  let tpl_frames = Snapshot.Restore.materialized_frames (Snapshot.Template.container tpl) in
  let clone_frames = Snapshot.Restore.materialized_frames (List.hd clones) in
  let mem_ratio = float_of_int clone_frames /. float_of_int tpl_frames in
  (* Every restored/cloned container must pass the analysis scanner.
     (spawn_fast already verified each; this re-checks explicitly.) *)
  let findings =
    List.fold_left
      (fun acc c -> acc + List.length (Analysis.check_machine ~containers:[ c ]))
      0 (restored :: clones)
  in
  let speedup_restore = cold_ns /. restore_ns in
  let speedup_clone = cold_ns /. clone_ns in
  {
    Artifact.bench = "snapshot";
    metrics =
      [
        Artifact.sim "cold_boot" "ns" cold_ns;
        Artifact.sim "restore" "ns" restore_ns;
        Artifact.sim ~n:n_clones "clone" "ns" clone_ns;
        Artifact.sim "restore_speedup" "x" speedup_restore;
        Artifact.sim ~n:n_clones "clone_speedup" "x" speedup_clone;
        Artifact.count "template_frames" "frames" tpl_frames;
        Artifact.count "clone_frames" "frames" clone_frames;
        Artifact.sim "clone_mem_ratio" "ratio" mem_ratio;
        Artifact.count "image_bytes" "bytes" image_bytes;
      ];
    gates =
      [
        Artifact.gate "restore >= 10x faster than cold boot" (speedup_restore >= 10.0)
          (Printf.sprintf "%.0fx" speedup_restore);
        Artifact.gate "warm clone >= 10x faster than cold boot" (speedup_clone >= 10.0)
          (Printf.sprintf "%.0fx" speedup_clone);
        Artifact.gate "clone memory < 25% of the template" (mem_ratio < 0.25)
          (Printf.sprintf "%d/%d frames" clone_frames tpl_frames);
        Artifact.gate "restored and cloned containers analysis-clean" (findings = 0)
          (Printf.sprintf "%d findings on %d containers" findings (1 + n_clones));
      ];
  }
