(* Quickstart: boot a CKI secure container, run a process in it, and
   watch where the time goes.

     dune exec examples/quickstart.exe *)

let () =
  Analysis.checked ~label:"quickstart" @@ fun () ->
  (* One machine, one host kernel, one CKI container. *)
  let machine = Hw.Machine.create ~cpus:4 ~mem_mib:256 () in
  let host = Cki.Host.create machine in
  let container = Cki.Container.create host in
  let b = Cki.Container.backend container in
  Printf.printf "booted %s (container id %d, PCID %d)\n" b.Virt.Backend.label
    (Cki.Container.container_id container)
    (Cki.Container.pcid container);

  (* Spawn a guest process and make some syscalls. *)
  let task = Virt.Backend.spawn b in
  let r = Virt.Backend.syscall_exn b task Kernel_model.Syscall.Getpid in
  (match r with
  | Kernel_model.Syscall.Rint pid -> Printf.printf "guest process pid = %d\n" pid
  | _ -> assert false);
  let getpid_ns =
    Virt.Backend.mean_latency b ~n:1000 (fun () ->
        ignore (Virt.Backend.syscall_exn b task Kernel_model.Syscall.Getpid))
  in
  Printf.printf "getpid latency: %.0f ns (native — no redirection, no PT switch)\n" getpid_ns;

  (* Write and read a file on the guest's tmpfs. *)
  let fd =
    match
      Virt.Backend.syscall_exn b task (Kernel_model.Syscall.Open { path = "/hello"; create = true })
    with
    | Kernel_model.Syscall.Rint fd -> fd
    | _ -> assert false
  in
  ignore
    (Virt.Backend.syscall_exn b task
       (Kernel_model.Syscall.Write { fd; data = Bytes.of_string "hello from a CKI container" }));
  ignore (Virt.Backend.syscall_exn b task (Kernel_model.Syscall.Lseek { fd; pos = 0 }));
  let buf = Bytes.create 64 in
  (match Virt.Backend.syscall_exn b task (Kernel_model.Syscall.Read { fd; buf }) with
  | Kernel_model.Syscall.Rint n -> Printf.printf "read back: %S\n" (Bytes.sub_string buf 0 n)
  | _ -> assert false);

  (* Demand-fault a memory region: each fault is handled by the guest
     kernel itself, plus exactly two KSM calls (PTE update + iret). *)
  let pages = 1024 in
  let base =
    match
      Virt.Backend.syscall_exn b task
        (Kernel_model.Syscall.Mmap { pages; prot = Kernel_model.Vma.prot_rw })
    with
    | Kernel_model.Syscall.Rint v -> v
    | _ -> assert false
  in
  let calls0 = Cki.Ksm.ksm_call_count (Cki.Container.ksm container) in
  let _, ns =
    Hw.Clock.timed b.Virt.Backend.clock (fun () ->
        ignore
          (Kernel_model.Mm.touch_range task.Kernel_model.Task.mm ~start:base ~pages ~write:true))
  in
  Printf.printf "page fault: %.0f ns avg over %d faults (%d KSM calls)\n"
    (ns /. float_of_int pages) pages
    (Cki.Ksm.ksm_call_count (Cki.Container.ksm container) - calls0);

  (* A hypercall through the hypercall gate — no L0 involvement even in
     a nested cloud. *)
  let t0 = Hw.Clock.now b.Virt.Backend.clock in
  b.Virt.Backend.empty_hypercall ();
  Printf.printf "hypercall: %.0f ns\n" (Hw.Clock.now b.Virt.Backend.clock -. t0);

  (* Where simulated time went, by event: *)
  Printf.printf "\nevent accounting:\n%s\n"
    (Format.asprintf "%a" Hw.Clock.pp (Hw.Machine.clock machine));
  ((), [ container ])

let () = print_endline "[analysis] machine scan + trace lint: clean"
