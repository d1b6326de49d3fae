(* Nested cloud scenario: the motivating deployment of Section 2.2 —
   secure containers inside an IaaS VM.  Runs the same Redis-like
   serving workload on HVM, PVM and CKI in both bare-metal and nested
   environments and shows how each degrades.

     dune exec examples/nested_cloud.exe *)

let machine () = Hw.Machine.create ~cpus:4 ~mem_mib:256 ()

(* CKI containers created along the way, sanitized at the end. *)
let booted : Cki.Container.t list ref = ref []

let track c =
  booted := c :: !booted;
  Cki.Container.backend c

let backends =
  [
    ("HVM-BM", fun () -> Virt.Hvm.create (machine ()));
    ("HVM-NST", fun () -> Virt.Hvm.create ~env:Virt.Env.Nested (machine ()));
    ("PVM-BM", fun () -> Virt.Pvm.create (machine ()));
    ("PVM-NST", fun () -> Virt.Pvm.create ~env:Virt.Env.Nested (machine ()));
    ("CKI-BM", fun () -> track (Cki.Container.create_standalone ~mem_mib:256 ()));
    ( "CKI-NST",
      fun () -> track (Cki.Container.create_standalone ~env:Virt.Env.Nested ~mem_mib:256 ()) );
  ]

let () =
  Analysis.checked ~label:"nested_cloud" @@ fun () ->
  Printf.printf "Secure containers in a nested cloud (L2 container / L1 host / L0 IaaS)\n";
  Printf.printf "=======================================================================\n\n";
  (* 1. The microbenchmark collapse: an empty hypercall. *)
  Printf.printf "empty hypercall (guest kernel -> host kernel):\n";
  List.iter
    (fun (name, mk) ->
      let b = mk () in
      let t0 = Hw.Clock.now b.Virt.Backend.clock in
      b.Virt.Backend.empty_hypercall ();
      Printf.printf "  %-8s %7.0f ns%s\n" name
        (Hw.Clock.now b.Virt.Backend.clock -. t0)
        (if name = "HVM-NST" then "   <- every L2 exit bounces through L0" else ""))
    backends;

  (* 2. Page-fault path under nesting. *)
  Printf.printf "\npage fault (demand paging a 4 MiB region):\n";
  List.iter
    (fun (name, mk) ->
      let b = mk () in
      let task = Virt.Backend.spawn b in
      let pages = 1024 in
      let base =
        match
          Virt.Backend.syscall_exn b task
            (Kernel_model.Syscall.Mmap { pages; prot = Kernel_model.Vma.prot_rw })
        with
        | Kernel_model.Syscall.Rint v -> v
        | _ -> assert false
      in
      let _, ns =
        Hw.Clock.timed b.Virt.Backend.clock (fun () ->
            ignore
              (Kernel_model.Mm.touch_range task.Kernel_model.Task.mm ~start:base ~pages ~write:true))
      in
      Printf.printf "  %-8s %7.0f ns/fault\n" name (ns /. float_of_int pages))
    backends;

  (* 3. End-to-end: a Redis-like server under load. *)
  Printf.printf "\nredis-like server, 64 clients, 1:1 GET/SET (k ops/s):\n";
  List.iter
    (fun (name, mk) ->
      let thr =
        Workloads.Kv.run_memtier (mk ()) ~flavor:Workloads.Kv.Redis ~clients:64 ~requests:2000
      in
      Printf.printf "  %-8s %8.1f\n" name (thr /. 1e3))
    backends;
  Printf.printf
    "\nCKI's exits never involve L0: its nested numbers track bare-metal, while\n\
     HVM's nested I/O collapses and PVM keeps paying syscall redirection.\n";
  ((), !booted)

let () =
  Printf.printf "[analysis] %d CKI containers scanned + trace linted: clean\n"
    (List.length !booted)
