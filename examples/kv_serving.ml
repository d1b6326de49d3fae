(* Key-value serving example (the Figure 16 scenario): a memcached-like
   server under a memtier-style client sweep, on CKI vs the baselines,
   bare-metal and nested.

     dune exec examples/kv_serving.exe *)

let booted : Cki.Container.t list ref = ref []

let track c =
  booted := c :: !booted;
  Cki.Container.backend c

let () =
  (Analysis.checked ~label:"kv_serving" @@ fun () ->
  let clients = [ 4; 16; 64 ] in
  let backends =
    [
      ("RunC-BM", fun () -> Virt.Runc.create (Hw.Machine.create ~mem_mib:256 ()));
      ("HVM-NST", fun () -> Virt.Hvm.create ~env:Virt.Env.Nested (Hw.Machine.create ~mem_mib:256 ()));
      ("PVM-BM", fun () -> Virt.Pvm.create (Hw.Machine.create ~mem_mib:256 ()));
      ("CKI-BM", fun () -> track (Cki.Container.create_standalone ~mem_mib:256 ()));
      ( "CKI-NST",
        fun () -> track (Cki.Container.create_standalone ~env:Virt.Env.Nested ~mem_mib:256 ()) );
    ]
  in
  List.iter
    (fun flavor ->
      Printf.printf "\n%s, 1:1 GET/SET, 500 B values (k ops/s):\n"
        (Workloads.Kv.show_flavor flavor);
      Printf.printf "%-9s" "clients";
      List.iter (fun c -> Printf.printf "%10d" c) clients;
      print_newline ();
      List.iter
        (fun (name, mk) ->
          Printf.printf "%-9s" name;
          List.iter
            (fun c ->
              let thr = Workloads.Kv.run_memtier (mk ()) ~flavor ~clients:c ~requests:1_500 in
              Printf.printf "%10.1f" (thr /. 1e3))
            clients;
          print_newline ())
        backends)
    [ Workloads.Kv.Memcached; Workloads.Kv.Redis ];
  Printf.printf
    "\nPer request the server pays: recv+send syscalls (PVM: +2 mode +2 CR3\n\
     switches each), a VirtIO doorbell (HVM-NST: 6.7 us L0-redirected exit;\n\
     PVM: MMIO emulation; CKI: 390 ns hypercall gate) and a completion\n\
     interrupt (HVM: exit + inject + EOI exit).  That is the whole story\n\
     of Figure 16.\n";
  ((), !booted));
  Printf.printf "[analysis] %d CKI containers scanned + trace linted: clean\n"
    (List.length !booted)
