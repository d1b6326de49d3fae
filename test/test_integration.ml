(* Cross-module integration tests: many-container scalability
   (Challenge 1), segment fragmentation (the paper's acknowledged
   limitation), huge-page mappings through the KSM, gate stress, and
   end-to-end figure-shape invariants. *)

open Alcotest

let check_int = check int
let check_bool = check bool

(* Challenge 1: PKS offers 16 domains, yet CKI must host dozens of
   containers.  Because each container needs only 2 domains in its own
   address space, the number of containers is unbounded by keys.  Boot
   20 containers on one host and exercise each. *)
let test_more_containers_than_pks_domains () =
  Analysis.checked ~label:"20-containers" @@ fun () ->
  let machine = Hw.Machine.create ~cpus:8 ~mem_mib:640 () in
  let host = Cki.Host.create machine in
  let cfg = { Cki.Config.default with Cki.Config.segment_frames = 1536; vcpus = 1 } in
  let containers = List.init 20 (fun _ -> Cki.Container.create ~cfg host) in
  check_int "20 containers" 20 (List.length containers);
  check_bool "more than PKS keys" true (List.length containers > Hw.Pks.num_keys);
  (* every container works: syscall + fault + hypercall *)
  List.iter
    (fun c ->
      let b = Cki.Container.backend c in
      let task = Virt.Backend.spawn b in
      (match Virt.Backend.syscall_exn b task Kernel_model.Syscall.Getpid with
      | Kernel_model.Syscall.Rint _ -> ()
      | _ -> fail "getpid");
      let base =
        match
          Virt.Backend.syscall_exn b task
            (Kernel_model.Syscall.Mmap { pages = 8; prot = Kernel_model.Vma.prot_rw })
        with
        | Kernel_model.Syscall.Rint v -> v
        | _ -> fail "mmap"
      in
      ignore (Kernel_model.Mm.touch_range task.Kernel_model.Task.mm ~start:base ~pages:8 ~write:true);
      b.Virt.Backend.empty_hypercall ())
    containers;
  (* all PCIDs distinct *)
  let pcids = List.map Cki.Container.pcid containers in
  check_int "distinct pcids" 20 (List.length (List.sort_uniq compare pcids));
  (* all segments disjoint *)
  let segs =
    List.concat_map
      (fun c -> Cki.Host.delegations_of host ~container:(Cki.Container.container_id c))
      containers
  in
  let sorted = List.sort (fun a b -> compare a.Cki.Host.base b.Cki.Host.base) segs in
  let rec disjoint = function
    | a :: (b :: _ as rest) -> a.Cki.Host.base + a.Cki.Host.frames <= b.Cki.Host.base && disjoint rest
    | [ _ ] | [] -> true
  in
  check_bool "segments disjoint" true (disjoint sorted);
  ((), containers)

(* The fragmentation limitation: after tearing down interleaved
   containers, a larger segment may be unplaceable even though total
   free memory suffices. *)
let test_segment_fragmentation () =
  let machine = Hw.Machine.create ~cpus:2 ~mem_mib:64 () in
  let mem = Hw.Machine.mem machine in
  (* fill memory completely with alternating 2048-frame container/host
     stripes (64 MiB = 16384 frames = 8 stripes) *)
  let stripes =
    List.init 8 (fun i ->
        let owner = if i mod 2 = 0 then Hw.Phys_mem.Container (100 + i) else Hw.Phys_mem.Host in
        Hw.Phys_mem.alloc_contiguous mem ~owner ~kind:Hw.Phys_mem.Data ~count:2048)
  in
  ignore stripes;
  (* free the container stripes: >6000 frames free, but max run = 2048 *)
  List.iteri
    (fun i base -> if i mod 2 = 0 then Hw.Phys_mem.free_range mem ~base ~count:2048)
    stripes;
  check_bool "plenty free" true (Hw.Phys_mem.free_frames mem > 6000);
  check_raises "no contiguous 4096 run" Hw.Phys_mem.Out_of_memory (fun () ->
      ignore (Hw.Phys_mem.alloc_contiguous mem ~owner:Hw.Phys_mem.Host ~kind:Hw.Phys_mem.Data ~count:4096));
  (* a segment that fits a stripe still works *)
  ignore (Hw.Phys_mem.alloc_contiguous mem ~owner:Hw.Phys_mem.Host ~kind:Hw.Phys_mem.Data ~count:2048)

(* KSM validates 2 MiB leaf mappings at level 2. *)
let test_ksm_huge_mapping () =
  Analysis.checked ~label:"huge-mapping" @@ fun () ->
  let c = Cki.Container.create_standalone ~mem_mib:160 () in
  let ksm = Cki.Container.ksm c in
  let buddy = Cki.Container.buddy c in
  let root = Cki.Ksm.kernel_root ksm in
  let huge_frame = Kernel_model.Buddy.alloc_huge buddy in
  let flags = { Hw.Pte.default_flags with user = true; nx = true; huge = true } in
  (match
     Cki.Ksm.guest_map ksm ~root ~va:0x4000_0000 ~pfn:huge_frame ~flags
       ~alloc_ptp:(fun () -> Kernel_model.Buddy.alloc buddy)
   with
  | Ok () -> ()
  | Error e -> fail (Cki.Ksm.show_error e));
  let mem = Hw.Machine.mem (Cki.Host.machine c.Cki.Container.host) in
  let pt = Hw.Page_table.of_root mem root in
  let w = Hw.Page_table.walk pt (0x4000_0000 + 0x5000) in
  check_int "huge leaf" 2 w.Hw.Page_table.leaf_level;
  check_int "frame" huge_frame (Hw.Pte.pfn w.Hw.Page_table.pte);
  (* a huge mapping of KSM memory is still rejected *)
  (match
     Cki.Ksm.guest_map ksm ~root ~va:Cki.Layout.ksm_base ~pfn:huge_frame ~flags
       ~alloc_ptp:(fun () -> Kernel_model.Buddy.alloc buddy)
   with
  | Error (Cki.Ksm.Reserved_range _) -> ()
  | _ -> fail "huge mapping must be validated too");
  ((), [ c ])

(* Gate stress: thousands of interleaved KSM calls / hypercalls /
   interrupts leave CPU state exactly restored. *)
let test_gate_stress () =
  Analysis.checked ~label:"gate-stress" @@ fun () ->
  let c = Cki.Container.create_standalone ~mem_mib:160 () in
  let cpu = Cki.Container.cpu c 0 in
  Cki.Container.enter_guest_kernel cpu;
  let gates = Cki.Container.gates c in
  let cr3 = cpu.Hw.Cpu.cr3 in
  for i = 1 to 2_000 do
    (match i mod 3 with
    | 0 -> (
        match Cki.Gates.ksm_call gates cpu ~vcpu:0 (fun () -> i) with
        | Ok v -> if v <> i then fail "wrong result"
        | Error e -> fail (Cki.Gates.show_error e))
    | 1 -> (
        match
          Cki.Gates.hypercall gates cpu ~vcpu:0 ~request:Kernel_model.Platform.Timer (fun _ -> ())
        with
        | Ok () -> ()
        | Error e -> fail (Cki.Gates.show_error e))
    | _ -> (
        match
          Cki.Gates.interrupt gates cpu ~vcpu:0 ~vector:Hw.Idt.vec_timer ~kind:Hw.Idt.Hardware
            (fun _ -> ())
        with
        | Ok () -> ()
        | Error e -> fail (Cki.Gates.show_error e)))
  done;
  check_int "PKRS restored" Hw.Pks.pkrs_guest cpu.Hw.Cpu.pkrs;
  check_int "CR3 restored" cr3 cpu.Hw.Cpu.cr3;
  check_bool "no saved PKRS leaked" true (cpu.Hw.Cpu.saved_pkrs = []);
  let area = Cki.Pervcpu.area (Cki.Ksm.pervcpu (Cki.Container.ksm c)) 0 in
  check_int "secure stack balanced" 0 area.Cki.Pervcpu.stack_depth;
  ((), [ c ])

(* End-to-end shape invariant: on a memory-intensive app, the
   orderings of the paper's Figures 4 and 12 hold. *)
let test_fig12_ordering () =
  Analysis.checked ~label:"fig12" @@ fun () ->
  let machine () = Hw.Machine.create ~cpus:2 ~mem_mib:512 () in
  let app b = Workloads.Parsec.run b Workloads.Parsec.dedup in
  let runc = app (Virt.Runc.create (machine ())) in
  let cki_container =
    Cki.Container.create_standalone
      ~cfg:{ Cki.Config.default with Cki.Config.segment_frames = 65536 }
      ~mem_mib:512 ()
  in
  let cki = app (Cki.Container.backend cki_container) in
  let hvm = app (Virt.Hvm.create (machine ())) in
  let pvm = app (Virt.Pvm.create (machine ())) in
  let hvm_nst = app (Virt.Hvm.create ~env:Virt.Env.Nested (machine ())) in
  let pvm_nst = app (Virt.Pvm.create ~env:Virt.Env.Nested (machine ())) in
  check_bool "RunC <= CKI" true (runc <= cki);
  check_bool "CKI < HVM-BM" true (cki < hvm);
  check_bool "CKI < PVM" true (cki < pvm);
  check_bool "everything < HVM-NST" true (List.for_all (fun v -> v < hvm_nst) [ runc; hvm; pvm; pvm_nst; cki ]);
  check_bool "CKI within 3% of RunC" true ((cki -. runc) /. runc < 0.03);
  ((), [ cki_container ])

(* Syscall-heavy end-to-end: a process writes 1 MiB through 1-KiB
   writes on each backend; CKI==RunC, PVM pays per syscall. *)
let test_write_loop_totals () =
  Analysis.checked ~label:"write-loop" @@ fun () ->
  let run (b : Virt.Backend.t) =
    let task = Virt.Backend.spawn b in
    let fd =
      match
        Virt.Backend.syscall_exn b task (Kernel_model.Syscall.Open { path = "/out"; create = true })
      with
      | Kernel_model.Syscall.Rint fd -> fd
      | _ -> fail "open"
    in
    let chunk = Bytes.create 1024 in
    Virt.Backend.time b (fun () ->
        for _ = 1 to 1024 do
          ignore (Virt.Backend.syscall_exn b task (Kernel_model.Syscall.Write { fd; data = chunk }))
        done)
  in
  let runc = run (Virt.Runc.create (Hw.Machine.create ~mem_mib:64 ())) in
  let cki_container = Cki.Container.create_standalone ~mem_mib:160 () in
  let cki = run (Cki.Container.backend cki_container) in
  let pvm = run (Virt.Pvm.create (Hw.Machine.create ~mem_mib:64 ())) in
  check_bool "CKI within 1% of RunC" true (Float.abs (cki -. runc) /. runc < 0.01);
  let extra = (pvm -. runc) /. 1024.0 in
  check_bool "PVM pays ~243ns per write" true (Float.abs (extra -. 243.0) < 10.0);
  ((), [ cki_container ])

let suite =
  [
    ( "integration",
      [
        test_case "20 containers > 16 PKS domains (Challenge 1)" `Quick
          test_more_containers_than_pks_domains;
        test_case "segment fragmentation limitation" `Quick test_segment_fragmentation;
        test_case "KSM-validated 2 MiB mappings" `Quick test_ksm_huge_mapping;
        test_case "gate stress: state restored" `Quick test_gate_stress;
        test_case "Figure 12 ordering invariant" `Quick test_fig12_ordering;
        test_case "write-loop totals per backend" `Quick test_write_loop_totals;
      ] );
  ]
