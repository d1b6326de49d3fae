(* The three microbenchmark primitives of Table 2 / Figure 10, measured
   in simulated nanoseconds on any backend. *)

(* Calls averaged by [getpid_ns] and [hypercall_ns]; pages touched by
   [pgfault_ns]. *)
let calls = 1000
let pages = 4096

let getpid_ns (b : Virt.Backend.t) =
  let task = Virt.Backend.spawn b in
  Virt.Backend.mean_latency b ~n:calls (fun () ->
      ignore (Virt.Backend.syscall_exn b task Kernel_model.Syscall.Getpid))

(* Allocate a large region and touch each 4 KiB page (the paper's
   page-fault microbenchmark). *)
let pgfault_ns ?(pages = pages) (b : Virt.Backend.t) =
  let task = Virt.Backend.spawn b in
  let base =
    match
      Virt.Backend.syscall_exn b task
        (Kernel_model.Syscall.Mmap { pages; prot = Kernel_model.Vma.prot_rw })
    with
    | Kernel_model.Syscall.Rint v -> v
    | _ -> failwith "mmap"
  in
  let ns =
    Backends.time b (fun () ->
        ignore (Kernel_model.Mm.touch_range task.Kernel_model.Task.mm ~start:base ~pages ~write:true))
  in
  ns /. float_of_int pages

let hypercall_ns (b : Virt.Backend.t) =
  if not b.Virt.Backend.supports_hypercall then nan
  else
    Virt.Backend.mean_latency b ~n:calls (fun () -> b.Virt.Backend.empty_hypercall ())

(* Event-accounted breakdown of the page-fault path (Figure 10a): total
   plus the share attributed to each cost category. *)
let pgfault_breakdown ?(pages = 2048) (b : Virt.Backend.t) =
  let task = Virt.Backend.spawn b in
  let base =
    match
      Virt.Backend.syscall_exn b task
        (Kernel_model.Syscall.Mmap { pages; prot = Kernel_model.Vma.prot_rw })
    with
    | Kernel_model.Syscall.Rint v -> v
    | _ -> failwith "mmap"
  in
  let clock = b.Virt.Backend.clock in
  let spent_before =
    List.map (fun e -> (e, Hw.Clock.spent_on clock e))
      [ "pf_service"; "ept_fault_bm"; "ept_fault_nst"; "pvm_fault_vmexits"; "pvm_fault_spt";
        "pvm_fault_nst_extra"; "ksm_call" ]
  in
  let total =
    Backends.time b (fun () ->
        ignore (Kernel_model.Mm.touch_range task.Kernel_model.Task.mm ~start:base ~pages ~write:true))
  in
  let comps =
    List.filter_map
      (fun (e, before) ->
        let d = (Hw.Clock.spent_on clock e -. before) /. float_of_int pages in
        if d > 0.01 then Some (e, d) else None)
      spent_before
  in
  (total /. float_of_int pages, comps)

(* Table 2's primitives per backend, each on a fresh backend: the
   BENCH_micro.json artifact (runc has no hypercall). *)
let run () =
  let row (backend, mk) =
    let m prim n v = Artifact.sim ~n (backend ^ "." ^ prim) "ns" v in
    let getpid = getpid_ns (mk ()) in
    let pgfault = pgfault_ns (mk ()) in
    let hypercall = hypercall_ns (mk ()) in
    [ m "getpid" calls getpid; m "pgfault" pages pgfault ]
    @ if Float.is_nan hypercall then [] else [ m "hypercall" calls hypercall ]
  in
  {
    Artifact.bench = "micro";
    metrics =
      List.concat_map row
        [
          ("runc", Backends.runc);
          ("hvm_bm", fun () -> Backends.hvm_bm ());
          ("pvm_bm", Backends.pvm_bm);
          ("cki", fun () -> Backends.cki_bm ());
        ];
    gates = [];
  }
