(* RunC: the OS-level container baseline.

   Shares the host kernel; isolation is namespaces/cgroups only (which
   is why Section 2 argues it is insecure), but it sets the performance
   bar: native syscalls, native page faults, no virtualized I/O.

   In a nested cloud RunC itself runs inside the IaaS VM; its syscalls
   and page faults stay native to the L1 kernel (Figure 4/5 show
   RunC-BM only, which is what we expose). *)

let create ?(env = Env.Bare_metal) (machine : Hw.Machine.t) : Backend.t =
  let clock = Hw.Machine.clock machine in
  let base = Kernel_model.Platform.bare ~name:"runc" machine in
  let platform =
    {
      base with
      Kernel_model.Platform.syscall_round_trip =
        (fun () ->
          Hw.Clock.charge clock Hw.Cost.syscall_entry_exit;
          (* pid/mount namespace indirection *)
          Hw.Clock.charge clock Hw.Cost.runc_pid_ns_translation);
      fault_service = Hw.Cost.pf_handler_native;
    }
  in
  let kernel = Kernel_model.Kernel.create platform in
  {
    Backend.label = "RunC-" ^ Env.suffix env;
    backend_name = "runc";
    env;
    kernel;
    platform;
    clock;
    walk_refs = Hw.Cost.walk_refs_native;
    walk_refs_huge = Hw.Cost.walk_refs_native_huge;
    supports_hypercall = false;
    empty_hypercall = (fun () -> ());
    guest_user_kernel_isolated = true;
  }
