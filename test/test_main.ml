(* Test entry point: all suites. *)

let () =
  Alcotest.run "cki-repro"
    (Test_hw_mem.suite @ Test_hw_cpu.suite @ Test_kernel.suite @ Test_virt.suite @ Test_cki.suite
   @ Test_workloads.suite @ Test_extensions.suite @ Test_integration.suite @ Test_depth.suite
   @ Test_param.suite @ Test_analysis.suite @ Test_snapshot.suite @ Test_ioplane.suite
   @ Test_policy.suite @ Test_modelcheck.suite @ Test_srclint.suite @ Test_engine.suite
   @ Test_fleet.suite @ Test_migrate.suite)
