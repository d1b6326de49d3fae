(* Every table and figure of the paper's evaluation, regenerated
   against the simulated machine.  See DESIGN.md section 4 for the
   experiment index and EXPERIMENTS.md for paper-vs-measured. *)

(* ------------------------------------------------------------------ *)
(* Table 2: container performance on microbenchmarks (ns)              *)
(* ------------------------------------------------------------------ *)

let table2 () =
  Artifact.section "Table 2: container performance on microbenchmarks (ns)";
  let tbl =
    Report.Table.create ~title:"Table 2 (+ CKI column; paper: RunC 93/1000/-, HVM-BM 91/4347/1088, PVM-BM 336/6727/466, HVM-NST 91/34050/6746, PVM-NST 336/7346/486)"
      ~header:[ "benchmark"; "RunC"; "HVM-BM"; "PVM-BM"; "HVM-NST"; "PVM-NST"; "CKI" ]
  in
  let mk = [ Backends.runc; (fun () -> Backends.hvm_bm ()); Backends.pvm_bm; Backends.hvm_nst; Backends.pvm_nst; (fun () -> Backends.cki_bm ()) ] in
  let row name f =
    let values = List.map (fun m -> f (m ())) mk in
    Report.Table.add_floats tbl ~label:name ~fmt:(Printf.sprintf "%.0f") values
  in
  row "syscall (getpid)" Micro.getpid_ns;
  row "pgfault" (fun b -> Micro.pgfault_ns b);
  row "hypercall" Micro.hypercall_ns;
  Report.Table.print tbl

(* ------------------------------------------------------------------ *)
(* Table 3: privileged-instruction policy, executed                    *)
(* ------------------------------------------------------------------ *)

let table3 () =
  Artifact.section "Table 3: privileged instructions in the CKI guest kernel";
  let c = Cki.Container.create_standalone () in
  let cpu = Cki.Container.cpu c 0 in
  let tbl =
    Report.Table.create ~title:"Table 3: policy (executed against the simulated CPU)"
      ~header:[ "instruction"; "category"; "blocked?"; "observed"; "virtualized as" ]
  in
  List.iter
    (fun inst ->
      Cki.Container.enter_guest_kernel cpu;
      let observed =
        match Hw.Cpu.exec_priv cpu inst with
        | Error (Hw.Cpu.Blocked_instruction _) -> "trap"
        | Error _ -> "fault"
        | Ok () -> "executes"
      in
      Report.Table.add_row tbl
        [
          Hw.Priv.mnemonic inst;
          Hw.Priv.show_category (Hw.Priv.category inst);
          (if Hw.Priv.blocked_in_guest inst then "yes" else "no");
          observed;
          Hw.Priv.show_virtualization (Hw.Priv.virtualized_as inst);
        ])
    Hw.Priv.all_examples;
  Report.Table.print tbl

(* ------------------------------------------------------------------ *)
(* Table 4: TLB-miss-intensive applications                            *)
(* ------------------------------------------------------------------ *)

let table4 () =
  Artifact.section "Table 4: finish time of TLB-miss-intensive applications (s)";
  (* Sampled runs scaled to the paper's working-set sizes: the sampled
     loop runs [updates] accesses through a real TLB; the scale factor
     maps to the full-size run (45 GB working sets). *)
  let updates = 1_500_000 in
  let gups_scale = 31.1 (* ~46.7 M updates in the paper's 54.9 s run *) in
  let btree_scale = 21.2 in
  let table_pages = 200_000 in
  let tbl =
    Report.Table.create
      ~title:"Table 4 (paper: GUPS 54.9/67.8|67.1/54.9/55.1; BTree-Lookup 22.6/24.1|24.2/21.7/22.6)"
      ~header:[ "app"; "RunC-BM"; "HVM-BM (4K/2M EPT)"; "PVM-BM"; "CKI-BM" ]
  in
  let gups b ept_huge =
    let r = Workloads.Gups.run_gups b ~ept_huge ~table_pages ~updates () in
    r.Workloads.Gups.total_ns *. gups_scale /. 1e9
  in
  let btree b ept_huge =
    let r = Workloads.Gups.run_btree_lookup b ~ept_huge ~table_pages ~lookups:(updates / 5) () in
    r.Workloads.Gups.total_ns *. btree_scale /. 1e9
  in
  let row name f =
    let runc = f (Backends.runc ()) false in
    let hvm4k = f (Backends.hvm_bm ()) false in
    let hvm2m = f (Backends.hvm_bm ~ept_huge:true ()) true in
    let pvm = f (Backends.pvm_bm ()) false in
    let cki = f (Backends.cki_bm ()) false in
    Report.Table.add_row tbl
      [
        name;
        Printf.sprintf "%.1f" runc;
        Printf.sprintf "%.1f / %.1f" hvm4k hvm2m;
        Printf.sprintf "%.1f" pvm;
        Printf.sprintf "%.1f" cki;
      ]
  in
  row "GUPS" gups;
  row "BTree-Lookup" btree;
  Report.Table.print tbl

(* ------------------------------------------------------------------ *)
(* Figure 2: Linux kernel CVEs exploitable by containers               *)
(* ------------------------------------------------------------------ *)

(* The paper's classification of 209 CVEs (2022-2023). *)
let cve_classes =
  [
    ("out-of-bound R/W", 39.9, true);
    ("use-after-free", 20.2, true);
    ("null dereference", 12.8, true);
    ("other mem. corruption", 8.0, true);
    ("logic error", 6.4, true);
    ("memory leakage", 5.9, true);
    ("kernel panic", 2.7, true);
    ("deadlock/deadloop", 1.6, true);
    ("information leakage", 2.7, false);
  ]

let fig2 () =
  Artifact.section "Figure 2: Linux kernel CVEs exploitable by containers (2022-2023, n=209)";
  let tbl =
    Report.Table.create ~title:"Figure 2 (DoS-capable classes motivate kernel separation)"
      ~header:[ "class"; "share %"; "DoS-capable" ]
  in
  List.iter
    (fun (name, pct, dos) ->
      Report.Table.add_row tbl [ name; Printf.sprintf "%.1f" pct; (if dos then "yes" else "no") ])
    cve_classes;
  let dos_total = List.fold_left (fun a (_, p, d) -> if d then a +. p else a) 0.0 cve_classes in
  Report.Table.add_row tbl [ "TOTAL DoS-capable"; Printf.sprintf "%.1f" dos_total; "" ];
  Report.Table.print tbl

(* ------------------------------------------------------------------ *)
(* Memory-intensive application latency (Figures 4, 12)                *)
(* ------------------------------------------------------------------ *)

type mem_app = { app_name : string; run : Virt.Backend.t -> float }

let mem_apps () =
  [
    { app_name = "btree"; run = (fun b -> Workloads.Btree.run b ~inserts:60_000 ~lookups:15_000) };
    {
      app_name = "xsbench";
      run = (fun b -> Workloads.Xsbench.run b ~gridpoints:200_000 ~particles:25_000);
    };
    { app_name = "canneal"; run = (fun b -> Workloads.Parsec.run b Workloads.Parsec.canneal) };
    { app_name = "dedup"; run = (fun b -> Workloads.Parsec.run b Workloads.Parsec.dedup) };
    {
      app_name = "fluidanimate";
      run = (fun b -> Workloads.Parsec.run b Workloads.Parsec.fluidanimate);
    };
    { app_name = "freqmine"; run = (fun b -> Workloads.Parsec.run b Workloads.Parsec.freqmine) };
  ]

let run_mem_apps ~backends =
  List.map
    (fun app ->
      let results =
        List.map
          (fun mk ->
            let b = mk () in
            (b.Virt.Backend.label, app.run b))
          backends
      in
      (app.app_name, results))
    (mem_apps ())

let normalize_to_worst results =
  let worst = List.fold_left (fun m (_, v) -> max m v) 0.0 results in
  List.map (fun (l, v) -> (l, v /. worst)) results

let fig4 () =
  Artifact.section "Figure 4: memory-intensive applications, motivation (normalized latency)";
  let backends =
    [ Backends.hvm_nst; Backends.pvm_nst; Backends.runc; (fun () -> Backends.hvm_bm ()); Backends.pvm_bm ]
  in
  let rows = run_mem_apps ~backends in
  let groups = List.map (fun (app, rs) -> (app, normalize_to_worst rs)) rows in
  Report.Figure.print
    (Report.Figure.grouped_bars ~title:"Figure 4" ~value_label:"latency normalized to worst" ~groups)

let fig12 () =
  Artifact.section "Figure 12: memory-intensive applications with CKI (normalized latency)";
  let backends =
    [
      Backends.hvm_nst;
      (fun () -> Backends.hvm_bm ());
      Backends.pvm_bm;
      (fun () -> Backends.cki_bm ());
      Backends.runc;
      (fun () -> Backends.hvm_bm ~ept_huge:true ());
    ]
  in
  let rows = run_mem_apps ~backends in
  let groups = List.map (fun (app, rs) -> (app, normalize_to_worst rs)) rows in
  Report.Figure.print
    (Report.Figure.grouped_bars ~title:"Figure 12 (HVM-2M-BM = 2 MiB EPT mappings)"
       ~value_label:"latency normalized to worst" ~groups);
  (* The paper's headline claims, checked numerically: *)
  List.iter
    (fun (app, rs) ->
      let v l = List.assoc l rs in
      Printf.printf
        "  %-13s CKI vs HVM-NST: -%.0f%%  | CKI vs HVM-BM: -%.0f%%  | CKI vs PVM: -%.0f%%  | CKI vs RunC: +%.1f%%\n"
        app
        (Report.Stats.reduction_pct ~from_:(v "HVM-NST") ~to_:(v "CKI-BM"))
        (Report.Stats.reduction_pct ~from_:(v "HVM-BM") ~to_:(v "CKI-BM"))
        (Report.Stats.reduction_pct ~from_:(v "PVM-BM") ~to_:(v "CKI-BM"))
        (Report.Stats.overhead_pct ~baseline:(v "RunC-BM") (v "CKI-BM")))
    rows

(* ------------------------------------------------------------------ *)
(* Figure 5: I/O-intensive applications, motivation                    *)
(* ------------------------------------------------------------------ *)

type io_app = { io_name : string; throughput : Virt.Backend.t -> float }

let io_apps () =
  [
    {
      io_name = "nginx (static)";
      throughput = (fun b -> Workloads.Webserver.run b Workloads.Webserver.Nginx_static ~requests:2_000);
    };
    {
      io_name = "nginx (proxy)";
      throughput = (fun b -> Workloads.Webserver.run b Workloads.Webserver.Nginx_proxy ~requests:2_000);
    };
    {
      io_name = "httpd";
      throughput = (fun b -> Workloads.Webserver.run b Workloads.Webserver.Httpd ~requests:2_000);
    };
    {
      io_name = "redis";
      throughput = (fun b -> Workloads.Kv.run_throughput b ~flavor:Workloads.Kv.Redis ~requests:3_000);
    };
    {
      io_name = "memcached";
      throughput = (fun b -> Workloads.Kv.run_throughput b ~flavor:Workloads.Kv.Memcached ~requests:3_000);
    };
    { io_name = "netperf (TX)"; throughput = (fun b -> Workloads.Netperf.run_tx b ~sends:3_000) };
    { io_name = "netperf (RR)"; throughput = (fun b -> Workloads.Netperf.run_rr b ~transactions:3_000) };
    {
      io_name = "sqlite (tmpfs)";
      throughput =
        (fun b -> (Workloads.Sqlite.run_pattern b Workloads.Sqlite.Fillseq ~ops:2_000).Workloads.Sqlite.ops_per_sec);
    };
  ]

let run_io_apps ~backends ~normalize_best =
  List.map
    (fun app ->
      let results =
        List.map
          (fun mk ->
            let b = mk () in
            (b.Virt.Backend.label, app.throughput b))
          backends
      in
      let results =
        if normalize_best then
          let best = List.fold_left (fun m (_, v) -> max m v) 1e-9 results in
          List.map (fun (l, v) -> (l, v /. best)) results
        else results
      in
      (app.io_name, results))
    (io_apps ())

let fig5 () =
  Artifact.section "Figure 5: I/O-intensive applications, motivation (normalized throughput)";
  let backends =
    [ Backends.hvm_nst; Backends.pvm_nst; Backends.runc; (fun () -> Backends.hvm_bm ()); Backends.pvm_bm ]
  in
  let groups = run_io_apps ~backends ~normalize_best:true in
  Report.Figure.print
    (Report.Figure.grouped_bars ~title:"Figure 5" ~value_label:"throughput normalized to best" ~groups)

(* ------------------------------------------------------------------ *)
(* Figure 10: page-fault and syscall latency breakdowns                *)
(* ------------------------------------------------------------------ *)

let fig10 () =
  Artifact.section "Figure 10a: page fault latency breakdown (ns)";
  let cases =
    [
      ("HVM-NST", Backends.hvm_nst ());
      ("HVM-BM", Backends.hvm_bm ());
      ("PVM", Backends.pvm_bm ());
      ("CKI", Backends.cki_bm ());
      ("RunC", Backends.runc ());
    ]
  in
  List.iter
    (fun (name, b) ->
      let total, comps = Micro.pgfault_breakdown b in
      let comps_str =
        String.concat " + " (List.map (fun (e, v) -> Printf.sprintf "%s %.0f" e v) comps)
      in
      Printf.printf "  %-8s %8.0f ns  [%s]\n" name total comps_str)
    cases;
  Artifact.section "Figure 10b: system call latency and CKI optimizations (ns)";
  let cases =
    [
      ("RunC", Backends.runc ());
      ("HVM", Backends.hvm_bm ());
      ("PVM", Backends.pvm_bm ());
      ("CKI-wo-OPT2", Backends.cki_wo_opt2 ());
      ("CKI-wo-OPT3", Backends.cki_wo_opt3 ());
      ("CKI", Backends.cki_bm ());
    ]
  in
  List.iter (fun (name, b) -> Printf.printf "  %-12s %6.0f ns\n" name (Micro.getpid_ns b)) cases

(* ------------------------------------------------------------------ *)
(* Figure 11: lmbench                                                  *)
(* ------------------------------------------------------------------ *)

let fig11 () =
  Artifact.section "Figure 11: container performance on lmbench (latency, normalized to worst)";
  let backends =
    [ ("RunC", Backends.runc ()); ("HVM", Backends.hvm_bm ()); ("CKI", Backends.cki_bm ()); ("PVM", Backends.pvm_bm ()) ]
  in
  let suites = List.map (fun (name, b) -> (name, Workloads.Lmbench.run_suite b)) backends in
  let groups =
    List.map
      (fun op ->
        let vals =
          List.map (fun (name, suite) -> (name, List.assoc op suite)) suites
        in
        let worst = List.fold_left (fun m (_, v) -> max m v) 1e-9 vals in
        ( Workloads.Lmbench.op_name op,
          List.map (fun (n, v) -> (n, v /. worst)) vals ))
      Workloads.Lmbench.all_ops
  in
  Report.Figure.print
    (Report.Figure.grouped_bars ~title:"Figure 11" ~value_label:"latency normalized to worst" ~groups);
  Printf.printf "\n  absolute latencies (ns):\n";
  List.iter
    (fun op ->
      Printf.printf "  %-12s" (Workloads.Lmbench.op_name op);
      List.iter
        (fun (name, suite) -> Printf.printf "  %s=%-9.0f" name (List.assoc op suite))
        suites;
      print_newline ())
    Workloads.Lmbench.all_ops

(* ------------------------------------------------------------------ *)
(* Figure 13: overhead sweeps (BTree ratio, XSBench particles)         *)
(* ------------------------------------------------------------------ *)

let fig13 () =
  Artifact.section "Figure 13: overhead of secure containers vs RunC (%)";
  let backend_mks =
    [
      ("HVM-NST", Backends.hvm_nst);
      ("HVM-BM", fun () -> Backends.hvm_bm ());
      ("PVM", Backends.pvm_bm);
      ("CKI", fun () -> Backends.cki_bm ());
    ]
  in
  (* (a) BTree: lookup : insert ratio sweep *)
  let ratios = [ 1; 2; 4; 8; 16 ] in
  let total_ops = 60_000 in
  let baseline =
    List.map
      (fun r -> Workloads.Btree.run_ratio (Backends.runc ()) ~total_ops ~lookup_per_insert:r)
      ratios
  in
  let series =
    List.map
      (fun (name, mk) ->
        ( name,
          List.map2
            (fun r base ->
              let v = Workloads.Btree.run_ratio (mk ()) ~total_ops ~lookup_per_insert:r in
              Report.Stats.overhead_pct ~baseline:base v)
            ratios baseline ))
      backend_mks
  in
  Report.Figure.print
    (Report.Figure.series ~title:"Figure 13a: BTree" ~x_label:"lookups per insert"
       ~y_label:"overhead vs RunC (%)"
       ~xs:(List.map float_of_int ratios)
       ~series);
  (* (b) XSBench: particle-count sweep *)
  let particles = [ 2_000; 10_000; 50_000; 250_000 ] in
  let gridpoints = 120_000 in
  let baseline =
    List.map (fun p -> Workloads.Xsbench.run (Backends.runc ()) ~gridpoints ~particles:p) particles
  in
  let series =
    List.map
      (fun (name, mk) ->
        ( name,
          List.map2
            (fun p base ->
              let v = Workloads.Xsbench.run (mk ()) ~gridpoints ~particles:p in
              Report.Stats.overhead_pct ~baseline:base v)
            particles baseline ))
      backend_mks
  in
  Report.Figure.print
    (Report.Figure.series ~title:"Figure 13b: XSBench" ~x_label:"particles"
       ~y_label:"overhead vs RunC (%)"
       ~xs:(List.map float_of_int particles)
       ~series)

(* ------------------------------------------------------------------ *)
(* Figures 14/15: SQLite                                               *)
(* ------------------------------------------------------------------ *)

let fig14 () =
  Artifact.section "Figure 14: SQLite benchmark (throughput normalized to best; syscall frequency)";
  let backends =
    [
      ("PVM", Backends.pvm_bm);
      ("CKI", fun () -> Backends.cki_bm ());
      ("HVM", fun () -> Backends.hvm_bm ());
      ("RunC", Backends.runc);
    ]
  in
  let ops = 2_000 in
  let groups =
    List.map
      (fun p ->
        let results =
          List.map
            (fun (name, mk) ->
              let r = Workloads.Sqlite.run_pattern (mk ()) p ~ops in
              (name, r))
            backends
        in
        let best =
          List.fold_left (fun m (_, r) -> max m r.Workloads.Sqlite.ops_per_sec) 1e-9 results
        in
        let freq =
          match results with (_, r) :: _ -> r.Workloads.Sqlite.syscall_freq_per_sec /. 1e6 | [] -> 0.0
        in
        ( Printf.sprintf "%s (syscalls: %.2f M/s)" (Workloads.Sqlite.pattern_name p) freq,
          List.map (fun (n, r) -> (n, r.Workloads.Sqlite.ops_per_sec /. best)) results ))
      Workloads.Sqlite.all_patterns
  in
  Report.Figure.print
    (Report.Figure.grouped_bars ~title:"Figure 14" ~value_label:"throughput normalized to best" ~groups)

let fig15 () =
  Artifact.section "Figure 15: syscall optimizations in CKI, SQLite overhead vs RunC (%)";
  let ops = 2_000 in
  let tbl =
    Report.Table.create ~title:"Figure 15 (paper: PVM up to 24%, CKI-wo-OPT2 up to 15%, CKI-wo-OPT3 up to 9%, CKI ~0%)"
      ~header:("pattern" :: [ "PVM"; "CKI-wo-OPT2"; "CKI-wo-OPT3"; "CKI" ])
  in
  List.iter
    (fun p ->
      let base = (Workloads.Sqlite.run_pattern (Backends.runc ()) p ~ops).Workloads.Sqlite.ops_per_sec in
      let ov mk =
        let r = (Workloads.Sqlite.run_pattern (mk ()) p ~ops).Workloads.Sqlite.ops_per_sec in
        (* overhead = throughput loss vs RunC *)
        100.0 *. (1.0 -. (r /. base))
      in
      Report.Table.add_row tbl
        [
          Workloads.Sqlite.pattern_name p;
          Printf.sprintf "%.0f" (ov Backends.pvm_bm);
          Printf.sprintf "%.0f" (ov Backends.cki_wo_opt2);
          Printf.sprintf "%.0f" (ov Backends.cki_wo_opt3);
          Printf.sprintf "%.0f" (ov (fun () -> Backends.cki_bm ()));
        ])
    Workloads.Sqlite.all_patterns;
  Report.Table.print tbl

(* ------------------------------------------------------------------ *)
(* Figure 16: key-value stores vs client count                         *)
(* ------------------------------------------------------------------ *)

let fig16 () =
  Artifact.section "Figure 16: key-value store throughput vs clients (k ops/s)";
  let clients = [ 4; 8; 16; 32; 64; 128 ] in
  let backends =
    [
      ("HVM-NST", Backends.hvm_nst);
      ("PVM-BM", Backends.pvm_bm);
      ("PVM-NST", Backends.pvm_nst);
      ("CKI-BM", fun () -> Backends.cki_bm ());
      ("CKI-NST", fun () -> Backends.cki_nst ());
    ]
  in
  let run flavor =
    let series =
      List.map
        (fun (name, mk) ->
          ( name,
            List.map
              (fun c -> Workloads.Kv.run_memtier (mk ()) ~flavor ~clients:c ~requests:2_000 /. 1e3)
              clients ))
        backends
    in
    Report.Figure.print
      (Report.Figure.series
         ~title:(Printf.sprintf "Figure 16: %s" (Workloads.Kv.show_flavor flavor))
         ~x_label:"clients" ~y_label:"k ops/s"
         ~xs:(List.map float_of_int clients)
         ~series);
    (* headline ratios at 64 clients *)
    let at name = List.nth (List.assoc name series) 4 in
    Printf.printf
      "  at 64 clients: CKI-NST/HVM-NST = %.1fx, CKI-BM/PVM-BM = %.2fx, CKI-NST/PVM-NST = %.2fx\n"
      (at "CKI-NST" /. at "HVM-NST")
      (at "CKI-BM" /. at "PVM-BM")
      (at "CKI-NST" /. at "PVM-NST")
  in
  run Workloads.Kv.Memcached;
  run Workloads.Kv.Redis

(* ------------------------------------------------------------------ *)
(* Security experiment (Sections 4 & 6): the attack suite              *)
(* ------------------------------------------------------------------ *)

let security () =
  Artifact.section "Security: container-escape / DoS attack suite (Sections 4 & 6)";
  let c = Cki.Container.create_standalone () in
  let results = Cki.Attacks.all c in
  List.iter
    (fun (name, outcome) ->
      Printf.printf "  %-28s %s\n" name
        (match outcome with
        | Cki.Attacks.Blocked m -> "BLOCKED by " ^ m
        | Cki.Attacks.Succeeded -> "*** SUCCEEDED (isolation violated) ***"))
    results;
  let blocked = List.length (List.filter (fun (_, o) -> Cki.Attacks.is_blocked o) results) in
  Printf.printf "  => %d/%d attacks blocked\n" blocked (List.length results)

(* ------------------------------------------------------------------ *)
(* CPU quotas: aggressive cpu.max degrades p99 superlinearly           *)
(* ------------------------------------------------------------------ *)

(* A single replica (autoscaling pinned to one) under a fixed 40k rps
   open-loop load, swept across cgroup-style CPU budgets.  The offered
   work rate is ~9.5% of a CPU (about 2.3 us/request), so budgets
   above that leave latency untouched while budgets below it stack
   throttled windows into the queue: a 1.25x budget cut past the work
   rate multiplies p99 by orders of magnitude, tail first (p50 holds
   until the backlog never drains).  The classic argument against
   aggressive quotas on latency-sensitive containers, and the signal
   the fleet autoscaler keys on. *)
let quota () =
  Artifact.section "CPU quotas (cgroup cpu.max): p99 vs per-replica budget";
  let run_budget budget =
    let tenant =
      {
        Fleet.Controller.default_tenant with
        Fleet.Controller.name = "quota";
        rate_rps = 40_000.0;
        requests = 6_000;
      }
    in
    let cfg =
      {
        Fleet.Controller.default_config with
        Fleet.Controller.tenants = [ tenant ];
        autoscaler =
          { Fleet.Autoscaler.default_config with Fleet.Autoscaler.min_replicas = 1; max_replicas = 1 };
        cpu_quota = Option.map (fun b -> (1_000_000.0, b *. 1_000_000.0)) budget;
      }
    in
    List.hd (Fleet.Controller.run cfg).Fleet.Controller.tenants
  in
  let uncapped = run_budget None in
  let budgets = [ 0.40; 0.20; 0.10; 0.09; 0.085; 0.08 ] in
  let rows = List.map (fun b -> (b, run_budget (Some b))) budgets in
  let tbl =
    Report.Table.create ~title:"40k rps (~10% of a CPU of work) against one quota-capped replica"
      ~header:[ "cpu.max budget"; "p50 us"; "p99 us"; "p99 vs uncapped"; "budget cut"; "throttles" ]
  in
  let open Fleet.Controller in
  Report.Table.add_row tbl
    [
      "uncapped";
      Printf.sprintf "%.1f" uncapped.tr_p50_us;
      Printf.sprintf "%.1f" uncapped.tr_p99_us;
      "1.0x";
      "1.0x";
      string_of_int uncapped.tr_throttle_events;
    ];
  List.iter
    (fun (b, tr) ->
      Report.Table.add_row tbl
        [
          Printf.sprintf "%g%%" (100.0 *. b);
          Printf.sprintf "%.1f" tr.tr_p50_us;
          Printf.sprintf "%.1f" tr.tr_p99_us;
          Printf.sprintf "%.1fx" (tr.tr_p99_us /. uncapped.tr_p99_us);
          Printf.sprintf "%.1fx" (1.0 /. b);
          string_of_int tr.tr_throttle_events;
        ])
    rows;
  Report.Table.print tbl;
  let p99_of b = (List.assoc b rows).tr_p99_us in
  Printf.printf
    "  tightening the budget 10%% -> 8%% (a %.2fx cut) multiplies p99 by %.0fx — superlinear %s\n"
    (0.10 /. 0.08)
    (p99_of 0.08 /. p99_of 0.10)
    (if p99_of 0.08 /. p99_of 0.10 > 2.0 *. (0.10 /. 0.08) then "OK" else "(expected >2x the cut)")

(* ------------------------------------------------------------------ *)
(* Ablations of DESIGN.md's design choices + Section 9 future work     *)
(* ------------------------------------------------------------------ *)

let ablation () =
  Artifact.section "Ablation 1: Design-PKS vs Design-PKU (Section 3.1)";
  let pf cfg =
    let b = Backends.cki ~cfg () in
    Micro.pgfault_ns ~pages:1024 b
  in
  let pks = pf Cki.Config.default in
  let pku = pf Cki.Config.pku_design in
  Printf.printf "  page fault: Design-PKS %.0f ns, Design-PKU %.0f ns (+%.0f ns ring-crossing injection)\n"
    pks pku (pku -. pks);

  Artifact.section "Ablation 2: eliding PTI/IBRS from the KSM gate (Section 3.3)";
  let without = pf Cki.Config.default in
  let with_pti = pf { Cki.Config.default with Cki.Config.pti_in_gates = true } in
  Printf.printf "  page fault: no-PTI gate %.0f ns, PTI+IBRS gate %.0f ns (saving %.0f ns/fault)\n"
    without with_pti (with_pti -. without);

  Artifact.section "Ablation 3: emulating PVM syscall latency on CKI (Section 7.3)";
  let thr cfg =
    let b = Backends.cki ~cfg () in
    Workloads.Kv.run_memtier b ~flavor:Workloads.Kv.Memcached ~clients:32 ~requests:2_000
  in
  let native = thr Cki.Config.default in
  let emul = thr { Cki.Config.default with Cki.Config.emulate_pvm_syscall = true } in
  Printf.printf "  memcached: CKI %.1f k ops/s, CKI+PVM-syscalls %.1f k ops/s (-%.1f%%)\n"
    (native /. 1e3) (emul /. 1e3)
    (100.0 *. (1.0 -. (emul /. native)));

  Artifact.section "Extension 1: ring-0 driver sandboxing vs microkernel IPC (Section 9)";
  let machine = Hw.Machine.create ~mem_mib:64 () in
  let registry = Cki.Driver_sandbox.create_registry machine in
  let drv = Cki.Driver_sandbox.load registry ~name:"e1000" ~heap_pages:16 in
  let clock = Hw.Machine.clock machine in
  let n = 10_000 in
  let t0 = Hw.Clock.now clock in
  for _ = 1 to n do
    match Cki.Driver_sandbox.invoke drv (fun d -> Cki.Driver_sandbox.heap_write d 0xd000_0000_0000) with
    | Ok () -> ()
    | Error _ -> failwith "driver died"
  done;
  let pks_gate = (Hw.Clock.now clock -. t0) /. float_of_int n in
  let t1 = Hw.Clock.now clock in
  for _ = 1 to n do
    Cki.Driver_sandbox.invoke_microkernel_style drv (fun _ -> ())
  done;
  let ipc = (Hw.Clock.now clock -. t1) /. float_of_int n in
  Printf.printf "  driver call: PKS domain gate %.1f ns vs ring-3 IPC %.1f ns (%.1fx)\n" pks_gate ipc
    (ipc /. pks_gate);

  Artifact.section "Extension 2: kernel-level syscall elision (Section 9)";
  let normal = Backends.cki () in
  let inkernel = Cki.Kernel_app.wrap_backend (Backends.cki ()) in
  let ops = 2_000 in
  let t_norm =
    (Workloads.Sqlite.run_pattern normal Workloads.Sqlite.Fillseq ~ops).Workloads.Sqlite.ops_per_sec
  in
  let t_ink =
    (Workloads.Sqlite.run_pattern (Cki.Kernel_app.backend inkernel) Workloads.Sqlite.Fillseq ~ops)
      .Workloads.Sqlite.ops_per_sec
  in
  Printf.printf "  sqlite fillseq: user-space %.1f k ops/s, in-kernel app %.1f k ops/s (+%.1f%%)\n"
    (t_norm /. 1e3) (t_ink /. 1e3)
    (100.0 *. ((t_ink /. t_norm) -. 1.0))

let all =
  [
    ("table2", table2);
    ("table3", table3);
    ("table4", table4);
    ("fig2", fig2);
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig10", fig10);
    ("fig11", fig11);
    ("fig12", fig12);
    ("fig13", fig13);
    ("fig14", fig14);
    ("fig15", fig15);
    ("fig16", fig16);
    ("security", security);
    ("quota", quota);
    ("ablation", ablation);
  ]
