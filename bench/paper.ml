(* The paper's evaluation as one artifact bench, BENCH_paper.json.

   Each experiment runs the workloads behind one table or figure of
   the paper (DESIGN.md section 4) on fresh simulated backends and
   returns every measured cell as a [Sim] metric — raw ns, s or ops/s,
   or the figure's own overhead vs RunC in % — plus one gate per claim
   EXPERIMENTS.md makes about it.  Every gate that folds over a list
   also checks the list's expected length, so none passes on an empty
   sample, and every gate's detail prints the values it compared.

   Experiments that run the same workload on the same fresh backends
   share one run: Figures 4 and 12 read one app x backend matrix,
   Figures 14 and 15 one pattern x backend matrix.

   Each experiment runs under Analysis.run: every CKI container it
   boots is scanned and its probe trace linted, and one gate checks
   the scan of the whole evaluation. *)

(* ------------------------------------------------------------------ *)
(* Backends and helpers                                                *)
(* ------------------------------------------------------------------ *)

(* Every call builds its own simulated machine, so runs are
   independent and reproducible. *)
let machine () = Hw.Machine.create ~cpus:4 ~mem_mib:768 ()
let runc () = Virt.Runc.create (machine ())
let hvm_bm () = Virt.Hvm.create (machine ())
let hvm_2m () = Virt.Hvm.create ~ept_huge:true (machine ())
let hvm_nst () = Virt.Hvm.create ~env:Virt.Env.Nested (machine ())
let pvm_bm () = Virt.Pvm.create (machine ())
let pvm_nst () = Virt.Pvm.create ~env:Virt.Env.Nested (machine ())

(* Every CKI container the running experiment has booted, newest
   first: [scanned] hands them to the analysis scan when it ends. *)
let booted : Cki.Container.t list ref = ref []

let boot c =
  booted := c :: !booted;
  c

let cki ?(env = Virt.Env.Bare_metal) ?(cfg = Cki.Config.default) () =
  let cfg = { cfg with Cki.Config.segment_frames = 131072 (* 512 MiB *) } in
  Cki.Container.backend (boot (Cki.Container.create_standalone ~env ~cfg ~mem_mib:768 ()))

let cki_bm () = cki ()
let cki_nst () = cki ~env:Virt.Env.Nested ()
let cki_wo_opt2 () = cki ~cfg:Cki.Config.wo_opt2 ()
let cki_wo_opt3 () = cki ~cfg:Cki.Config.wo_opt3 ()

(* [name], lower-cased, with each run of other characters as one '_':
   "ctxsw 2p/0k" -> "ctxsw_2p_0k". *)
let slug name =
  String.split_on_char '_'
    (String.map
       (fun c -> match Char.lowercase_ascii c with ('a' .. 'z' | '0' .. '9') as c -> c | _ -> '_')
       name)
  |> List.filter (( <> ) "")
  |> String.concat "_"

(* [(key, [(col, value)])] rows as [prefix.key.col] metrics. *)
let cells ?n prefix unit rows =
  List.concat_map
    (fun (key, row) ->
      List.map (fun (col, v) -> Artifact.sim ?n (String.concat "." [ prefix; key; col ]) unit v) row)
    rows

(* The columns of [row] named in [cols]. *)
let pick cols row = List.filter (fun (n, _) -> List.mem n cols) row

let rec strictly cmp = function a :: (b :: _ as rest) -> cmp a b && strictly cmp rest | _ -> true
let ladder sym row = String.concat sym (List.map (fun (n, v) -> Printf.sprintf "%s %.6g" n v) row)
let gate name (ok, detail) = Artifact.gate name ok detail

(* One gate over a list of checks, each [(ok, detail)]: true iff there
   are exactly [expect] checks and every one holds. *)
let gate_all name ~expect checks =
  let held = List.length (List.filter fst checks) in
  Artifact.gate name
    (List.length checks = expect && held = expect)
    (Printf.sprintf "%d/%d hold, %d expected: %s" held (List.length checks) expect
       (String.concat "; " (List.map (fun (ok, d) -> if ok then d else "FAILED " ^ d) checks)))

(* [(name, v)] against every value of the non-empty [others] under
   [cmp]: the check and its detail ("cki 1067 < hvm_bm 3257, ..."). *)
let versus sym cmp (name, v) others =
  ( others <> [] && List.for_all (fun (_, o) -> cmp v o) others,
    Printf.sprintf "%s %.6g %s %s" name v sym (ladder ", " others) )

let below = versus "<" ( < )
let above = versus ">" ( > )

(* [versus] of column [name] against the columns [against] (default:
   every other column) in each row, the detail keyed by the row. *)
let each_row cmp name ?against rows =
  List.map
    (fun (key, row) ->
      let cols = Option.fold against ~none:row ~some:(fun cols -> pick cols row) in
      let others = List.filter (fun (n, _) -> n <> name) cols in
      let ok, d = cmp (name, List.assoc name row) others in
      (ok, key ^ ": " ^ d))
    rows

let overhead base v = Report.Stats.overhead_pct ~baseline:base v

(* SQLite operations per run, and fillseq throughput in ops/s. *)
let sqlite_ops = 2_000

let fillseq b =
  (Workloads.Sqlite.run_pattern b Workloads.Sqlite.Fillseq ~ops:sqlite_ops).Workloads.Sqlite.ops_per_sec

(* ------------------------------------------------------------------ *)
(* Table 2 and Figure 10: microbenchmark primitives                    *)
(* ------------------------------------------------------------------ *)

(* Calls averaged by [getpid_ns] and [hypercall_ns]; pages touched by
   [pgfault_ns]. *)
let calls = 1000
let pages = 4096

let getpid_ns (b : Virt.Backend.t) =
  let task = Virt.Backend.spawn b in
  Virt.Backend.mean_latency b ~n:calls (fun () ->
      ignore (Virt.Backend.syscall_exn b task Kernel_model.Syscall.Getpid))

(* Map a [pages]-page region in a fresh task and touch each 4 KiB page
   (the paper's page-fault microbenchmark): simulated ns per fault.
   [before] runs once the region is mapped, just before the touches. *)
let pgfault_ns ?(pages = pages) ?(before = ignore) (b : Virt.Backend.t) =
  let task = Virt.Backend.spawn b in
  let base =
    match
      Virt.Backend.syscall_exn b task (Kernel_model.Syscall.Mmap { pages; prot = Kernel_model.Vma.prot_rw })
    with
    | Kernel_model.Syscall.Rint v -> v
    | _ -> failwith "mmap"
  in
  before ();
  Virt.Backend.time b (fun () ->
      ignore (Kernel_model.Mm.touch_range task.Kernel_model.Task.mm ~start:base ~pages ~write:true))
  /. float_of_int pages

let hypercall_ns (b : Virt.Backend.t) =
  if b.Virt.Backend.supports_hypercall then
    Some (Virt.Backend.mean_latency b ~n:calls (fun () -> b.Virt.Backend.empty_hypercall ()))
  else None

let table2 () =
  let rows =
    List.map
      (fun (name, mk) -> (name, getpid_ns (mk ()), pgfault_ns (mk ()), hypercall_ns (mk ())))
      [
        ("runc", runc);
        ("hvm_bm", hvm_bm);
        ("pvm_bm", pvm_bm);
        ("hvm_nst", hvm_nst);
        ("pvm_nst", pvm_nst);
        ("cki", cki_bm);
      ]
  in
  let m name prim n v = Artifact.sim ~n (String.concat "." [ "table2"; name; prim ]) "ns" v in
  (* CKI against the other four secure (non-RunC) backends. *)
  let lowest prim col =
    let secure =
      List.filter_map (fun ((n, _, _, _) as r) -> if n = "runc" then None else Some (n, col r)) rows
    in
    gate_all ("table2: CKI has the lowest " ^ prim ^ " of the 5 secure backends") ~expect:1
      (if List.length secure = 5 then each_row below "cki" [ (prim, secure) ] else [])
  in
  ( List.concat_map
      (fun (name, getpid, pgfault, hypercall) ->
        [ m name "getpid" calls getpid; m name "pgfault" pages pgfault ]
        @ Option.to_list (Option.map (m name "hypercall" calls) hypercall))
      rows,
    [
      lowest "pgfault" (fun (_, _, pf, _) -> pf);
      lowest "hypercall" (fun (_, _, _, hc) -> Option.value hc ~default:nan);
    ] )

(* Cost categories of the page-fault path (Figure 10a). *)
let fault_segments =
  [
    "pf_service";
    "ept_fault_bm";
    "ept_fault_nst";
    "pvm_fault_vmexits";
    "pvm_fault_spt";
    "pvm_fault_nst_extra";
    "ksm_call";
  ]

(* The segments EXPERIMENTS.md prints for Figure 10a, in ns. *)
let fig10a_printed =
  [
    ("hvm_nst", [ 1684; 30881 ]);
    ("hvm_bm", [ 1164; 2093 ]);
    ("pvm_bm", [ 1065; 1532; 1828 ]);
    ("cki", [ 990; 77 ]);
    ("runc", [ 1000 ]);
  ]

let fig10 () =
  let fault_pages = 2048 in
  (* Per-fault total and the share each cost category took of it. *)
  let breakdown mk =
    let b = mk () in
    let spent () = List.map (Hw.Clock.spent_on b.Virt.Backend.clock) fault_segments in
    let at_start = ref [] in
    let total = pgfault_ns ~pages:fault_pages ~before:(fun () -> at_start := spent ()) b in
    let per_fault = List.map2 (fun z a -> (z -. a) /. float_of_int fault_pages) (spent ()) !at_start in
    (total, List.filter (fun (_, d) -> d > 0.01) (List.combine fault_segments per_fault))
  in
  let faults =
    List.map
      (fun (name, mk) -> (name, breakdown mk))
      [ ("hvm_nst", hvm_nst); ("hvm_bm", hvm_bm); ("pvm_bm", pvm_bm); ("cki", cki_bm); ("runc", runc) ]
  in
  let syscalls =
    List.map
      (fun (name, mk) -> (name, getpid_ns (mk ())))
      [
        ("runc", runc);
        ("hvm_bm", hvm_bm);
        ("pvm_bm", pvm_bm);
        ("cki_wo_opt2", cki_wo_opt2);
        ("cki_wo_opt3", cki_wo_opt3);
        ("cki", cki_bm);
      ]
  in
  let steps = pick [ "pvm_bm"; "cki_wo_opt2"; "cki_wo_opt3"; "cki" ] syscalls in
  let rounded = List.map (fun (_, v) -> int_of_float (Float.round v)) in
  let ints l = String.concat "+" (List.map string_of_int l) in
  ( cells ~n:fault_pages "fig10a" "ns"
      (List.map (fun (name, (total, segs)) -> (name, ("total", total) :: segs)) faults)
    @ List.map (fun (name, v) -> Artifact.sim ~n:calls ("fig10b." ^ name) "ns" v) syscalls,
    [
      gate_all "fig10a: segments sum to each total and match the printed ones" ~expect:5
        (List.map
           (fun (name, (total, segs)) ->
             let sum = List.fold_left (fun a (_, v) -> a +. v) 0.0 segs in
             let printed = Option.value (List.assoc_opt name fig10a_printed) ~default:[] in
             ( Float.abs (sum -. total) < 1e-6 && rounded segs = printed,
               Printf.sprintf "%s %.6g = %s (printed %s)" name total (ints (rounded segs)) (ints printed) ))
           faults);
      Artifact.gate "fig10b: syscall ladder PVM 336 > wo-OPT2 238 > wo-OPT3 153 > CKI 90"
        (rounded steps = [ 336; 238; 153; 90 ])
        (ladder " > " steps);
    ] )

(* ------------------------------------------------------------------ *)
(* Table 3: privileged-instruction policy, executed                    *)
(* ------------------------------------------------------------------ *)

(* Execute every representative instruction in guest-kernel context:
   each [blocked_in_guest] one must trap, every other one execute. *)
let table3 () =
  let cpu = Cki.Container.cpu (boot (Cki.Container.create_standalone ())) 0 in
  let results =
    List.map
      (fun inst ->
        Cki.Container.enter_guest_kernel cpu;
        let blocked = Hw.Priv.blocked_in_guest inst in
        match Hw.Cpu.exec_priv cpu inst with
        | Error (Hw.Cpu.Blocked_instruction _) -> (inst, blocked, blocked)
        | Error _ -> (inst, blocked, false)
        | Ok () -> (inst, blocked, not blocked))
      Hw.Priv.all_examples
  in
  let n = List.length results in
  let blocked = List.length (List.filter (fun (_, b, _) -> b) results) in
  let wrong = List.filter_map (fun (i, _, ok) -> if ok then None else Some (Hw.Priv.mnemonic i)) results in
  ( [
      Artifact.count "table3.instructions" "instructions" n;
      Artifact.count "table3.blocked" "instructions" blocked;
      Artifact.count "table3.mismatches" "instructions" (List.length wrong);
    ],
    [
      Artifact.gate "table3: all 27 instructions: each blocked one traps, every other executes"
        (n = 27 && wrong = [])
        (Printf.sprintf "%d instructions (%d blocked), mismatches: [%s]" n blocked
           (String.concat ", " wrong));
    ] )

(* ------------------------------------------------------------------ *)
(* Table 4: TLB-miss-intensive applications                            *)
(* ------------------------------------------------------------------ *)

(* Sampled runs scaled to the paper's working-set sizes: the sampled
   loop runs [updates] accesses through a real TLB; the scale factor
   maps it to the full-size run (45 GB working sets). *)
let table4 () =
  let updates = 1_500_000 and table_pages = 200_000 in
  let gups b ept_huge = Workloads.Gups.run_gups b ~ept_huge ~table_pages ~updates () in
  let btree b ept_huge = Workloads.Gups.run_btree_lookup b ~ept_huge ~table_pages ~lookups:(updates / 5) () in
  let rows =
    List.map
      (fun (app, scale, run) ->
        ( app,
          List.map
            (fun (name, mk, huge) -> (name, (run (mk ()) huge).Workloads.Gups.total_ns *. scale /. 1e9))
            [
              ("runc", runc, false);
              ("hvm_4k", hvm_bm, false);
              ("hvm_2m", hvm_2m, true);
              ("pvm_bm", pvm_bm, false);
              ("cki", cki_bm, false);
            ] ))
      [ ("gups", 31.1 (* ~46.7 M updates in the paper's 54.9 s run *), gups); ("btree_lookup", 21.2, btree) ]
  in
  ( cells "table4" "s" rows,
    [
      gate_all "table4: CKI = RunC < HVM-2M < HVM-4K on GUPS and BTree-Lookup" ~expect:2
        (List.map
           (fun (app, row) ->
             let v n = List.assoc n row in
             ( v "cki" = v "runc" && v "runc" < v "hvm_2m" && v "hvm_2m" < v "hvm_4k",
               Printf.sprintf "%s cki %.4g = runc %.4g < hvm_2m %.4g < hvm_4k %.4g s" app (v "cki") (v "runc")
                 (v "hvm_2m") (v "hvm_4k") ))
           rows);
    ] )

(* ------------------------------------------------------------------ *)
(* Figures 4 and 12: memory-intensive application latency              *)
(* ------------------------------------------------------------------ *)

(* One run of each app on each backend of either figure, in ns. *)
let mem_matrix =
  lazy
    (List.map
       (fun (app, run) ->
         ( app,
           List.map
             (fun (name, mk) -> (name, run (mk ())))
             [
               ("hvm_nst", hvm_nst);
               ("pvm_nst", pvm_nst);
               ("runc", runc);
               ("hvm_bm", hvm_bm);
               ("pvm_bm", pvm_bm);
               ("cki", cki_bm);
               ("hvm_2m", hvm_2m);
             ] ))
       [
         ("btree", fun b -> Workloads.Btree.run b ~inserts:60_000 ~lookups:15_000);
         ("xsbench", fun b -> Workloads.Xsbench.run b ~gridpoints:200_000 ~particles:25_000);
         ("canneal", fun b -> Workloads.Parsec.run b Workloads.Parsec.canneal);
         ("dedup", fun b -> Workloads.Parsec.run b Workloads.Parsec.dedup);
         ("fluidanimate", fun b -> Workloads.Parsec.run b Workloads.Parsec.fluidanimate);
         ("freqmine", fun b -> Workloads.Parsec.run b Workloads.Parsec.freqmine);
       ])

(* The matrix restricted to one figure's [backends]. *)
let mem_rows backends =
  List.map (fun (app, row) -> (app, pick backends row)) (Lazy.force mem_matrix)

let fig4 () =
  let rows = mem_rows [ "hvm_nst"; "pvm_nst"; "runc"; "hvm_bm"; "pvm_bm" ] in
  ( cells "fig4" "ns" rows,
    [ gate_all "fig4: HVM-NST is the worst bar on all six apps" ~expect:6 (each_row above "hvm_nst" rows) ] )

let fig12 () =
  let rows = mem_rows [ "hvm_nst"; "hvm_bm"; "pvm_bm"; "cki"; "runc"; "hvm_2m" ] in
  let cki_over_runc =
    List.map (fun (app, r) -> (app, overhead (List.assoc "runc" r) (List.assoc "cki" r))) rows
  in
  ( cells "fig12" "ns" rows
    @ [ Artifact.sim "fig12.cki_over_runc_max" "%" (Report.Stats.maximum (List.map snd cki_over_runc)) ],
    [
      gate_all "fig12: CKI within +3% of RunC on all six apps" ~expect:6
        (List.map (fun (app, ov) -> (ov < 3.0, Printf.sprintf "%s %+.2f%%" app ov)) cki_over_runc);
      gate_all "fig12: CKI beats HVM-BM, PVM and HVM-NST on all six apps" ~expect:6
        (each_row below "cki" ~against:[ "hvm_bm"; "pvm_bm"; "hvm_nst" ] rows);
    ] )

(* ------------------------------------------------------------------ *)
(* Figure 5: I/O-intensive applications, motivation                    *)
(* ------------------------------------------------------------------ *)

let fig5 () =
  let web kind b = Workloads.Webserver.run b kind ~requests:2_000 in
  let kv flavor b = Workloads.Kv.run_throughput b ~flavor ~requests:3_000 in
  let backends =
    [ ("hvm_nst", hvm_nst); ("pvm_nst", pvm_nst); ("runc", runc); ("hvm_bm", hvm_bm); ("pvm_bm", pvm_bm) ]
  in
  let rows =
    List.map
      (fun (app, n, run) -> (n, (app, List.map (fun (b, mk) -> (b, run (mk ()))) backends)))
      [
        ("nginx_static", 2_000, web Workloads.Webserver.Nginx_static);
        ("nginx_proxy", 2_000, web Workloads.Webserver.Nginx_proxy);
        ("httpd", 2_000, web Workloads.Webserver.Httpd);
        ("redis", 3_000, kv Workloads.Kv.Redis);
        ("memcached", 3_000, kv Workloads.Kv.Memcached);
        ("netperf_tx", 3_000, fun b -> Workloads.Netperf.run_tx b ~sends:3_000);
        ("netperf_rr", 3_000, fun b -> Workloads.Netperf.run_rr b ~transactions:3_000);
        ("sqlite", sqlite_ops, fillseq);
      ]
  in
  let only apps = List.filter (fun (app, _) -> List.mem app apps) (List.map snd rows) in
  ( List.concat_map (fun (n, row) -> cells ~n "fig5" "ops/s" [ row ]) rows,
    [
      gate_all "fig5: HVM-NST is the lowest bar on memcached and netperf-RR" ~expect:2
        (each_row below "hvm_nst" (only [ "memcached"; "netperf_rr" ]));
      gate_all "fig5: PVM-BM is below HVM-BM on sqlite" ~expect:1
        (each_row below "pvm_bm" ~against:[ "hvm_bm" ] (only [ "sqlite" ]));
    ] )

(* ------------------------------------------------------------------ *)
(* Figure 11: lmbench                                                  *)
(* ------------------------------------------------------------------ *)

let fig11 () =
  let suites =
    List.map
      (fun (name, mk) -> (name, Workloads.Lmbench.run_suite (mk ())))
      [ ("runc", runc); ("hvm_bm", hvm_bm); ("cki", cki_bm); ("pvm_bm", pvm_bm) ]
  in
  let rows =
    List.map
      (fun op ->
        (slug (Workloads.Lmbench.op_name op), List.map (fun (name, s) -> (name, List.assoc op s)) suites))
      Workloads.Lmbench.all_ops
  in
  let cki_over_runc = List.map (fun (_, r) -> overhead (List.assoc "runc" r) (List.assoc "cki" r)) rows in
  ( cells "fig11" "ns" rows
    @ [ Artifact.sim "fig11.cki_over_runc_max" "%" (Report.Stats.maximum cki_over_runc) ],
    [
      gate_all "fig11: PVM is the worst of the four backends on all ten ops" ~expect:10
        (each_row above "pvm_bm" rows);
    ] )

(* ------------------------------------------------------------------ *)
(* Figure 13: overhead sweeps (BTree ratio, XSBench particles)         *)
(* ------------------------------------------------------------------ *)

let fig13 () =
  (* Per backend, the overhead vs RunC at each point [tag ^ x]. *)
  let sweep tag xs run =
    let base = List.map (run (runc ())) xs in
    List.map
      (fun (name, mk) ->
        (name, List.map2 (fun x b -> (Printf.sprintf "%s%d" tag x, overhead b (run (mk ()) x))) xs base))
      [ ("hvm_nst", hvm_nst); ("hvm_bm", hvm_bm); ("pvm_bm", pvm_bm); ("cki", cki_bm) ]
  in
  let sweeps =
    [
      ( "fig13a",
        sweep "r" [ 1; 2; 4; 8; 16 ] (fun b r ->
            Workloads.Btree.run_ratio b ~total_ops:60_000 ~lookup_per_insert:r) );
      ( "fig13b",
        sweep "p" [ 2_000; 10_000; 50_000; 250_000 ] (fun b p ->
            Workloads.Xsbench.run b ~gridpoints:120_000 ~particles:p) );
    ]
  in
  ( List.concat_map (fun (fig, series) -> cells fig "%" series) sweeps,
    [
      gate_all "fig13: every backend's overhead decays strictly on both sweeps" ~expect:8
        (List.concat_map
           (fun (fig, series) ->
             List.map
               (fun (name, pts) ->
                 ( strictly (fun (_, u) (_, v) -> u > v) pts,
                   Printf.sprintf "%s %s: %s" fig name (ladder " > " pts) ))
               series)
           sweeps);
      gate_all "fig13: CKI is below a tenth of HVM-BM at every point" ~expect:9
        (List.concat_map
           (fun (fig, series) ->
             List.map2
               (fun (x, c) (_, h) ->
                 (c < h /. 10.0, Printf.sprintf "%s %s: cki %.3f vs hvm_bm %.3f" fig x c h))
               (List.assoc "cki" series) (List.assoc "hvm_bm" series))
           sweeps);
    ] )

(* ------------------------------------------------------------------ *)
(* Figures 14 and 15: SQLite                                            *)
(* ------------------------------------------------------------------ *)

(* One run of each db_bench pattern on each backend of either figure. *)
let sqlite_matrix =
  lazy
    (List.map
       (fun p ->
         ( slug (Workloads.Sqlite.pattern_name p),
           List.map
             (fun (name, mk) -> (name, Workloads.Sqlite.run_pattern (mk ()) p ~ops:sqlite_ops))
             [
               ("pvm_bm", pvm_bm);
               ("cki", cki_bm);
               ("hvm_bm", hvm_bm);
               ("runc", runc);
               ("cki_wo_opt2", cki_wo_opt2);
               ("cki_wo_opt3", cki_wo_opt3);
             ] ))
       Workloads.Sqlite.all_patterns)

(* Throughput, and the syscall frequency of Figure 14's second axis
   (on PVM). *)
let fig14 () =
  let rows = Lazy.force sqlite_matrix in
  let thr row = List.map (fun (b, r) -> (b, r.Workloads.Sqlite.ops_per_sec)) row in
  ( cells ~n:sqlite_ops "fig14" "ops/s"
      (List.map (fun (p, row) -> (p, pick [ "pvm_bm"; "cki"; "hvm_bm"; "runc" ] (thr row))) rows)
    @ List.map
        (fun (p, row) ->
          Artifact.sim ("fig14." ^ p ^ ".pvm_bm.syscalls") "1/s"
            (List.assoc "pvm_bm" row).Workloads.Sqlite.syscall_freq_per_sec)
        rows,
    [] )

(* Overhead = throughput lost vs RunC, in %. *)
let fig15 () =
  let rows =
    List.map
      (fun (p, row) ->
        let thr b = (List.assoc b row).Workloads.Sqlite.ops_per_sec in
        let loss b = (b, 100.0 *. (1.0 -. (thr b /. thr "runc"))) in
        (p, List.map loss [ "pvm_bm"; "cki_wo_opt2"; "cki_wo_opt3"; "cki" ]))
      (Lazy.force sqlite_matrix)
  in
  ( cells "fig15" "%" rows,
    [
      gate_all "fig15: staircase PVM > wo-OPT2 > wo-OPT3 > CKI on all seven patterns" ~expect:7
        (List.map
           (fun (p, row) -> (strictly (fun (_, u) (_, v) -> u > v) row, p ^ ": " ^ ladder " > " row))
           rows);
    ] )

(* ------------------------------------------------------------------ *)
(* Figure 16: key-value stores vs client count                         *)
(* ------------------------------------------------------------------ *)

let fig16 () =
  let clients = [ 4; 8; 16; 32; 64; 128 ] and requests = 2_000 in
  let backends =
    [
      ("hvm_nst", hvm_nst);
      ("pvm_bm", pvm_bm);
      ("pvm_nst", pvm_nst);
      ("cki_bm", cki_bm);
      ("cki_nst", cki_nst);
    ]
  in
  let memtier flavor mk c = Workloads.Kv.run_memtier (mk ()) ~flavor ~clients:c ~requests in
  (* One series per flavor and backend: [("memcached.cki_nst", [("c4", ops/s); ...])]. *)
  let series =
    List.concat_map
      (fun flavor ->
        List.map
          (fun (name, mk) ->
            ( slug (Workloads.Kv.show_flavor flavor) ^ "." ^ name,
              List.map (fun c -> (Printf.sprintf "c%d" c, memtier flavor mk c)) clients ))
          backends)
      [ Workloads.Kv.Memcached; Workloads.Kv.Redis ]
  in
  let ratios =
    List.concat_map
      (fun fl ->
        let at name = List.assoc "c64" (List.assoc (fl ^ "." ^ name) series) in
        List.map
          (fun (hi, lo) -> (Printf.sprintf "fig16.%s.%s_over_%s.c64" fl hi lo, at hi /. at lo))
          [ ("cki_nst", "hvm_nst"); ("cki_bm", "pvm_bm"); ("cki_nst", "pvm_nst") ])
      [ "memcached"; "redis" ]
  in
  ( cells ~n:requests "fig16" "ops/s" series @ List.map (fun (name, r) -> Artifact.sim name "x" r) ratios,
    [
      gate_all "fig16: throughput rises with clients for every backend" ~expect:10
        (List.map
           (fun (name, pts) ->
             ( List.length pts = List.length clients && strictly (fun (_, u) (_, v) -> u < v) pts,
               name ^ ": " ^ ladder " < " pts ))
           series);
      gate_all "fig16: every CKI ratio over HVM and PVM at 64 clients is > 1" ~expect:6
        (List.map (fun (name, r) -> (r > 1.0, Printf.sprintf "%s %.2fx" name r)) ratios);
    ] )

(* ------------------------------------------------------------------ *)
(* Security (Sections 4 and 6): the attack suite                       *)
(* ------------------------------------------------------------------ *)

let security () =
  let results = Cki.Attacks.all (boot (Cki.Container.create_standalone ())) in
  let n = List.length results in
  let succeeded = List.filter_map (fun (a, o) -> if Cki.Attacks.is_blocked o then None else Some a) results in
  let blocked = n - List.length succeeded in
  ( [ Artifact.count "security.attacks" "attacks" n; Artifact.count "security.blocked" "attacks" blocked ],
    [
      Artifact.gate "security: all attacks blocked, and there are >= 17"
        (n >= 17 && blocked = n)
        (Printf.sprintf "%d/%d blocked; succeeded: [%s]" blocked n (String.concat ", " succeeded));
    ] )

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
  let open Fleet.Controller in
  let run_budget budget =
    let tenant = { default_tenant with name = "quota"; rate_rps = 40_000.0; requests = 6_000 } in
    let autoscaler =
      { Fleet.Autoscaler.default_config with Fleet.Autoscaler.min_replicas = 1; max_replicas = 1 }
    in
    let cpu_quota = Option.map (fun b -> (1_000_000.0, b *. 1_000_000.0)) budget in
    List.hd (run { default_config with tenants = [ tenant ]; autoscaler; cpu_quota }).tenants
  in
  let uncapped = run_budget None in
  let capped = List.map (fun b -> (b, run_budget (Some b))) [ 0.40; 0.20; 0.10; 0.09; 0.085; 0.08 ] in
  let name b = slug (Printf.sprintf "cpu%gpct" (100.0 *. b)) in
  let p99 b = (List.assoc b capped).tr_p99_us in
  let cliff = p99 0.08 /. p99 0.10 in
  ( List.concat_map
      (fun (name, tr) ->
        let m what = "quota." ^ name ^ "." ^ what in
        [
          Artifact.sim ~n:tr.tr_completed (m "p50") "us" tr.tr_p50_us;
          Artifact.sim ~n:tr.tr_completed (m "p99") "us" tr.tr_p99_us;
          Artifact.count (m "throttles") "events" tr.tr_throttle_events;
        ])
      (("uncapped", uncapped) :: List.map (fun (b, tr) -> (name b, tr)) capped),
    [
      gate_all "quota: p99 equals the uncapped p99 at every budget >= 10%" ~expect:3
        (List.filter_map
           (fun (b, tr) ->
             if b < 0.10 then None
             else
               Some
                 ( tr.tr_p99_us = uncapped.tr_p99_us,
                   Printf.sprintf "%s %.6g = uncapped %.6g us" (name b) tr.tr_p99_us uncapped.tr_p99_us ))
           capped);
      Artifact.gate "quota: p99(8%)/p99(10%) > 2 x the 1.25x budget cut" (cliff > 2.0 *. 1.25)
        (Printf.sprintf "%.6g / %.6g us = %.1fx > %.2fx" (p99 0.08) (p99 0.10) cliff (2.0 *. 1.25));
    ] )

(* ------------------------------------------------------------------ *)
(* Ablations of DESIGN.md's design choices + Section 9 future work     *)
(* ------------------------------------------------------------------ *)

let ablation () =
  (* Design-PKS vs Design-PKU (Section 3.1); PTI/IBRS in the KSM gate
     (Section 3.3). *)
  let fault_pages = 1024 in
  let pf cfg = pgfault_ns ~pages:fault_pages (cki ~cfg ()) in
  let pks = pf Cki.Config.default in
  let pku = pf Cki.Config.pku_design in
  let pti = pf { Cki.Config.default with Cki.Config.pti_in_gates = true } in
  (* PVM syscall latency emulated on CKI (Section 7.3). *)
  let kv_requests = 2_000 in
  let memtier cfg =
    Workloads.Kv.run_memtier (cki ~cfg ()) ~flavor:Workloads.Kv.Memcached ~clients:32 ~requests:kv_requests
  in
  let native = memtier Cki.Config.default in
  let emulated = memtier { Cki.Config.default with Cki.Config.emulate_pvm_syscall = true } in
  (* Ring-0 driver sandboxing vs microkernel IPC (Section 9). *)
  let machine = Hw.Machine.create ~mem_mib:64 () in
  let registry = Cki.Driver_sandbox.create_registry machine in
  let drv = Cki.Driver_sandbox.load registry ~name:"e1000" ~heap_pages:16 in
  let driver_calls = 10_000 in
  let per_call f =
    snd (Hw.Clock.timed (Hw.Machine.clock machine) (fun () -> for _ = 1 to driver_calls do f () done))
    /. float_of_int driver_calls
  in
  let pks_gate =
    per_call (fun () ->
        match Cki.Driver_sandbox.invoke drv (fun d -> Cki.Driver_sandbox.heap_write d 0xd000_0000_0000) with
        | Ok () -> ()
        | Error _ -> failwith "driver died")
  in
  let ipc = per_call (fun () -> Cki.Driver_sandbox.invoke_microkernel_style drv (fun _ -> ())) in
  (* Kernel-level syscall elision (Section 9). *)
  let user = fillseq (cki ()) in
  let in_kernel = fillseq (Cki.Kernel_app.backend (Cki.Kernel_app.wrap_backend (cki ()))) in
  let row ~n key unit cols = cells ~n "ablation" unit [ (key, cols) ] in
  ( row ~n:fault_pages "pgfault" "ns" [ ("pks", pks); ("pku", pku); ("pti_gate", pti) ]
    @ row ~n:kv_requests "memcached" "ops/s" [ ("cki", native); ("cki_pvm_syscalls", emulated) ]
    @ row ~n:driver_calls "driver_call" "ns" [ ("pks_gate", pks_gate); ("ipc", ipc) ]
    @ row ~n:sqlite_ops "sqlite_fillseq" "ops/s" [ ("user", user); ("in_kernel", in_kernel) ],
    [
      Artifact.gate "ablation: Design-PKU costs +750 ns per fault"
        (Float.round (pku -. pks) = 750.0)
        (Printf.sprintf "pku %.6g - pks %.6g = %+.6g ns" pku pks (pku -. pks));
      gate "ablation: the PTI gate costs more than the no-PTI gate"
        (above ("pti_gate", pti) [ ("pks", pks) ]);
      gate "ablation: the PKS driver gate beats IPC" (below ("pks_gate", pks_gate) [ ("ipc", ipc) ]);
      gate "ablation: in-kernel SQLite beats user space" (above ("in_kernel", in_kernel) [ ("user", user) ]);
      gate "ablation: PVM-syscall emulation lowers memcached throughput"
        (below ("cki_pvm_syscalls", emulated) [ ("cki", native) ]);
    ] )

(* ------------------------------------------------------------------ *)
(* Registry and the analysis scan                                      *)
(* ------------------------------------------------------------------ *)

(* One experiment's metrics and gates, with the number of CKI
   containers the scan covered and the rules of its findings. *)
type part = {
  metrics : Artifact.metric list;
  gates : Artifact.gate list;
  containers : int;
  findings : string list;
}

(* Run experiment [id] under Analysis.run with the CKI containers it
   boots: the invariant scan of each container plus the lint of the
   probe trace.  Adds [<id>.analysis.containers] and
   [<id>.analysis.findings] to its metrics. *)
let scanned id run () =
  booted := [];
  let (metrics, gates), r =
    Analysis.run (fun () ->
        let result = run () in
        (result, !booted))
  in
  let containers = List.length !booted in
  let findings = List.map (fun f -> f.Report.Findings.rule) (Analysis.findings r) in
  {
    metrics =
      metrics
      @ [
          Artifact.count (id ^ ".analysis.containers") "containers" containers;
          Artifact.count (id ^ ".analysis.findings") "findings" (List.length findings);
        ];
    gates;
    containers;
    findings;
  }

(* Every experiment, in the paper's order, under the id
   `bench/main.exe <id>` runs it by. *)
let experiments =
  List.map
    (fun (id, run) -> (id, scanned id run))
    [
      ("table2", table2);
      ("table3", table3);
      ("table4", table4);
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

(* The experiments that boot CKI containers in a whole run.  Figures
   12 and 15 read the matrices Figures 4 and 14 booted, so they scan
   none of their own. *)
let boot_cki =
  [ "table2"; "table3"; "table4"; "fig4"; "fig10"; "fig11"; "fig13"; "fig14"; "fig16"; "security"; "ablation" ]

(* The findings each experiment must produce.  Table 3 executes wrpkrs
   in guest-kernel context on purpose, outside any gate: the one row
   that shows the scan can fail. *)
let expected_findings = function "table3" -> [ "E1-wrpkrs-outside-gate" ] | _ -> []

let scan_gate parts =
  gate_all
    "analysis: a CKI container scanned in each of the 11 experiments that boot one; no finding \
     but table3's wrpkrs"
    ~expect:15
    (List.map
       (fun (id, p) ->
         ( (p.containers >= 1 || not (List.mem id boot_cki)) && p.findings = expected_findings id,
           Printf.sprintf "%s %d containers %d findings%s" id p.containers (List.length p.findings)
             (if p.findings = [] then "" else " [" ^ String.concat ", " p.findings ^ "]") ))
       parts)

let artifact bench parts =
  {
    Artifact.bench;
    metrics = List.concat_map (fun p -> p.metrics) parts;
    gates = List.concat_map (fun p -> p.gates) parts;
  }

(* The whole evaluation, with the scan gate last: BENCH_paper.json. *)
let run () =
  let parts = List.map (fun (id, run) -> (id, run ())) experiments in
  let a = artifact "paper" (List.map snd parts) in
  { a with Artifact.gates = a.Artifact.gates @ [ scan_gate parts ] }
