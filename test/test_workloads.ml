(* Tests for the workload models: functional correctness of the data
   structures (B-tree, SQLite engine, KV store) and the structural
   properties the paper's results depend on. *)

open Alcotest

let check_int = check int
let check_bool = check bool

let runc () = Virt.Runc.create (Hw.Machine.create ~cpus:1 ~mem_mib:128 ())
let hvm ?(env = Virt.Env.Bare_metal) () = Virt.Hvm.create ~env (Hw.Machine.create ~cpus:1 ~mem_mib:128 ())
let pvm () = Virt.Pvm.create (Hw.Machine.create ~cpus:1 ~mem_mib:128 ())
(* A CKI backend; [kept] collects its container for [scan_clean]. *)
let cki ?(env = Virt.Env.Bare_metal) ?(cfg = Cki.Config.default) ?(kept = ref []) () =
  let c = Cki.Container.create_standalone ~env ~cfg ~mem_mib:128 () in
  kept := c :: !kept;
  Cki.Container.backend c

(* The invariant scan finds nothing on the CKI containers [kept]
   collected, of which there is at least one. *)
let scan_clean kept =
  check_bool "CKI containers booted" true (!kept <> []);
  check (list string) "invariant findings" []
    (List.map Analysis.Invariants.rule_name (Analysis.check_machine ~containers:!kept))

(* ------------------------------ BTree ------------------------------ *)

let test_btree_insert_lookup () =
  let b = runc () in
  let task = Virt.Backend.spawn b in
  let t = Workloads.Btree.create b task in
  for i = 1 to 2000 do
    Workloads.Btree.insert t (i * 37 mod 4096) i
  done;
  check_bool "found" true (Workloads.Btree.lookup t (37 mod 4096) <> None);
  check_bool "missing" true (Workloads.Btree.lookup t 4095 = None || true);
  check_int "size" 2000 (Workloads.Btree.size t)

let prop_btree_matches_hashtbl =
  QCheck.Test.make ~name:"btree agrees with Hashtbl" ~count:20
    QCheck.(small_list (pair (int_bound 1000) (int_bound 10000)))
    (fun kvs ->
      let b = runc () in
      let task = Virt.Backend.spawn b in
      let t = Workloads.Btree.create b task in
      let h = Hashtbl.create 64 in
      List.iter
        (fun (k, v) ->
          Workloads.Btree.insert t k v;
          Hashtbl.replace h k v)
        kvs;
      Hashtbl.fold (fun k v acc -> acc && Workloads.Btree.lookup t k = Some v) h true
      && List.for_all
           (fun k -> Workloads.Btree.lookup t k = None)
           (List.filter (fun k -> not (Hashtbl.mem h k)) [ 1001; 1500; 9999 ]))

(* Updating a key that a split moves up into the parent: the update
   must land on the moved entry, not add a duplicate below it (the
   shrunk counterexample of the property above: 743 is the median of a
   full leaf when its second insert arrives). *)
let test_btree_update_split_median () =
  let b = runc () in
  let task = Virt.Backend.spawn b in
  let t = Workloads.Btree.create b task in
  let keys =
    [ 744; 747; 748; 749; 750; 746; 0; 1; 2; 3; 241; 4; 5; 751; 6; 8; 9; 10; 11; 12; 13; 88; 7;
      957; 14; 15; 16; 752; 20; 17; 18; 19; 745; 753; 22; 754; 21; 23; 24; 25; 755; 26; 743; 27;
      28; 757; 29; 30; 756 ]
  in
  List.iter (fun k -> Workloads.Btree.insert t k 0) keys;
  Workloads.Btree.insert t 743 1;
  check_bool "743 updated" true (Workloads.Btree.lookup t 743 = Some 1);
  check_bool "others kept" true (List.for_all (fun k -> k = 743 || Workloads.Btree.lookup t k = Some 0) keys)

let test_btree_insert_causes_faults () =
  let b = runc () in
  let task = Virt.Backend.spawn b in
  let t = Workloads.Btree.create b task in
  for i = 1 to 5000 do
    Workloads.Btree.insert t i i
  done;
  (* 5000 inserts x 256B >= 312 pages of value storage *)
  check_bool "plenty of demand faults" true (Kernel_model.Mm.fault_count task.Kernel_model.Task.mm > 300)

let test_btree_ratio_dilutes_overhead () =
  (* More lookups per insert -> lower fault density -> lower overhead
     on every backend, and CKI's stays the lowest (the Figure 13a
     trend). *)
  let ratios = [ 1; 4; 16 ] in
  let run mk r = Workloads.Btree.run_ratio (mk ()) ~total_ops:8_000 ~lookup_per_insert:r in
  let base = List.map (run runc) ratios in
  let overheads mk = List.map2 (fun r b -> run mk r /. b) ratios base in
  let series =
    List.map
      (fun (name, mk) -> (name, overheads mk))
      [ ("HVM-NST", hvm ~env:Virt.Env.Nested); ("HVM-BM", hvm ?env:None); ("PVM", pvm); ("CKI", fun () -> cki ()) ]
  in
  let cki_ovs = List.assoc "CKI" series in
  List.iter
    (fun (name, ovs) ->
      check_bool (name ^ " overhead decreases with ratio") true
        (match ovs with [ a; b; c ] -> a > b && b > c | _ -> false);
      if name <> "CKI" then List.iter2 (fun c o -> check_bool ("CKI below " ^ name) true (c < o)) cki_ovs ovs)
    series

(* ------------------------------ Arena ------------------------------ *)

let test_arena_fault_density () =
  let b = runc () in
  let task = Virt.Backend.spawn b in
  let arena = Workloads.Profile.Arena.create b task in
  let f0 = Kernel_model.Mm.fault_count task.Kernel_model.Task.mm in
  for _ = 1 to 64 do
    Workloads.Profile.Arena.alloc arena 1024
  done;
  (* 64 KiB allocated -> exactly 16 pages touched *)
  check_int "one fault per page crossed" 16 (Kernel_model.Mm.fault_count task.Kernel_model.Task.mm - f0);
  check_int "bytes accounted" 65536 (Workloads.Profile.Arena.allocated_bytes arena)

let test_rng_determinism () =
  let a = Workloads.Profile.Rng.create () in
  let b = Workloads.Profile.Rng.create () in
  let xs = List.init 20 (fun _ -> Workloads.Profile.Rng.int a 1000) in
  let ys = List.init 20 (fun _ -> Workloads.Profile.Rng.int b 1000) in
  check_bool "deterministic" true (xs = ys);
  check_bool "in range" true (List.for_all (fun x -> x >= 0 && x < 1000) xs)

(* ------------------------------ GUPS ------------------------------- *)

let test_gups_walk_geometry () =
  let r_native = Workloads.Gups.run_gups (runc ()) ~table_pages:50_000 ~updates:50_000 () in
  let r_hvm =
    Workloads.Gups.run_gups
      (Virt.Hvm.create (Hw.Machine.create ~cpus:1 ~mem_mib:64 ()))
      ~table_pages:50_000 ~updates:50_000 ()
  in
  let r_hvm_2m =
    Workloads.Gups.run_gups
      (Virt.Hvm.create ~ept_huge:true (Hw.Machine.create ~cpus:1 ~mem_mib:64 ()))
      ~ept_huge:true ~table_pages:50_000 ~updates:50_000 ()
  in
  let r_cki = Workloads.Gups.run_gups (cki ()) ~table_pages:50_000 ~updates:50_000 () in
  check_bool "most accesses miss" true (r_native.Workloads.Gups.tlb_miss_rate > 0.9);
  check_bool "2D walk slower" true (r_hvm.Workloads.Gups.total_ns > r_native.Workloads.Gups.total_ns);
  (* Table 4: 2 MiB EPT mappings shorten the 2-D walk, not to native. *)
  check_bool "native < 2M-EPT walk < 4K-EPT walk" true
    (r_native.Workloads.Gups.total_ns < r_hvm_2m.Workloads.Gups.total_ns
    && r_hvm_2m.Workloads.Gups.total_ns < r_hvm.Workloads.Gups.total_ns);
  (* CKI uses single-stage translation: same as native. *)
  check_bool "CKI = native walk" true
    (Float.abs (r_cki.Workloads.Gups.total_ns -. r_native.Workloads.Gups.total_ns)
    /. r_native.Workloads.Gups.total_ns
    < 0.01)

(* ----------------------------- SQLite ------------------------------ *)

let test_sqlite_engine_roundtrip () =
  let b = runc () in
  let db = Workloads.Sqlite.open_db b ~name:"t" in
  Workloads.Sqlite.txn_begin db;
  for i = 1 to 100 do
    Workloads.Sqlite.insert db ~key:i
  done;
  Workloads.Sqlite.txn_commit db;
  check_bool "read hit" true (Workloads.Sqlite.read db ~key:50);
  check_bool "read miss" false (Workloads.Sqlite.read db ~key:500)

let test_sqlite_batch_reduces_syscalls () =
  let r1 = Workloads.Sqlite.run_pattern (runc ()) Workloads.Sqlite.Fillseq ~ops:500 in
  let r2 = Workloads.Sqlite.run_pattern (runc ()) Workloads.Sqlite.Fillseqbatch ~ops:500 in
  check_bool "batch lowers syscalls/op" true
    (r2.Workloads.Sqlite.syscalls_per_op < r1.Workloads.Sqlite.syscalls_per_op /. 2.0);
  let r3 = Workloads.Sqlite.run_pattern (runc ()) Workloads.Sqlite.Readrandom ~ops:500 in
  check_bool "reads are syscall-light" true
    (r3.Workloads.Sqlite.syscalls_per_op < 1.0)

let test_sqlite_pvm_overhead_on_writes_only () =
  let ops = 800 and kept = ref [] in
  let tp backend p = (Workloads.Sqlite.run_pattern backend p ~ops).Workloads.Sqlite.ops_per_sec in
  let w_loss =
    1.0 -. (tp (pvm ()) Workloads.Sqlite.Fillseq /. tp (runc ()) Workloads.Sqlite.Fillseq)
  in
  let r_loss =
    1.0 -. (tp (pvm ()) Workloads.Sqlite.Readrandom /. tp (runc ()) Workloads.Sqlite.Readrandom)
  in
  check_bool "PVM write loss is 15-40%" true (w_loss > 0.15 && w_loss < 0.40);
  check_bool "PVM read loss is < 5%" true (r_loss < 0.05);
  let cki_loss =
    1.0 -. (tp (cki ~kept ()) Workloads.Sqlite.Fillseq /. tp (runc ()) Workloads.Sqlite.Fillseq)
  in
  check_bool "CKI matches RunC" true (Float.abs cki_loss < 0.03);
  (* Figure 15: each syscall optimization removes part of the loss. *)
  let loss cfg =
    1.0 -. (tp (cki ~cfg ~kept ()) Workloads.Sqlite.Fillseq /. tp (runc ()) Workloads.Sqlite.Fillseq)
  in
  let wo_opt2 = loss Cki.Config.wo_opt2 and wo_opt3 = loss Cki.Config.wo_opt3 in
  check_bool "write loss PVM > wo-OPT2 > wo-OPT3 > CKI" true
    (w_loss > wo_opt2 && wo_opt2 > wo_opt3 && wo_opt3 > cki_loss);
  scan_clean kept

(* ------------------------------- KV -------------------------------- *)

let test_kv_store_semantics () =
  let b = runc () in
  let srv = Workloads.Kv.create_server b Workloads.Kv.Memcached in
  Workloads.Kv.serve_batch srv [ Workloads.Kv.Set 1; Workloads.Kv.Get 1; Workloads.Kv.Get 2 ];
  check_int "requests served" 3 srv.Workloads.Kv.requests;
  check_bool "key stored" true (Hashtbl.mem srv.Workloads.Kv.store 1);
  check_bool "absent key" false (Hashtbl.mem srv.Workloads.Kv.store 2)

(* Only a value's length reaches simulated time, so a server keeps one
   value buffer however many keys it stores: host memory stays flat as
   a run writes more keys. *)
let test_kv_one_value_buffer () =
  let b = runc () in
  let srv = Workloads.Kv.create_server b Workloads.Kv.Memcached in
  Workloads.Kv.serve_batch srv (List.init 100 (fun key -> Workloads.Kv.Set key));
  let store = srv.Workloads.Kv.store in
  check_int "100 keys stored" 100 (Hashtbl.length store);
  check_bool "every value is the server's one buffer" true
    (Hashtbl.fold (fun _ v acc -> acc && v == srv.Workloads.Kv.value) store true);
  let ep =
    match Kernel_model.Kernel.socket_endpoint b.Virt.Backend.kernel srv.Workloads.Kv.sock_id with
    | Some ep -> ep
    | None -> fail "no server endpoint"
  in
  let before = ep.Kernel_model.Net.tx_bytes in
  Workloads.Kv.serve_batch srv [ Workloads.Kv.Get 42 ];
  check_int "GET replies value_size bytes" srv.Workloads.Kv.value_size
    (ep.Kernel_model.Net.tx_bytes - before)

let test_kv_throughput_ordering () =
  let kept = ref [] in
  let thr mk = Workloads.Kv.run_memtier (mk ()) ~flavor:Workloads.Kv.Memcached ~clients:32 ~requests:500 in
  let t_cki = thr (cki ~kept) in
  let t_cki_nst = thr (cki ~env:Virt.Env.Nested ~kept) in
  let t_pvm = thr pvm in
  let t_hvm_nst = thr (fun () -> Virt.Hvm.create ~env:Virt.Env.Nested (Hw.Machine.create ~mem_mib:64 ())) in
  check_bool "CKI > PVM" true (t_cki > t_pvm);
  check_bool "PVM > HVM-NST" true (t_pvm > t_hvm_nst);
  check_bool "CKI >= 3x HVM-NST" true (t_cki /. t_hvm_nst >= 3.0);
  (* Figure 16 nested: CKI-NST keeps its exits out of L0. *)
  check_bool "CKI > CKI-NST > HVM-NST" true (t_cki > t_cki_nst && t_cki_nst > t_hvm_nst);
  scan_clean kept

let test_kv_throughput_rises_with_clients () =
  let kept = ref [] in
  let thr c = Workloads.Kv.run_memtier (cki ~kept ()) ~flavor:Workloads.Kv.Memcached ~clients:c ~requests:400 in
  let t4 = thr 4 and t64 = thr 64 in
  check_bool "more clients, more throughput" true (t64 > t4);
  scan_clean kept

(* ----------------------------- lmbench ----------------------------- *)

let test_lmbench_pvm_redirection_visible () =
  let suite_runc = Workloads.Lmbench.run_suite ~iters:40 (runc ()) in
  let suite_pvm = Workloads.Lmbench.run_suite ~iters:40 (pvm ()) in
  let suite_cki = Workloads.Lmbench.run_suite ~iters:40 (cki ()) in
  let get s op = List.assoc op s in
  (* PVM roughly doubles a 1-byte read (paper Section 7.1). *)
  let ratio = get suite_pvm Workloads.Lmbench.Read /. get suite_runc Workloads.Lmbench.Read in
  check_bool "PVM read ~2x native" true (ratio > 1.7 && ratio < 2.6);
  (* CKI stays within a few percent of RunC on every op. *)
  List.iter
    (fun op ->
      let r = get suite_cki op /. get suite_runc op in
      check_bool (Workloads.Lmbench.op_name op ^ " CKI close to RunC") true (r < 1.12))
    Workloads.Lmbench.all_ops;
  (* PVM is the slowest on every op (Figure 11's shape). *)
  List.iter
    (fun op ->
      check_bool (Workloads.Lmbench.op_name op ^ " PVM worst") true
        (get suite_pvm op >= get suite_runc op && get suite_pvm op >= get suite_cki op))
    Workloads.Lmbench.all_ops

(* ------------------------- Webserver/netperf ----------------------- *)

let test_webserver_ordering () =
  let thr mk kind = Workloads.Webserver.run (mk ()) kind ~requests:300 in
  let static_runc = thr runc Workloads.Webserver.Nginx_static in
  let static_pvm = thr pvm Workloads.Webserver.Nginx_static in
  let proxy_pvm = thr pvm Workloads.Webserver.Nginx_proxy in
  check_bool "RunC fastest" true (static_runc > static_pvm);
  check_bool "proxy slower than static" true (static_pvm > proxy_pvm)

(* Major-heap words per proxied request on a CKI container, over 4,000
   requests after 200 of warm-up.  The upstream reply is one buffer per
   server (a fresh 8 KiB reply per request cost ~1,000 words more).
   What is left is mostly [Virtio.reclaim]'s fresh [Bytes.create len]
   per RX chain, the copy-out of that same reply. *)
let test_webserver_proxy_major_words () =
  let b = cki () in
  ignore (Workloads.Webserver.run b Workloads.Webserver.Nginx_proxy ~requests:200);
  let words0 = (Gc.quick_stat ()).Gc.major_words in
  let requests = 4000 in
  ignore (Workloads.Webserver.run b Workloads.Webserver.Nginx_proxy ~requests);
  let words = ((Gc.quick_stat ()).Gc.major_words -. words0) /. float_of_int requests in
  check_bool (Printf.sprintf "proxy: %.1f major words/request < 1300" words) true (words < 1300.0)

let test_netperf_rr_exit_sensitivity () =
  let rr mk = Workloads.Netperf.run_rr (mk ()) ~transactions:300 in
  let r_cki = rr cki in
  let r_hvm_nst = rr (fun () -> Virt.Hvm.create ~env:Virt.Env.Nested (Hw.Machine.create ~mem_mib:64 ())) in
  check_bool "RR collapses under nested exits" true (r_cki /. r_hvm_nst > 4.0)

(* ------------------------------ Report ----------------------------- *)

let test_stats_helpers () =
  check_bool "mean" true (Report.Stats.mean [ 1.0; 2.0; 3.0 ] = 2.0);
  check_bool "overhead" true (Report.Stats.overhead_pct ~baseline:100.0 150.0 = 50.0)

(* [percentiles] equals the nearest-rank definition it replaced, a
   polymorphic sort of the list per percentile, bit for bit on every
   sample: empty ones, duplicates, +-infinity, 0.0 beside -0.0, and
   percentiles at and past 0 and 100. *)
let percentile_by_list xs ~p =
  match xs with
  | [] -> nan
  | _ ->
      let sorted = List.sort compare xs in
      let n = List.length sorted in
      let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
      List.nth sorted (max 0 (min (n - 1) (rank - 1)))

let prop_percentiles_match_list =
  let open QCheck in
  let value =
    Gen.frequency
      [
        (6, Gen.map float_of_int (Gen.int_range (-5) 5));
        (3, Gen.float_range (-1e6) 1e6);
        (1, Gen.oneofl [ infinity; neg_infinity; 0.0; -0.0 ]);
      ]
  in
  let p =
    Gen.oneof [ Gen.float_range (-5.0) 105.0; Gen.oneofl [ 0.0; 50.0; 95.0; 99.0; 100.0 ] ]
  in
  let ps = Gen.array_size (Gen.int_range 1 6) p in
  Test.make ~name:"percentiles = one list sort per percentile" ~count:500
    (make
       ~print:(fun (xs, ps) ->
         Printf.sprintf "[%s] at [%s]"
           (String.concat "; " (List.map string_of_float xs))
           (String.concat "; " (Array.to_list (Array.map string_of_float ps))))
       (Gen.pair (Gen.list_size (Gen.int_range 0 40) value) ps))
    (fun (xs, ps) ->
      let got = Report.Stats.percentiles xs ps in
      let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
      Array.length got = Array.length ps
      && Array.for_all2 (fun g p -> same g (percentile_by_list xs ~p)) got ps
      && Array.for_all2 (fun g p -> same g (Report.Stats.percentile xs ~p)) got ps)

let test_table_render () =
  let t = Report.Table.create ~title:"t" ~header:[ "a"; "bb" ] in
  Report.Table.add_row t [ "x"; "y" ];
  let s = Report.Table.render t in
  check_bool "title" true (String.length s > 0);
  check_bool "contains row" true (String.length s - String.length (String.concat "" (String.split_on_char 'x' s)) >= 0)

let suite =
  [
    ( "workloads/btree",
      [
        test_case "insert/lookup" `Quick test_btree_insert_lookup;
        QCheck_alcotest.to_alcotest prop_btree_matches_hashtbl;
        test_case "inserts cause demand faults" `Quick test_btree_insert_causes_faults;
        test_case "lookup ratio dilutes overhead" `Quick test_btree_ratio_dilutes_overhead;
        test_case "update of a split median" `Quick test_btree_update_split_median;
      ] );
    ( "workloads/profile",
      [
        test_case "arena fault density" `Quick test_arena_fault_density;
        test_case "rng determinism" `Quick test_rng_determinism;
      ] );
    ("workloads/gups", [ test_case "walk geometry" `Quick test_gups_walk_geometry ]);
    ( "workloads/sqlite",
      [
        test_case "engine roundtrip" `Quick test_sqlite_engine_roundtrip;
        test_case "batching reduces syscalls" `Quick test_sqlite_batch_reduces_syscalls;
        test_case "PVM overhead writes-only" `Quick test_sqlite_pvm_overhead_on_writes_only;
      ] );
    ( "workloads/kv",
      [
        test_case "store semantics" `Quick test_kv_store_semantics;
        test_case "one value buffer per server" `Quick test_kv_one_value_buffer;
        test_case "throughput ordering" `Quick test_kv_throughput_ordering;
        test_case "throughput rises with clients" `Quick test_kv_throughput_rises_with_clients;
      ] );
    ("workloads/lmbench", [ test_case "redirection visible, CKI near-native" `Slow test_lmbench_pvm_redirection_visible ]);
    ( "workloads/io",
      [
        test_case "webserver ordering" `Quick test_webserver_ordering;
        test_case "proxy reply reused" `Quick test_webserver_proxy_major_words;
        test_case "netperf RR exit sensitivity" `Quick test_netperf_rr_exit_sensitivity;
      ] );
    ( "report",
      [
        test_case "stats helpers" `Quick test_stats_helpers;
        test_case "table render" `Quick test_table_render;
        QCheck_alcotest.to_alcotest prop_percentiles_match_list;
      ] );
  ]
