(* Source-auditor tests.

   Fault-injection style, like test_analysis.ml: seed violating sources
   into a temporary tree and assert that each rule family fires with the
   right file:line span — and that the compliant variant stays silent.
   Plus a golden scan: the real repo must come back with no finding at
   all. *)

open Alcotest

let check_bool = check bool

(* ------------------------------------------------------------------ *)
(* Temp-tree scaffolding                                               *)
(* ------------------------------------------------------------------ *)

let rec mkdirs dir =
  if not (Sys.file_exists dir) then begin
    mkdirs (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let write_file root rel content =
  let path = Filename.concat root rel in
  mkdirs (Filename.dirname path);
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc content)

(* Build a throwaway tree from [(relative path, content)] pairs, run
   [f root], clean up even on failure. *)
let with_tree files f =
  let dir = Filename.temp_file "srclint_test" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      List.iter (fun (rel, content) -> write_file dir rel content) files;
      f dir)

let scan ?tcb files = with_tree files (fun root -> (Srclint.scan ?tcb ~root ()).Srclint.findings)

let fires name rule ~file ~line findings =
  check_bool
    (Printf.sprintf "%s: %s fires at %s:%d" name rule file line)
    true
    (List.exists
       (fun (f : Srclint.Rules.finding) ->
         f.Srclint.Rules.rule = rule && f.Srclint.Rules.file = file && f.Srclint.Rules.line = line)
       findings)

let silent name rule findings =
  check_bool
    (Printf.sprintf "%s: no %s finding" name rule)
    true
    (not (List.exists (fun (f : Srclint.Rules.finding) -> f.Srclint.Rules.rule = rule) findings))

(* ------------------------------------------------------------------ *)
(* (1) trusted-sink                                                    *)
(* ------------------------------------------------------------------ *)

let test_sink_fires () =
  let findings =
    scan
      [
        ( "lib/app/evil.ml",
          "(* a compromised guest component *)\n\n\
           let smash mem = Hw.Phys_mem.write_entry mem ~pfn:0 ~index:0 0L\n" );
        ("lib/app/evil.mli", "val smash : 'a -> unit\n");
      ]
  in
  fires "raw write outside TCB" "trusted-sink" ~file:"lib/app/evil.ml" ~line:3 findings

let test_sink_page_copy_fires () =
  let findings =
    scan
      [
        ( "lib/app/evil.ml",
          "let scribble mem buf = Hw.Phys_mem.write_bytes mem ~pfn:0 buf ~off:0 ~len:8\n" );
        ("lib/app/evil.mli", "val scribble : 'a -> 'b -> unit\n");
      ]
  in
  fires "raw page copy outside TCB" "trusted-sink" ~file:"lib/app/evil.ml" ~line:1 findings

let test_sink_open_fires () =
  let findings =
    scan
      [
        ("lib/app/evil.ml", "open Hw.Phys_mem\n\nlet f mem = write_entry mem ~pfn:0 ~index:0 0L\n");
        ("lib/app/evil.mli", "val f : 'a -> unit\n");
      ]
  in
  fires "open of the sink module" "trusted-sink" ~file:"lib/app/evil.ml" ~line:1 findings

let test_sink_allowlisted_silent () =
  let findings =
    scan ~tcb:[ "lib/app/" ]
      [
        ("lib/app/trusted.ml", "let f mem = Hw.Phys_mem.write_entry mem ~pfn:0 ~index:0 0L\n");
        ("lib/app/trusted.mli", "val f : 'a -> unit\n");
      ]
  in
  silent "TCB file may write" "trusted-sink" findings

let test_sink_reads_silent () =
  let findings =
    scan
      [
        ("lib/app/reader.ml", "let f mem = Hw.Phys_mem.read_entry mem ~pfn:0 ~index:0\n");
        ("lib/app/reader.mli", "val f : 'a -> int64\n");
      ]
  in
  silent "raw reads are not sinks" "trusted-sink" findings

(* ------------------------------------------------------------------ *)
(* (2) hygiene                                                         *)
(* ------------------------------------------------------------------ *)

let test_hygiene_missing_mli () =
  let findings = scan [ ("lib/app/naked.ml", "let v = 1\n") ] in
  fires "no interface file" "missing-mli" ~file:"lib/app/naked.ml" ~line:1 findings

let test_hygiene_tcb_unsafe () =
  let findings =
    scan ~tcb:[ "lib/app/" ]
      [
        ( "lib/app/monitor.ml",
          "let coerce x = Obj.magic x\n\nlet impossible () = assert false\n" );
        ("lib/app/monitor.mli", "val coerce : 'a -> 'b\nval impossible : unit -> 'a\n");
      ]
  in
  fires "Obj.magic in TCB" "tcb-unsafe" ~file:"lib/app/monitor.ml" ~line:1 findings;
  fires "assert false in TCB" "tcb-unsafe" ~file:"lib/app/monitor.ml" ~line:3 findings;
  (* outside the TCB the same text is silent *)
  let findings =
    scan ~tcb:[]
      [
        ("lib/app/monitor.ml", "let coerce x = Obj.magic x\n");
        ("lib/app/monitor.mli", "val coerce : 'a -> 'b\n");
      ]
  in
  silent "Obj.magic outside TCB" "tcb-unsafe" findings

let test_hygiene_probe_pairing () =
  let enter = "Hw.Probe.emit (Hw.Probe.Gate_enter { cpu = 0; gate; pkrs = 1 })" in
  let exit_ = "Hw.Probe.emit (Hw.Probe.Gate_exit { cpu = 0; gate; entry_pkrs = 1; pkrs = 0 })" in
  let findings =
    scan
      [
        ("lib/app/gates.ml", Printf.sprintf "let enter gate = %s\n" enter);
        ("lib/app/gates.mli", "val enter : Hw.Probe.gate -> unit\n");
      ]
  in
  fires "enter without exit" "probe-pairing" ~file:"lib/app/gates.ml" ~line:1 findings;
  let findings =
    scan
      [
        ( "lib/app/gates.ml",
          Printf.sprintf "let enter gate = %s\nlet exit_ gate = %s\n" enter exit_ );
        ("lib/app/gates.mli", "val enter : Hw.Probe.gate -> unit\nval exit_ : Hw.Probe.gate -> unit\n");
      ]
  in
  silent "paired emissions" "probe-pairing" findings

let test_hygiene_frame_sweep () =
  let sweep =
    "let count mem =\n\
    \  let n = ref 0 in\n\
    \  for pfn = 0 to Hw.Phys_mem.total_frames mem - 1 do\n\
    \    if Hw.Phys_mem.owner mem pfn = Hw.Phys_mem.Host then incr n\n\
    \  done;\n\
    \  !n\n"
  in
  let findings =
    scan
      [
        ("lib/app/sweep.ml", sweep);
        ("lib/app/sweep.mli", "val count : 'a -> int\n");
      ]
  in
  fires "whole-machine loop outside lib/hw" "frame-sweep" ~file:"lib/app/sweep.ml" ~line:3 findings;
  (* a walk that reads every slot of a table, where iter_entries visits
     only the written ones *)
  let table_sweep =
    "let present mem pfn =\n\
    \  let n = ref 0 in\n\
    \  for i = 0 to Hw.Addr.entries_per_table - 1 do\n\
    \    if Hw.Phys_mem.read_entry mem ~pfn ~index:i <> 0L then incr n\n\
    \  done;\n\
    \  !n\n"
  in
  let findings =
    scan
      [
        ("lib/app/walk.ml", table_sweep);
        ("lib/app/walk.mli", "val present : 'a -> int -> int\n");
      ]
  in
  fires "table-slot loop outside lib/hw" "frame-sweep" ~file:"lib/app/walk.ml" ~line:3 findings;
  (* the hardware model itself may walk every frame, and the owner
     index is the sanctioned replacement elsewhere *)
  let findings =
    scan
      [
        ("lib/hw/sweep.ml", sweep);
        ("lib/hw/sweep.mli", "val count : 'a -> int\n");
        ("lib/hw/walk.ml", table_sweep);
        ("lib/hw/walk.mli", "val present : 'a -> int -> int\n");
        ( "lib/app/owned.ml",
          "let count mem = Hw.Phys_mem.owned_count mem Hw.Phys_mem.Host\n\
           let each mem f = for i = 0 to 7 do f i done; Hw.Phys_mem.iter_owned mem Hw.Phys_mem.Host f\n\
           let entries mem pfn f = Hw.Phys_mem.iter_entries mem ~pfn f\n"
        );
        ( "lib/app/owned.mli",
          "val count : 'a -> int\nval each : 'a -> (int -> unit) -> unit\n\
           val entries : 'a -> int -> (int -> int64 -> unit) -> unit\n" );
      ]
  in
  silent "lib/hw sweeps, owner-index and iter_entries calls" "frame-sweep" findings

let test_parse_error_reported () =
  let findings =
    scan
      [ ("lib/app/broken.ml", "let = in garbage ))\n"); ("lib/app/broken.mli", "") ]
  in
  fires "unparseable file" "parse-error" ~file:"lib/app/broken.ml" ~line:1 findings

(* ------------------------------------------------------------------ *)
(* (3) spawn-site                                                      *)
(* ------------------------------------------------------------------ *)

let spawner = "let t () = Domain.join (Domain.spawn (fun () -> 1))\n"

let test_spawn_site_fires () =
  let findings =
    scan
      [
        ("lib/app/x.ml", "(* no capture at all *)\n" ^ spawner);
        ("lib/app/x.mli", "val t : unit -> int\n");
        ("bin/x.ml", spawner);
      ]
  in
  fires "spawn in a library" "spawn-site" ~file:"lib/app/x.ml" ~line:2 findings;
  fires "spawn in an executable" "spawn-site" ~file:"bin/x.ml" ~line:1 findings

let test_spawn_site_open_fires () =
  (* [open Domain] makes [spawn] reachable unqualified: the open itself
     fires, as an open of the sink module does. *)
  let findings =
    scan
      [
        ("lib/app/x.ml", "open Domain\n\nlet t () = join (spawn (fun () -> 1))\n");
        ("lib/app/x.mli", "val t : unit -> int\n");
      ]
  in
  fires "open of Domain" "spawn-site" ~file:"lib/app/x.ml" ~line:1 findings

(* spawn-site has no allowlist: the simulator runs on one domain, and
   no file, lib/hw/ included, may create another. *)
let test_spawn_site_no_exemption () =
  let findings =
    scan
      [
        ("lib/hw/domain_shard.ml", spawner);
        ("lib/hw/domain_shard.mli", "val t : unit -> int\n");
      ]
  in
  fires "spawn in lib/hw/domain_shard.ml" "spawn-site" ~file:"lib/hw/domain_shard.ml" ~line:1
    findings

(* The single-domain guard covers all three scanned roots: the bench
   harness is policed like lib/ and bin/, and every spawn-site finding
   is Critical, so no scan of a spawning tree can pass. *)
let test_single_domain_bench_fires () =
  let findings =
    scan
      [
        ("lib/app/a.ml", "let v = 1\n");
        ("lib/app/a.mli", "val v : int\n");
        ("bench/x.ml", spawner);
      ]
  in
  fires "spawn in the bench harness" "spawn-site" ~file:"bench/x.ml" ~line:1 findings

let test_single_domain_critical () =
  let findings =
    scan [ ("lib/app/x.ml", spawner); ("lib/app/x.mli", "val t : unit -> int\n") ]
  in
  let spawns =
    List.filter (fun (f : Srclint.Rules.finding) -> f.Srclint.Rules.rule = "spawn-site") findings
  in
  check_bool "spawn-site fired" true (spawns <> []);
  check_bool "every spawn-site finding is Critical" true
    (List.for_all
       (fun (f : Srclint.Rules.finding) -> f.Srclint.Rules.severity = Report.Findings.Critical)
       spawns)

(* ------------------------------------------------------------------ *)
(* (4) executable scope                                                *)
(* ------------------------------------------------------------------ *)

(* bin/ and bench/ get parse-error and spawn-site; the lib-only
   families (missing-mli, trusted-sink) stay out of executable scope. *)
let test_exe_scope_rules () =
  let findings =
    scan
      [
        ("lib/app/a.ml", "let v = 1\n");
        ("lib/app/a.mli", "val v : int\n");
        ( "bin/demo.ml",
          "let smash mem = Hw.Phys_mem.write_entry mem ~pfn:0 ~index:0 0L\n" ^ spawner );
        ("bench/broken.ml", "let = in garbage ))\n");
      ]
  in
  fires "spawn in an executable" "spawn-site" ~file:"bin/demo.ml" ~line:2 findings;
  fires "unparseable bench file" "parse-error" ~file:"bench/broken.ml" ~line:1 findings;
  silent "no missing-mli for executables" "missing-mli" findings;
  silent "no trusted-sink for executables" "trusted-sink" findings

(* ------------------------------------------------------------------ *)
(* (5) scan coverage: what the srclint bench gate reads                *)
(* ------------------------------------------------------------------ *)

let test_unscanned_empty_tree () =
  let gaps = with_tree [] (fun root -> Srclint.unscanned (Srclint.scan ~root ())) in
  check (list string) "lib, bin and bench each parsed nothing" [ "bench"; "bin"; "lib" ] gaps

let test_unscanned_skipped_dir () =
  with_tree
    [
      ("lib/a/a.ml", "let v = 1\n");
      ("lib/b/b.ml", "let v = 2\n");
      ("bin/x.ml", "let () = ()\n");
      ("bench/y.ml", "let () = ()\n");
    ]
    (fun root ->
      let s = Srclint.scan ~root () in
      check (list string) "complete scan" [] (Srclint.unscanned s);
      let files = List.filter (fun (f : Srclint.Source.file) -> f.dir <> "lib/b") s.tree.files in
      let skipped = { s with Srclint.tree = { s.tree with files } } in
      check (list string) "lib/b skipped" [ "lib/b" ] (Srclint.unscanned skipped))

(* ------------------------------------------------------------------ *)
(* Golden: the real repo                                               *)
(* ------------------------------------------------------------------ *)

let test_golden_repo_clean () =
  let root = Srclint.find_root_exn () in
  let s = Srclint.scan ~root () in
  check (list string) "every directory parsed" [] (Srclint.unscanned s);
  match s.Srclint.findings with
  | [] -> ()
  | fs ->
      fail
        (Printf.sprintf "repo must scan clean, got:\n%s"
           (Report.Findings.render ~title:"srclint" (Srclint.to_findings fs)))

let suite =
  [
    ( "srclint-sink",
      [
        test_case "raw write outside TCB fires" `Quick test_sink_fires;
        test_case "raw page copy outside TCB fires" `Quick test_sink_page_copy_fires;
        test_case "open of sink module fires" `Quick test_sink_open_fires;
        test_case "allowlisted TCB file is silent" `Quick test_sink_allowlisted_silent;
        test_case "raw reads are silent" `Quick test_sink_reads_silent;
      ] );
    ( "srclint-hygiene",
      [
        test_case "missing mli fires" `Quick test_hygiene_missing_mli;
        test_case "Obj.magic / assert false in TCB fire" `Quick test_hygiene_tcb_unsafe;
        test_case "unpaired gate probes fire" `Quick test_hygiene_probe_pairing;
        test_case "whole-machine frame sweep fires" `Quick test_hygiene_frame_sweep;
        test_case "parse errors become findings" `Quick test_parse_error_reported;
      ] );
    ( "srclint-spawn-site",
      [
        test_case "spawn outside the sharding site fires" `Quick test_spawn_site_fires;
        test_case "open of Domain fires" `Quick test_spawn_site_open_fires;
        test_case "no file may spawn" `Quick test_spawn_site_no_exemption;
      ] );
    ( "srclint-single-domain",
      [
        test_case "spawn in the bench harness fires" `Quick test_single_domain_bench_fires;
        test_case "spawn-site findings are Critical" `Quick test_single_domain_critical;
      ] );
    ( "srclint-exe-scope",
      [ test_case "spawn-site and parse-error only" `Quick test_exe_scope_rules ] );
    ( "srclint-coverage",
      [
        test_case "an empty tree is all gaps" `Quick test_unscanned_empty_tree;
        test_case "a skipped library directory is a gap" `Quick test_unscanned_skipped_dir;
      ] );
    ("srclint-golden", [ test_case "repo scans clean" `Quick test_golden_repo_clean ]);
  ]
