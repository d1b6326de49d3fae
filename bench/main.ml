(* CKI reproduction benchmark harness: the artifact benches.

   Usage:
     dune exec bench/main.exe              # every bench
     dune exec bench/main.exe paper        # the paper's evaluation
     dune exec bench/main.exe fig12        # one paper experiment
     dune exec bench/main.exe list         # list bench and experiment ids

   Each bench returns its metrics and gates, which Artifact prints as
   one table plus one OK/FAIL line per gate; --json also writes each
   whole bench to BENCH_<bench>.json in the current directory.  A
   single paper experiment (`table2` ... `ablation`) only prints: it
   is one part of BENCH_paper.json, which is written whole or not at
   all.

   `validate [FILE...]` checks the given artifacts (default: every
   BENCH_*.json in the current directory) with Artifact.validate and
   exits 1 if any is malformed, breaks the schema or has a false gate —
   the one place a failed gate fails the build — or if a srclint
   artifact's file or line count disagrees with a scan of the tree it
   sits in.

   `compare OLD.json NEW.json` prints every difference between two
   artifacts: wall metrics as old -> new with their ratio (not judged),
   heap counts that fell, any heap count that rose, and any sim metric
   that differs in value or n, or is on one side only; after either of
   the last two it exits 1. *)

(* Every id, with its run and whether --json writes it. *)
let registry =
  List.map
    (fun (id, run) -> (id, (run, true)))
    [
      ("snapshot", Snap_bench.run);
      ("modelcheck", Mc_bench.run);
      ("ioplane", Ioplane_bench.run);
      ("fleet", Fleet_bench.run);
      ("migration", Migration_bench.run);
      ("srclint", Srclint_bench.run);
      ("engine", Engine_bench.run);
      ("paper", Paper.run);
    ]
  @ List.map (fun (id, run) -> (id, ((fun () -> Paper.artifact id [ run () ]), false))) Paper.experiments

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let json = List.mem "--json" args in
  let args = List.filter (fun a -> a <> "--json") args in
  let bench (run, writable) =
    let a = run () in
    Artifact.print a;
    if json && writable then Artifact.write a
    else if json then Printf.printf "not written: %s is one part of BENCH_paper.json (run `paper`)\n" a.Artifact.bench;
    flush stdout
  in
  match args with
  | [ "list" ] -> List.iter print_endline (List.map fst registry @ [ "validate"; "compare" ])
  | "validate" :: files ->
      let check file (a : Artifact.t) =
        if a.bench = "srclint" then Srclint_bench.stale file a else []
      in
      if not (Artifact.validate ~check files) then exit 1
  | [ "compare"; old_file; new_file ] -> if not (Artifact.compare_files old_file new_file) then exit 1
  | [] -> List.iter (fun (_, (run, writable)) -> if writable then bench (run, writable)) registry
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt name registry with
          | Some b -> bench b
          | None ->
              Printf.eprintf "unknown bench %S (try: dune exec bench/main.exe list)\n" name;
              exit 1)
        names
