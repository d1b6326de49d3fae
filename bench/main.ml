(* CKI reproduction benchmark harness.

   Regenerates every table and figure of the paper's evaluation (see
   DESIGN.md section 4) plus the attack suite, the artifact benches and
   Bechamel benches of the simulator primitives.

   Usage:
     dune exec bench/main.exe            # everything
     dune exec bench/main.exe fig12      # one experiment
     dune exec bench/main.exe snapshot   # one artifact bench
     dune exec bench/main.exe list       # list experiment and bench ids

   Each artifact bench returns its metrics and gates, which are printed
   as one table; --json also writes them to BENCH_<bench>.json in the
   current directory.

   `validate [FILE...]` checks the given artifacts (default: every
   BENCH_*.json in the current directory) with Artifact.validate and
   exits 1 if any is malformed, breaks the schema or has a false gate —
   the one place a failed gate fails the build. *)

let benches =
  [
    ("snapshot", Snap_bench.run);
    ("modelcheck", Mc_bench.run);
    ("ioplane", Ioplane_bench.run);
    ("fleet", Fleet_bench.run);
    ("migration", Migration_bench.run);
    ("srclint", Srclint_bench.run);
    ("racecheck", Racecheck_bench.run);
    ("engine", Engine_bench.run);
    ("micro", Micro.run);
  ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let json = List.mem "--json" args in
  let args = List.filter (fun a -> a <> "--json") args in
  let bench run =
    let a = run () in
    Artifact.print a;
    if json then Artifact.write a;
    flush stdout
  in
  match args with
  | [ "list" ] ->
      List.iter print_endline
        (List.map fst Experiments.all @ List.map fst benches @ [ "simbench"; "validate" ])
  | "validate" :: files -> if not (Artifact.validate files) then exit 1
  | [] ->
      Printf.printf "CKI (EuroSys'25) reproduction — full benchmark run\n";
      Printf.printf "===================================================\n";
      List.iter
        (fun (_, f) ->
          f ();
          flush stdout)
        Experiments.all;
      List.iter (fun (_, run) -> bench run) benches;
      Simbench.run ()
  | names ->
      List.iter
        (fun name ->
          match (List.assoc_opt name benches, List.assoc_opt name Experiments.all) with
          | Some run, _ -> bench run
          | None, Some f -> f ()
          | None, None when name = "simbench" -> Simbench.run ()
          | None, None ->
              Printf.eprintf "unknown experiment %S (try: dune exec bench/main.exe list)\n" name;
              exit 1)
        names
