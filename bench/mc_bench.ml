(* Model-checker throughput benchmark.  Exploration is tooling, not a
   workload the paper times, so its speed is host wall-clock; the state
   space itself is deterministic.

   Reports the exhaustive run at the default configuration — states,
   transitions, depth reached, peak frontier, states/sec — and the
   mutation harness (kill count and total time).

   Gates: >= 10k distinct states at the default depth on the 2-vCPU
   config, zero violations, every seeded mutant killed. *)

let run () =
  let r = Modelcheck.Explore.run_standalone () in
  let s = r.Modelcheck.Explore.stats in
  let violations = List.length r.Modelcheck.Explore.violations in
  if violations > 0 then print_string (Modelcheck.Cex.report r);
  let t0 = Sys.time () in
  let verdicts = Modelcheck.Mutants.run_all () in
  let mutants_s = Sys.time () -. t0 in
  let mutants = List.length verdicts in
  let killed = List.length (List.filter (fun v -> v.Modelcheck.Mutants.killed) verdicts) in
  let states = s.Modelcheck.Explore.states in
  {
    Artifact.bench = "modelcheck";
    metrics =
      [
        Artifact.count "states" "states" states;
        Artifact.count "transitions" "transitions" s.Modelcheck.Explore.transitions;
        Artifact.count "depth_bound" "steps" r.Modelcheck.Explore.config.Modelcheck.Transition.depth;
        Artifact.count "depth_reached" "steps" s.Modelcheck.Explore.depth_reached;
        Artifact.count "peak_frontier" "states" s.Modelcheck.Explore.peak_frontier;
        Artifact.wall "explore_time" "s" s.Modelcheck.Explore.elapsed_s;
        Artifact.wall ~n:states "explore_rate" "states/s"
          (float_of_int states /. max 1e-9 s.Modelcheck.Explore.elapsed_s);
        Artifact.count ~n:mutants "mutants_killed" "mutants" killed;
        Artifact.wall ~n:mutants "mutants_time" "s" mutants_s;
      ];
    gates =
      [
        Artifact.gate ">= 10k distinct states" (states >= 10_000) (string_of_int states);
        Artifact.gate "no violations" (violations = 0) (string_of_int violations);
        Artifact.gate "every seeded mutant killed" (killed = mutants)
          (Printf.sprintf "%d/%d" killed mutants);
      ];
  }
