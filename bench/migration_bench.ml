(* Migration benchmark: live migration over the multi-host fabric.

   Three experiments:

   - downtime: the same dirty-heap app migrated twice — once with
     iterative pre-copy (rounds of dirty-frame sends while the source
     serves; only the final dirty set ships inside the blackout) and
     once with pure stop-and-copy (rounds_max = 0: the whole image
     ships inside the blackout).  Pre-copy's downtime must be < 10%
     of stop-and-copy's, and its dirty rounds must converge (strictly
     decreasing counts, or the round cap fires);
   - storm: a serving tenant on a 2-host fleet slice while one host is
     drained mid-run — every replica evacuated to the survivor via
     warm clones, spawned *before* the doomed replicas are fenced.
     The tenant's max latency over the first millisecond after the
     drain trigger, and its p99 once the host is empty, must stay
     within 5x of the steady-state p99 before it, each over >= 10
     completions;
   - chaos: source-crash mid-round, target crash before cutover, and a
     fabric partition — each must end with exactly one live,
     analysis-clean copy, no split brain and no leaked frames; a
     leak-injection run proves the frame-leak checker catches what it
     claims to.

   Gates: pre-copy downtime < 10% of stop-and-copy; dirty rounds
   converge; storm latency within 5x steady state; each chaos scenario
   leaves one clean copy; the leak injection is caught. *)

(* ------------------------------------------------------------------ *)
(* Downtime: pre-copy vs stop-and-copy                                  *)
(* ------------------------------------------------------------------ *)

(* One migration of the shared chaos-harness app on a fresh 2-host
   fabric.  [rounds_max = 0] is the stop-and-copy baseline. *)
let migrate_once opts =
  let fab = Migrate.Fabric.create ~hosts:2 () in
  let a = Migrate.Chaos.boot_app fab ~hid:0 in
  ignore (Migrate.Fabric.expose fab ~name:"svc" ~home:0);
  match
    Migrate.Engine.migrate fab ~src:0 ~dst:1 ~name:"svc" a.Migrate.Chaos.container
      ~work:(Migrate.Chaos.work_of a) opts
  with
  | Ok st -> st
  | Error e -> failwith ("migration bench: " ^ Migrate.Engine.show_error e)

(* Strictly decreasing dirty counts round over round, unless the round
   cap cut the sequence short. *)
let rounds_converge (st : Migrate.Engine.stats) =
  let dirties = List.map (fun r -> r.Migrate.Engine.r_dirty) st.Migrate.Engine.rounds in
  let rec decreasing = function
    | a :: (b :: _ as rest) -> a > b && decreasing rest
    | _ -> true
  in
  st.Migrate.Engine.converged || decreasing dirties

let stats_metrics name (st : Migrate.Engine.stats) =
  let open Migrate.Engine in
  let m = Printf.sprintf "%s.%s" name in
  [
    Artifact.sim (m "downtime") "ns" st.downtime_ns;
    Artifact.sim (m "total") "ns" st.total_ns;
    Artifact.count (m "frames_full") "frames" st.frames_full;
    Artifact.count (m "frames_resent") "frames" st.frames_resent;
    Artifact.count (m "final_dirty") "frames" st.final_dirty;
    Artifact.count (m "rounds") "rounds" (List.length st.rounds);
  ]
  @ List.concat_map
      (fun r ->
        let m = Printf.sprintf "%s.round%d.%s" name r.r_round in
        [
          Artifact.count (m "dirty") "frames" r.r_dirty;
          Artifact.sim (m "budget") "ns" r.r_budget_ns;
          Artifact.sim (m "transfer") "ns" r.r_transfer_ns;
        ])
      st.rounds

let run_downtime () =
  let open Migrate.Engine in
  let pre = migrate_once default_opts in
  let sc = migrate_once { default_opts with rounds_max = 0 } in
  let ratio = pre.downtime_ns /. sc.downtime_ns in
  let dirties = List.map (fun r -> string_of_int r.r_dirty) pre.rounds in
  ( stats_metrics "precopy" pre
    @ stats_metrics "stop_and_copy" sc
    @ [ Artifact.sim "precopy_over_stopcopy" "ratio" ratio ],
    [
      Artifact.gate "pre-copy downtime < 10% of stop-and-copy" (ratio < 0.1)
        (Printf.sprintf "%.1f%%" (100.0 *. ratio));
      Artifact.gate "dirty rounds converge" (rounds_converge pre)
        (Printf.sprintf "dirty frames per round: %s%s" (String.concat ", " dirties)
           (if pre.converged then "" else " (round cap)"));
    ] )

(* ------------------------------------------------------------------ *)
(* Migration storm: drain a host under live tenant traffic             *)
(* ------------------------------------------------------------------ *)

let run_storm () =
  let open Fleet.Controller in
  let tenant =
    { default_tenant with name = "storm"; rate_rps = 30_000.0; requests = 24_000 }
  in
  (* Pin the fleet at 4 replicas (2 per host): the storm measures the
     drain, not the autoscaler walking capacity away beforehand. *)
  let cfg =
    {
      default_config with
      tenants = [ tenant ];
      initial_replicas = 4;
      autoscaler = { Fleet.Autoscaler.default_config with Fleet.Autoscaler.min_replicas = 4 };
      hosts = 2;
      drain = Some { d_host = 1; d_after_requests = 8_000 };
    }
  in
  let tr = run_tenant cfg tenant ~seed:(tenant_seed cfg.seed 0) in
  let bound = 5.0 *. tr.tr_p99_before_us in
  let ok =
    tr.tr_evacuated > 0 && tr.tr_completed = tr.tr_admitted
    && tr.tr_n_before >= 10 && tr.tr_p99_before_us > 0.0
    && tr.tr_n_during >= 10 && tr.tr_max_during_us <= bound
    && tr.tr_n_after >= 10 && tr.tr_p99_after_us <= bound
  in
  ( [
      Artifact.count "storm.offered" "requests" tr.tr_offered;
      Artifact.count "storm.completed" "requests" tr.tr_completed;
      Artifact.count "storm.evacuated" "replicas" tr.tr_evacuated;
      Artifact.sim "storm.drain" "ns" tr.tr_drain_ns;
      Artifact.sim ~n:tr.tr_n_before "storm.p99_before" "us" tr.tr_p99_before_us;
      Artifact.sim ~n:tr.tr_n_during "storm.max_during" "us" tr.tr_max_during_us;
      Artifact.sim ~n:tr.tr_n_after "storm.p99_after" "us" tr.tr_p99_after_us;
    ],
    [
      Artifact.gate "storm latency within 5x steady state, each phase n >= 10" ok
        (Printf.sprintf
           "p99 before %.1f us (n=%d), max in the 1 ms after the trigger %.1f us (n=%d), p99 \
            after %.1f us (n=%d); %d evacuated, %d/%d admitted completed"
           tr.tr_p99_before_us tr.tr_n_before tr.tr_max_during_us tr.tr_n_during
           tr.tr_p99_after_us tr.tr_n_after tr.tr_evacuated tr.tr_completed tr.tr_admitted);
    ] )

(* ------------------------------------------------------------------ *)
(* Chaos                                                               *)
(* ------------------------------------------------------------------ *)

let run_chaos () =
  let open Migrate.Chaos in
  let vs = all () in
  (* Fault-inject the leak checker: plant a losing-copy frame on a
     surviving loser host and demand the verdict flips. *)
  let inj = all ~leak_inject:true () in
  (* One injected verdict per scenario, and at least one scenario whose
     loser host survives to hold the planted frame. *)
  let per_scenario = List.map (fun v -> v.scenario) inj = List.map (fun v -> v.scenario) vs in
  let live_losers = List.length (List.filter (fun v -> v.scenario <> Source_crash) inj) in
  let caught =
    per_scenario && live_losers >= 1
    && List.for_all
         (fun v ->
           if v.scenario = Source_crash then v.ok
             (* the loser host is dead: nothing survives to leak *)
           else (not v.ok) && v.leaked_frames > 0)
         inj
  in
  let name v = "chaos." ^ scenario_name v.scenario in
  ( List.map (fun v -> Artifact.sim (name v ^ ".downtime") "ns" v.downtime_ns) vs,
    List.map
      (fun v ->
        Artifact.gate
          (name v ^ ": one clean live copy")
          v.ok
          (Printf.sprintf "host %d live, %d findings, %d leaked frames, split brain %b" v.live_hid
             v.analysis_findings v.leaked_frames v.split_brain))
      vs
    @ [
        Artifact.gate "leak injection caught on live loser hosts" caught
          (Printf.sprintf "%d injected verdicts for %d scenarios, %d with a live loser host" (List.length inj)
             (List.length vs) live_losers);
      ] )

let run () =
  let downtime = run_downtime () in
  let storm = run_storm () in
  let chaos = run_chaos () in
  let parts = [ downtime; storm; chaos ] in
  {
    Artifact.bench = "migration";
    metrics = List.concat_map fst parts;
    gates = List.concat_map snd parts;
  }
