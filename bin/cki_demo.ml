(* cki_demo: command-line driver for poking at the CKI reproduction.

     cki_demo policy
     cki_demo serve       [--containers N] [--requests M] [--window W] [--backend B]
                          [--nested] [--workload memcached|redis|nginx|httpd]
                          [--rate R] [--sched] [--fsync-every N]
     cki_demo fleet       [--tenants N] [--rate R] [--requests M] [--slo US]
                          [--max-replicas K] [--quota PCT] [--admission R]
     cki_demo migrate     [--rounds N] [--chaos]
     cki_demo snapshot    [--out FILE]
     cki_demo restore     [--in FILE]
     cki_demo clone       [--clones N] [--warm K]
     cki_demo model-check [--depth N] [--nest N] [--mutants]
     cki_demo lint-src    [--root DIR]

   Every subcommand but policy, model-check and lint-src also takes
   --check.  Each subcommand is a scenario: it prints its own
   output and returns the CKI containers it booted plus its own
   findings, or an error.  [run] turns that into one report and the
   exit code documented in [exits]: 0 ok, 1 usage or scenario error,
   2 findings in a gated run.

   (The paper's tables and figures, each run scanned the same way,
   live in bench/main.exe.) *)

open Cmdliner

let ( let* ) = Result.bind

(* A scenario's result: the CKI containers it booted (what --check
   scans) and its own findings, or why it could not run. *)
type outcome = (Cki.Container.t list * Report.Findings.t list, string) result

let critical ~rule ~subject detail =
  Report.Findings.make ~severity:Report.Findings.Critical ~rule ~subject ~detail

(* The one place a scenario becomes output and an exit code.  [check]
   runs it under Analysis.run (the trace lint as the probe sink, then a
   scan of the containers it returned); the analysis rows and the
   scenario's own rows render as one report, after the number of probe
   events linted.  A [gate]d run exits 2 on any row. *)
let run ~title ~check ~gate (scenario : unit -> outcome) =
  let outcome, analysis =
    if check then
      let outcome, r =
        Analysis.run (fun () ->
            match scenario () with
            | Ok (containers, findings) -> (Ok findings, containers)
            | Error msg -> (Error msg, []))
      in
      Printf.printf "\n[analysis] probe events linted: %d" r.Analysis.linted;
      (outcome, Analysis.findings r)
    else (Result.map snd (scenario ()), [])
  in
  match outcome with
  | Error msg ->
      prerr_endline ("cki_demo: " ^ msg);
      1
  | Ok findings ->
      let rows = analysis @ findings in
      if gate || rows <> [] then Printf.printf "\n%s" (Report.Findings.render ~title rows);
      if gate && rows <> [] then 2 else 0

let policy () =
  List.iter
    (fun inst ->
      Printf.printf "%-14s blocked=%-5b %s\n" (Hw.Priv.mnemonic inst)
        (Hw.Priv.blocked_in_guest inst)
        (Hw.Priv.show_virtualization (Hw.Priv.virtualized_as inst)))
    Hw.Priv.all_examples;
  Ok ([], [])

let serve backend nested containers requests window workload rate sched fsync () =
  let cfg =
    {
      Ioplane.Serve.backend;
      nested;
      containers;
      requests_per_container = requests;
      window;
      workload;
      rate_rps = rate;
      use_sched = sched;
      fsync_every = fsync;
    }
  in
  let r, booted = Ioplane.Serve.run cfg in
  Format.printf "%a@." Ioplane.Serve.pp_result r;
  Ok (booted, [])

(* The fleet controller: per-tenant serving slices with admission
   control, pick-two load balancing and SLO-driven autoscaling over
   warm clones.  Every scale-out clone is re-verified by the analysis
   scanner inside the controller; a verification refusal is a finding
   like any other. *)
let fleet tenants rate requests slo max_replicas quota_pct admission () =
  let mk i =
    {
      Fleet.Controller.default_tenant with
      Fleet.Controller.name = Printf.sprintf "tenant%d" i;
      rate_rps = rate;
      requests;
      admission_rps = (if admission <= 0.0 then infinity else admission);
    }
  in
  let cfg =
    {
      Fleet.Controller.default_config with
      Fleet.Controller.tenants = List.init tenants mk;
      autoscaler =
        {
          Fleet.Autoscaler.default_config with
          Fleet.Autoscaler.slo_p99_us = slo;
          max_replicas;
        };
      cpu_quota =
        (if quota_pct <= 0.0 then None
         else Some (1_000_000.0, quota_pct /. 100.0 *. 1_000_000.0));
    }
  in
  let r = Fleet.Controller.run cfg in
  List.iter (fun tr -> Format.printf "%a@." Fleet.Controller.pp_tenant_result tr) r.Fleet.Controller.tenants;
  Format.printf "makespan %.1f ms (simulated)@." (r.Fleet.Controller.makespan_ns /. 1e6);
  let refused (tr : Fleet.Controller.tenant_result) =
    if tr.tr_verify_failures = 0 then None
    else
      Some
        (critical ~rule:"clone-verify" ~subject:tr.tr_name
           (Printf.sprintf "%d scale-out clones failed re-verification" tr.tr_verify_failures))
  in
  Ok ([], List.filter_map refused r.Fleet.Controller.tenants)

(* One pre-copy migration across a fresh 2-host fabric, then (with
   --chaos) the three failure scenarios plus the leak-injection
   self-test.  A migration must leave exactly one analysis-clean live
   copy and zero frames of the losing copy on the losing host; any
   departure from that is a finding. *)
let migrate rounds chaos () =
  let fab = Migrate.Fabric.create ~hosts:2 () in
  let a = Migrate.Chaos.boot_app fab ~hid:0 in
  ignore (Migrate.Fabric.expose fab ~name:"svc" ~home:0);
  let opts = { Migrate.Engine.default_opts with Migrate.Engine.rounds_max = rounds } in
  let* st =
    Migrate.Engine.migrate fab ~src:0 ~dst:1 ~name:"svc" a.Migrate.Chaos.container
      ~work:(Migrate.Chaos.work_of a) opts
    |> Result.map_error (fun e -> "migration failed: " ^ Migrate.Engine.show_error e)
  in
  let open Migrate.Engine in
  Printf.printf
    "migrated 'svc' host 0 -> host %d: downtime %.0f ns (total %.0f ns)\n\
    \  %d pre-copy rounds (%s), %d full + %d resent frames, %d buffered frames replayed\n"
    st.live_hid st.downtime_ns st.total_ns (List.length st.rounds)
    (if st.converged then "converged" else "round cap")
    st.frames_full st.frames_resent st.replayed;
  let leaked = Migrate.Fabric.owned_frames fab ~hid:st.loser_hid ~container:st.loser_container in
  Printf.printf "  source frames left behind: %d\n" leaked;
  let leaks =
    if leaked = 0 then []
    else
      [
        critical ~rule:"migration-leak" ~subject:"svc"
          (Printf.sprintf "%d frames of the source copy left on host %d" leaked st.loser_hid);
      ]
  in
  let chaos_findings =
    if not chaos then []
    else begin
      Printf.printf "\nchaos scenarios:\n";
      let judge (v : Migrate.Chaos.verdict) =
        let name = Migrate.Chaos.scenario_name v.scenario in
        Printf.printf "  %-12s -> host %d live, %d findings, %d leaked, split brain %s: %s\n" name
          v.live_hid v.analysis_findings v.leaked_frames
          (if v.split_brain then "YES" else "no")
          (if v.ok then "ok" else "VIOLATION");
        if v.ok then None
        else
          Some
            (critical ~rule:"chaos-verdict" ~subject:name
               (Printf.sprintf "%d findings, %d leaked frames, split brain %b" v.analysis_findings
                  v.leaked_frames v.split_brain))
      in
      let violations = List.filter_map judge (Migrate.Chaos.all ()) in
      (* The leak checker must catch a planted frame on a surviving
         loser host (the dead source of Source_crash has nothing left
         to leak). *)
      let caught =
        List.for_all
          (fun (v : Migrate.Chaos.verdict) ->
            if v.scenario = Migrate.Chaos.Source_crash then v.ok
            else (not v.ok) && v.leaked_frames > 0)
          (Migrate.Chaos.all ~leak_inject:true ())
      in
      Printf.printf "  leak injection caught: %s\n" (if caught then "ok" else "VIOLATION");
      if caught then violations
      else violations @ [ critical ~rule:"leak-injection" ~subject:"chaos" "a planted frame went uncaught" ]
    end
  in
  Ok ([ st.live ], leaks @ chaos_findings)

(* A little state worth snapshotting: a task with a dirty heap and a
   config file. *)
let init_workload (c : Cki.Container.t) =
  let b = Cki.Container.backend c in
  let task = Virt.Backend.spawn b in
  (match
     Virt.Backend.syscall_exn b task
       (Kernel_model.Syscall.Mmap { pages = 256; prot = Kernel_model.Vma.prot_rw })
   with
  | Kernel_model.Syscall.Rint base ->
      ignore (Kernel_model.Mm.touch_range task.Kernel_model.Task.mm ~start:base ~pages:256 ~write:true)
  | _ -> assert false);
  match
    Virt.Backend.syscall_exn b task (Kernel_model.Syscall.Open { path = "/app.conf"; create = true })
  with
  | Kernel_model.Syscall.Rint fd ->
      ignore
        (Virt.Backend.syscall_exn b task
           (Kernel_model.Syscall.Write { fd; data = Bytes.of_string "threads=4\n" }))
  | _ -> assert false

(* Flush /app.conf through an I/O plane: the doorbell crosses the
   hypercall gate, the write rides virtio-blk, and the completion comes
   back through the interrupt gate, so a --check run lints gate
   traffic.  The plane is detached afterwards with the queues drained,
   as capture requires. *)
let fsync_config (c : Cki.Container.t) =
  let b = Cki.Container.backend c in
  let kernel = b.Virt.Backend.kernel in
  let loop = Ioplane.Loop.create b.Virt.Backend.clock in
  let att = Ioplane.Loop.attach loop kernel ~name:"app" in
  let task = List.hd (Kernel_model.Kernel.tasks kernel) in
  (match
     Virt.Backend.syscall_exn b task (Kernel_model.Syscall.Open { path = "/app.conf"; create = false })
   with
  | Kernel_model.Syscall.Rint fd ->
      ignore (Virt.Backend.syscall_exn b task (Kernel_model.Syscall.Fsync fd));
      ignore (Virt.Backend.syscall_exn b task (Kernel_model.Syscall.Close fd))
  | _ -> assert false);
  ignore (Ioplane.Loop.service loop att);
  Ioplane.Loop.detach loop att

let snapshot out () =
  let c = Cki.Container.create_standalone ~mem_mib:256 () in
  init_workload c;
  fsync_config c;
  let* image =
    Snapshot.Capture.capture c
    |> Result.map_error (fun e -> "capture failed: " ^ Snapshot.Capture.show_error e)
  in
  Snapshot.Image.write_file out image;
  Printf.printf "captured container to %s: %d tables, %d aux frames, %d tasks\n" out
    (List.length image.Snapshot.Image.tables)
    (Array.length image.Snapshot.Image.aux)
    (List.length image.Snapshot.Image.tasks);
  Ok ([ c ], [])

let restore input () =
  let* image =
    Snapshot.Image.read_file input
    |> Result.map_error (fun e ->
           Printf.sprintf "cannot load %s: %s" input (Snapshot.Image.show_decode_error e))
  in
  let host = Cki.Host.create (Hw.Machine.create ~mem_mib:256 ()) in
  let clock = Hw.Machine.clock (Cki.Host.machine host) in
  match Hw.Clock.timed clock (fun () -> Snapshot.Restore.restore host image) with
  | Error e, _ -> Error ("restore failed: " ^ Snapshot.Restore.show_error e)
  | Ok c, ns ->
      let kernel = c.Cki.Container.backend.Virt.Backend.kernel in
      Printf.printf "restored %s in %.0f simulated ns: %d tasks, %d materialized frames\n" input ns
        (List.length (Kernel_model.Kernel.tasks kernel))
        (Snapshot.Restore.materialized_frames c);
      fsync_config c;
      Ok ([ c ], [])

let clone clones warm () =
  let host = Cki.Host.create (Hw.Machine.create ~mem_mib:512 ()) in
  let clock = Hw.Machine.clock (Cki.Host.machine host) in
  let cfg = { Cki.Config.default with Cki.Config.segment_frames = 16384 } in
  let booted = ref [] in
  let make () =
    let c = Cki.Container.create ~cfg host in
    booted := c :: !booted;
    init_workload c;
    match Snapshot.Template.create c with
    | Ok t -> t
    | Error e -> failwith (Snapshot.Template.show_error e)
  in
  let pool = Snapshot.Pool.create ~target:warm ~make () in
  let rec spawn n total =
    if n = 0 then Ok total
    else
      match Hw.Clock.timed clock (fun () -> Snapshot.Pool.spawn_fast pool) with
      | Ok c, ns ->
          booted := c :: !booted;
          spawn (n - 1) (total +. ns)
      | Error e, _ -> Error ("clone failed: " ^ Snapshot.Template.show_error e)
  in
  let* total = spawn clones 0.0 in
  Printf.printf "warm pool: %d templates prebooted, %d clones served, %.0f simulated ns/clone\n"
    (Snapshot.Pool.prebooted pool) (Snapshot.Pool.served pool)
    (total /. float_of_int clones);
  Ok (!booted, [])

(* ------------------------------------------------------------------ *)
(* Model checking                                                      *)
(* ------------------------------------------------------------------ *)

let model_check depth nest mutants () =
  let config = { Modelcheck.Transition.default_config with depth; nest_bound = nest } in
  let r = Modelcheck.Explore.run_standalone ~config () in
  let s = r.Modelcheck.Explore.stats in
  Printf.printf "explored %d states / %d transitions to depth %d (peak frontier %d) in %.2f s\n"
    s.Modelcheck.Explore.states s.Modelcheck.Explore.transitions
    s.Modelcheck.Explore.depth_reached s.Modelcheck.Explore.peak_frontier
    s.Modelcheck.Explore.elapsed_s;
  List.iter
    (fun cex -> Printf.printf "\n%s" (Modelcheck.Cex.render cex))
    r.Modelcheck.Explore.violations;
  let* () =
    if not mutants then Ok ()
    else begin
      let verdicts = Modelcheck.Mutants.run_all () in
      Printf.printf "\n%s\n" (Modelcheck.Mutants.summary verdicts);
      List.iter
        (fun (v : Modelcheck.Mutants.verdict) ->
          match v.Modelcheck.Mutants.cex with
          | Some cex -> Printf.printf "\n[%s]\n%s" v.Modelcheck.Mutants.mutant.Modelcheck.Mutants.id (Modelcheck.Cex.render cex)
          | None -> ())
        verdicts;
      if Modelcheck.Mutants.all_killed verdicts then Ok ()
      else Error "a seeded mutant survived the model checker"
    end
  in
  Ok ([], Modelcheck.Cex.findings r)

(* ------------------------------------------------------------------ *)
(* Source audits                                                       *)
(* ------------------------------------------------------------------ *)

(* The repo root: [--root], or discovered above the current
   directory. *)
let repo_root = function
  | Some r when Sys.file_exists (Filename.concat r "lib") -> Ok r
  | Some r -> Error (r ^ " is not a repo root (no lib/)")
  | None ->
      Option.to_result (Srclint.find_root ())
        ~none:(Printf.sprintf "no repo root (dune-project + lib/) above %s" (Sys.getcwd ()))

let lint_src root () =
  let* root = repo_root root in
  let scan = Srclint.scan ~root () in
  Format.printf "%a; %d finding(s)@." Srclint.pp_stats scan.Srclint.stats
    (List.length scan.Srclint.findings);
  Ok ([], Srclint.to_findings scan.Srclint.findings)

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let exits =
  [
    Cmd.Exit.info 0 ~doc:"on success.";
    Cmd.Exit.info 1
      ~doc:
        "on a command-line error, or when the scenario cannot run: an unreadable or corrupt \
         snapshot image, a failed capture, restore, clone or migration, no repo root, a \
         or a surviving mutant.";
    Cmd.Exit.info 2
      ~doc:
        "when a gated run ($(b,--check); always for $(b,model-check) and $(b,lint-src)) \
         reports a finding that is not informational.";
  ]

let check_arg =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:
          "After the run, re-walk every booted CKI container's live page tables from raw \
           physical memory, cross-check against the monitor's claimed state, and lint the \
           recorded probe-event trace.  Exits 2 on any finding.")

(* How a subcommand is judged, as (check, gate): a scenario scans and
   gates under --check; an audit always gates on its own findings. *)
let scanned = Term.(const (fun check -> (check, check)) $ check_arg)
let gated = Term.const (false, true)
let ungated = Term.const (false, false)

let subcommand name ~doc judge scenario =
  let judged (check, gate) =
    run ~title:(if check then "CKI invariant check" else name) ~check ~gate
  in
  Cmd.v (Cmd.info name ~exits ~doc) Term.(const judged $ judge $ scenario)

(* An integer of at least [lo]. *)
let at_least lo =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected an integer >= %d, got %S" lo s))
  in
  Arg.conv (parse, Format.pp_print_int)

let backend_arg =
  Arg.(
    value
    & opt (enum (List.map (fun b -> (b, b)) [ "cki"; "runc"; "hvm"; "pvm" ])) "cki"
    & info [ "b"; "backend" ] ~doc:"Backend: cki, runc, hvm, pvm.")

let nested_arg = Arg.(value & flag & info [ "nested" ] ~doc:"Deploy in a nested (IaaS VM) cloud.")

let policy_cmd =
  subcommand "policy" ~doc:"Print the Table 3 privileged-instruction policy." ungated
    (Term.const policy)

let serve_cmd =
  let containers =
    Arg.(value & opt (at_least 1) 4 & info [ "n"; "containers" ] ~doc:"Containers in the fleet.")
  in
  let requests =
    Arg.(value & opt (at_least 1) 100 & info [ "r"; "requests" ] ~doc:"Requests per container.")
  in
  let window =
    Arg.(
      value
      & opt int Ioplane.Serve.default_config.Ioplane.Serve.window
      & info [ "w"; "window" ] ~doc:"EVENT_IDX coalescing window (0 = naive notification).")
  in
  let workload =
    let open Ioplane.Serve in
    let names = [ ("memcached", Kv_memcached); ("redis", Kv_redis); ("nginx", Web_static); ("httpd", Web_httpd) ] in
    Arg.(value & opt (enum names) Kv_memcached & info [ "workload" ] ~doc:"Workload: memcached, redis, nginx, httpd.")
  in
  let rate =
    Arg.(
      value
      & opt float Ioplane.Serve.default_config.Ioplane.Serve.rate_rps
      & info [ "rate" ] ~doc:"Open-loop arrival rate per container (req/s).")
  in
  let sched =
    Arg.(
      value & flag
      & info [ "sched" ]
          ~doc:"Multiplex guest work over preempted vCPU timeslices (cki backend only).")
  in
  let fsync =
    Arg.(
      value & opt int 0
      & info [ "fsync-every" ] ~doc:"kv: append + fsync the log every Nth SET (0 = off).")
  in
  subcommand "serve"
    ~doc:
      "Drive a multi-container fleet through the host I/O plane with an open-loop load \
       generator; reports throughput, p50/p95/p99 latency, and per-request doorbell / \
       interrupt / exit counts."
    scanned
    Term.(
      const serve $ backend_arg $ nested_arg $ containers $ requests $ window $ workload $ rate
      $ sched $ fsync)

let fleet_cmd =
  let tenants =
    Arg.(
      value & opt (at_least 1) 2 & info [ "n"; "tenants" ] ~doc:"Tenants, each an isolated slice.")
  in
  let rate =
    Arg.(value & opt float 30_000.0 & info [ "rate" ] ~doc:"Open-loop arrival rate per tenant (req/s).")
  in
  let requests = Arg.(value & opt int 5_000 & info [ "r"; "requests" ] ~doc:"Requests per tenant.") in
  let slo =
    Arg.(
      value
      & opt float Fleet.Autoscaler.default_config.Fleet.Autoscaler.slo_p99_us
      & info [ "slo" ] ~doc:"p99 latency SLO in microseconds; a windowed breach scales out.")
  in
  let max_replicas =
    Arg.(
      value
      & opt int Fleet.Autoscaler.default_config.Fleet.Autoscaler.max_replicas
      & info [ "max-replicas" ] ~doc:"Autoscaler ceiling per tenant.")
  in
  let quota =
    Arg.(
      value & opt float 10.0
      & info [ "quota" ] ~doc:"Per-replica CPU budget as a percentage (cpu.max); 0 = uncapped.")
  in
  let admission =
    Arg.(
      value & opt float 0.0
      & info [ "admission" ] ~doc:"Per-tenant admission token rate (req/s); 0 = off.")
  in
  subcommand "fleet"
    ~doc:
      "Serve an open-loop multi-tenant fleet through the fleet controller: pick-two load \
       balancing, token-bucket admission control, and SLO-driven autoscaling that scales out \
       with analysis-verified warm clones and scales idle replicas back in."
    scanned
    Term.(
      const fleet $ tenants $ rate $ requests $ slo $ max_replicas $ quota $ admission)

let migrate_cmd =
  let rounds =
    Arg.(
      value
      & opt int Migrate.Engine.default_opts.Migrate.Engine.rounds_max
      & info [ "rounds" ] ~doc:"Pre-copy round cap (0 = pure stop-and-copy).")
  in
  let chaos =
    Arg.(
      value & flag
      & info [ "chaos" ]
          ~doc:
            "Also run the failure scenarios — source crash mid-round, target crash before \
             cutover, fabric partition — plus the frame-leak-injection self-test; each must \
             leave exactly one analysis-clean live copy.")
  in
  subcommand "migrate"
    ~doc:
      "Live-migrate a container between two fabric hosts with iterative pre-copy dirty \
       tracking: rounds of dirty-frame sends while the source serves, a bounded stop-and-copy, \
       analysis re-verification before cutover, and atomic endpoint re-homing with \
       buffered-traffic replay."
    scanned
    Term.(const migrate $ rounds $ chaos)

let snapshot_cmd =
  let out =
    Arg.(value & opt string "container.ckisnap" & info [ "o"; "out" ] ~doc:"Output image file.")
  in
  subcommand "snapshot"
    ~doc:"Boot a container, run an init workload, and capture it to an image file." scanned
    Term.(const snapshot $ out)

let restore_cmd =
  let input =
    Arg.(value & opt string "container.ckisnap" & info [ "i"; "in" ] ~doc:"Input image file.")
  in
  subcommand "restore"
    ~doc:
      "Restore a container from an image file onto a fresh machine, relocating its hPA segment; \
       the result is re-verified with the invariant scanner."
    scanned
    Term.(const restore $ input)

let clone_cmd =
  let clones = Arg.(value & opt (at_least 1) 4 & info [ "n"; "clones" ] ~doc:"Clones to spawn.") in
  let warm = Arg.(value & opt int 1 & info [ "w"; "warm" ] ~doc:"Templates to pre-boot.") in
  subcommand "clone"
    ~doc:"Pre-boot frozen templates into a warm pool and serve CoW clones from it." scanned
    Term.(const clone $ clones $ warm)

let model_check_cmd =
  let depth =
    Arg.(
      value
      & opt int Modelcheck.Transition.default_config.Modelcheck.Transition.depth
      & info [ "d"; "depth" ] ~doc:"BFS depth bound, in transitions.")
  in
  let nest =
    Arg.(
      value
      & opt int Modelcheck.Transition.default_config.Modelcheck.Transition.nest_bound
      & info [ "nest" ] ~doc:"Max in-flight PKS-switch deliveries per vCPU.")
  in
  let mutants =
    Arg.(
      value & flag
      & info [ "mutants" ]
          ~doc:
            "Also run the mutation harness: each seeded policy mutant must be killed with a \
             counterexample; a survivor exits 1.")
  in
  subcommand "model-check"
    ~doc:
      "Exhaustively explore the bounded privilege state space of a CKI container, checking the \
       E1-E4/gate safety properties on every reachable state and edge.  Exits 2 when a \
       counterexample is found (rendered as a shortest violating trace)."
    gated
    Term.(const model_check $ depth $ nest $ mutants)

let root_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "root" ] ~doc:"Repo root to audit (default: discovered from the current directory).")

let lint_src_cmd =
  subcommand "lint-src"
    ~doc:
      "Statically audit the repo's own OCaml sources: raw memory write sinks outside the TCB \
       allowlist, any Domain.spawn (the simulator runs on one domain), and hygiene (missing \
       .mli, Obj.magic / assert false in TCB files, unpaired gate probes).  Exits 2 on any \
       finding."
    gated
    Term.(const lint_src $ root_arg)

let () =
  let doc = "CKI (EuroSys'25) reproduction demo driver" in
  let cmd =
    Cmd.group (Cmd.info "cki_demo" ~doc ~exits)
      [
        policy_cmd;
        serve_cmd;
        fleet_cmd;
        migrate_cmd;
        snapshot_cmd;
        restore_cmd;
        clone_cmd;
        model_check_cmd;
        lint_src_cmd;
      ]
  in
  exit
    (match Cmd.eval_value cmd with
    | Ok (`Ok code) -> code
    | Ok (`Help | `Version) -> 0
    | Error (`Parse | `Term) -> 1
    | Error `Exn -> Cmd.Exit.internal_error)
