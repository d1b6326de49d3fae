(* lib/migrate: the multi-host fabric, dirty-page tracking, the
   pre-copy engine's convergence and downtime, chaos scenarios, and the
   warm-pool drain-vs-live-clones regression.

   The pinned golden property is snapshot-over-the-wire fidelity: after
   a completed migration, re-capturing the restored target yields an
   image byte-identical to the final stop-and-copy capture of the
   source — the same capture-restore-capture identity the snapshot
   format guarantees, now across hosts. *)

open Alcotest

(* ------------------------------------------------------------------ *)
(* Dirty tracking (Mm level)                                           *)
(* ------------------------------------------------------------------ *)

(* A standalone app on a 1-host fabric; [heap_pages] kept small so the
   tests stay fast. *)
let mk_app ?(heap_pages = 64) () =
  let fab = Migrate.Fabric.create ~hosts:1 () in
  let a = Migrate.Chaos.boot_app ~heap_pages fab ~hid:0 in
  (fab, a)

let mm_of (a : Migrate.Chaos.app) = a.Migrate.Chaos.task.Kernel_model.Task.mm

let shootdown (a : Migrate.Chaos.app) = Migrate.Engine.shootdown a.Migrate.Chaos.container

let touch_page (a : Migrate.Chaos.app) p =
  Kernel_model.Mm.touch (mm_of a)
    (a.Migrate.Chaos.heap + (p * Hw.Addr.page_size))
    ~write:true

let test_dirty_tracking_rounds () =
  let _fab, a = mk_app () in
  let mm = mm_of a in
  let protected_pages = Kernel_model.Mm.dirty_track_start mm ~shootdown:(shootdown a) in
  check bool "epoch protects the resident writable pages" true (protected_pages >= 64);
  check bool "tracking on" true (Kernel_model.Mm.tracking mm);
  check int "log starts empty" 0 (Kernel_model.Mm.dirty_count mm);
  (* Writes fault through the write-protect path and land in the log;
     writing the same page twice logs it once. *)
  touch_page a 3;
  touch_page a 7;
  touch_page a 3;
  check int "two distinct pages logged" 2 (Kernel_model.Mm.dirty_count mm);
  let round1 = Kernel_model.Mm.dirty_track_round mm ~shootdown:(shootdown a) in
  check int "harvest returns the dirty set" 2 (List.length round1);
  check int "harvest resets the log" 0 (Kernel_model.Mm.dirty_count mm);
  (* The harvested pages were re-protected: writing one faults and
     logs again; an untouched page does not reappear. *)
  touch_page a 3;
  let round2 = Kernel_model.Mm.dirty_track_round mm ~shootdown:(shootdown a) in
  check int "only the re-written page returns" 1 (List.length round2);
  let final = Kernel_model.Mm.dirty_track_finish mm in
  check int "quiet final round is empty" 0 (List.length final);
  check bool "tracking off" false (Kernel_model.Mm.tracking mm);
  (* Protections restored: writes no longer log. *)
  touch_page a 11;
  check int "no logging outside an epoch" 0 (Kernel_model.Mm.dirty_count mm)

let test_dirty_tracking_epoch_discipline () =
  let _fab, a = mk_app () in
  let mm = mm_of a in
  ignore (Kernel_model.Mm.dirty_track_start mm ~shootdown:(shootdown a));
  check_raises "double start raises" (Invalid_argument "Mm.dirty_track_start: already tracking")
    (fun () -> ignore (Kernel_model.Mm.dirty_track_start mm ~shootdown:(shootdown a)));
  touch_page a 1;
  let final = Kernel_model.Mm.dirty_track_finish mm in
  check int "finish hands back the unharvested tail" 1 (List.length final)

(* Every vCPU caches the heap's translations through the task's own
   per-vCPU root copy, so a downgrade the epoch does not shoot down
   leaves a stale entry the trace lint can see. *)
let cache_heap (a : Migrate.Chaos.app) =
  let c = a.Migrate.Chaos.container in
  let root = Hw.Int_tbl.find c.Cki.Container.aspaces (Kernel_model.Mm.aspace (mm_of a)) in
  let copies = Option.get (Cki.Ksm.root_copies (Cki.Container.ksm c) root) in
  let mem = Hw.Machine.mem (Cki.Host.machine c.Cki.Container.host) in
  Array.iteri
    (fun i cpu ->
      Hw.Cpu.load_cr3 cpu ~root:copies.(i) ~pcid:(Cki.Container.pcid c);
      let pt = Hw.Page_table.of_root mem copies.(i) in
      for p = 0 to a.Migrate.Chaos.heap_pages - 1 do
        match
          Hw.Cpu.access cpu pt
            ~va:(a.Migrate.Chaos.heap + (p * Hw.Addr.page_size))
            ~access_kind:Hw.Pks.Read ()
        with
        | Ok _ -> ()
        | Error f -> fail (Hw.Cpu.show_fault f)
      done)
    c.Cki.Container.cpus

let missing_shootdowns (r : Analysis.result) =
  List.filter_map
    (function Analysis.Lint.Missing_shootdown { cpu; vpn; _ } -> Some (cpu, vpn) | _ -> None)
    r.Analysis.lints

(* The KSM runs the shootdown hook inside its protect call, page by
   page: the lint must still see a page the hook skips, on every vCPU
   that cached it, and nothing else; with the engine's hook the same
   epoch, and a whole migration, lint clean. *)
let test_lint_guards_batched_shootdown () =
  let skipped = 5 in
  let epoch ~skip =
    Analysis.run (fun () ->
        let _fab, a = mk_app () in
        cache_heap a;
        let skip_va = a.Migrate.Chaos.heap + (skipped * Hw.Addr.page_size) in
        let protected_pages =
          Kernel_model.Mm.dirty_track_start (mm_of a) ~shootdown:(fun va ->
              if not (skip && va = skip_va) then shootdown a va)
        in
        ((protected_pages, Hw.Addr.vpn_of_va skip_va), [ a.Migrate.Chaos.container ]))
  in
  let (protected_pages, skip_vpn), r = epoch ~skip:true in
  check bool "the epoch protects the cached heap" true (protected_pages >= 64);
  check (list (pair int int)) "one missing shootdown per vCPU, for the skipped page"
    [ (0, skip_vpn); (1, skip_vpn) ]
    (List.sort compare (missing_shootdowns r));
  let _, r = epoch ~skip:false in
  check int "the real hook: no missing shootdown" 0 (List.length (missing_shootdowns r));
  check bool "the real hook: lint clean" true (Analysis.is_clean r);
  let outcome, r =
    Analysis.run (fun () ->
        let fab = Migrate.Fabric.create ~hosts:2 () in
        let a = Migrate.Chaos.boot_app ~heap_pages:64 fab ~hid:0 in
        ignore (Migrate.Fabric.expose fab ~name:"svc" ~home:0);
        cache_heap a;
        match
          Migrate.Engine.migrate fab ~src:0 ~dst:1 ~name:"svc" a.Migrate.Chaos.container
            ~work:(Migrate.Chaos.work_of a) Migrate.Engine.default_opts
        with
        | Ok st -> (st.Migrate.Engine.outcome, [ st.Migrate.Engine.live ])
        | Error e -> fail (Migrate.Engine.show_error e))
  in
  check bool "migration completed" true (outcome = Migrate.Engine.Completed);
  check bool "migration with cached heap lints clean" true (Analysis.is_clean r)

(* ------------------------------------------------------------------ *)
(* Fabric                                                              *)
(* ------------------------------------------------------------------ *)

let test_fabric_transfer_syncs_clocks () =
  let fab = Migrate.Fabric.create ~hosts:2 () in
  (* Let the source clock run ahead; the rendezvous drags the target
     clock past it. *)
  Hw.Clock.advance (Migrate.Fabric.clock fab 0) 5_000_000.0;
  let ns =
    match Migrate.Fabric.transfer fab ~src:0 ~dst:1 ~bytes:(1 lsl 20) with
    | Ok ns -> ns
    | Error e -> fail e
  in
  check bool "wire time = latency + bytes/bw" true (ns > 1_000_000.0);
  check (float 1.0) "both ends agree at the rendezvous"
    (Hw.Clock.now (Migrate.Fabric.clock fab 0))
    (Hw.Clock.now (Migrate.Fabric.clock fab 1));
  Migrate.Fabric.partition fab 0 1;
  (match Migrate.Fabric.transfer fab ~src:0 ~dst:1 ~bytes:64 with
  | Ok _ -> fail "partitioned transfer must refuse"
  | Error _ -> ());
  Migrate.Fabric.heal fab 0 1;
  (match Migrate.Fabric.transfer fab ~src:0 ~dst:1 ~bytes:64 with
  | Ok _ -> ()
  | Error e -> fail ("healed transfer refused: " ^ e));
  Migrate.Fabric.crash_host fab 1;
  match Migrate.Fabric.transfer fab ~src:0 ~dst:1 ~bytes:64 with
  | Ok _ -> fail "transfer to a dead host must refuse"
  | Error _ -> ()

let test_fabric_freeze_rehome_replay () =
  let fab = Migrate.Fabric.create ~hosts:2 () in
  ignore (Migrate.Fabric.expose fab ~name:"svc" ~home:0);
  Migrate.Fabric.deliver fab ~name:"svc" (Bytes.of_string "a");
  check int "live delivery lands in the inbox" 1
    (Ioplane.Switch.pending (Migrate.Fabric.endpoint_port fab "svc"));
  check int "delivered counted" 1 (Migrate.Fabric.delivered fab "svc");
  (* The cutover window: frames buffer in order, nothing reaches any
     inbox. *)
  Migrate.Fabric.freeze fab ~name:"svc";
  Migrate.Fabric.deliver fab ~name:"svc" (Bytes.of_string "b");
  Migrate.Fabric.deliver fab ~name:"svc" (Bytes.of_string "c");
  check int "frozen frames buffer" 2 (Migrate.Fabric.buffered fab "svc");
  Migrate.Fabric.rehome fab ~name:"svc" ~to_:1;
  check int "endpoint re-homed" 1 (Migrate.Fabric.endpoint_home fab "svc");
  let replayed = Migrate.Fabric.unfreeze fab ~name:"svc" in
  check int "unfreeze replays the buffer" 2 replayed;
  let port = Migrate.Fabric.endpoint_port fab "svc" in
  check (list string) "replay preserves order into the new inbox" [ "b"; "c" ]
    (List.map Bytes.to_string (Ioplane.Switch.drain port));
  (* A dead home drops (and counts) instead of buffering forever. *)
  Migrate.Fabric.crash_host fab 1;
  Migrate.Fabric.deliver fab ~name:"svc" (Bytes.of_string "d");
  check int "delivery to a dead home is a counted drop" 1 (Migrate.Fabric.dropped fab "svc")

(* ------------------------------------------------------------------ *)
(* Engine: completion, golden re-capture, convergence                  *)
(* ------------------------------------------------------------------ *)

let migrate_app ?(opts = Migrate.Engine.default_opts) ?heap_pages () =
  let fab = Migrate.Fabric.create ~hosts:2 () in
  let a = Migrate.Chaos.boot_app ?heap_pages fab ~hid:0 in
  ignore (Migrate.Fabric.expose fab ~name:"svc" ~home:0);
  match
    Migrate.Engine.migrate fab ~src:0 ~dst:1 ~name:"svc" a.Migrate.Chaos.container
      ~work:(Migrate.Chaos.work_of a) opts
  with
  | Ok st -> (fab, st)
  | Error e -> fail ("migrate: " ^ Migrate.Engine.show_error e)

let test_migration_completes_golden () =
  let fab, st = migrate_app () in
  let open Migrate.Engine in
  check bool "outcome is Completed" true (st.outcome = Completed);
  check int "target host serves" 1 st.live_hid;
  check int "endpoint re-homed to the target" 1 (Migrate.Fabric.endpoint_home fab "svc");
  check int "no source frames leak" 0
    (Migrate.Fabric.owned_frames fab ~hid:st.loser_hid ~container:st.loser_container);
  check int "the restored copy is analysis-clean" 0
    (List.length (Analysis.check_machine ~containers:[ st.live ]));
  (* Golden: re-capturing the target reproduces the final stop-and-copy
     image byte for byte. *)
  let golden = match st.final_image with Some i -> i | None -> fail "no final image" in
  Migrate.Engine.quiesce st.live;
  (match Snapshot.Capture.capture st.live with
  | Error e -> fail ("re-capture: " ^ Snapshot.Capture.show_error e)
  | Ok again ->
      check bool "target re-capture is byte-identical to the final image" true
        (String.equal (Snapshot.Image.encode golden) (Snapshot.Image.encode again)))

let test_precopy_converges_and_beats_stop_and_copy () =
  let _fab, pre = migrate_app () in
  let open Migrate.Engine in
  check bool "dirty rounds ran" true (List.length pre.rounds >= 2);
  let dirties = List.map (fun r -> r.r_dirty) pre.rounds in
  let rec decreasing = function
    | a :: (b :: _ as rest) -> a > b && decreasing rest
    | _ -> true
  in
  check bool "dirty counts strictly decrease" true (decreasing dirties);
  check bool "the epoch converged below the threshold" true pre.converged;
  (* Round caps bound divergence: zero rounds = pure stop-and-copy,
     whose blackout carries the entire image. *)
  let _, sc = migrate_app ~opts:{ default_opts with rounds_max = 0 } () in
  check bool "stop-and-copy ships everything in the blackout" true
    (sc.frames_full > 0 && sc.rounds = []);
  check bool "pre-copy downtime < 10% of stop-and-copy" true
    (pre.downtime_ns < 0.1 *. sc.downtime_ns)

let test_round_cap_fires () =
  (* An aggressive writer never converges; the cap must end pre-copy
     after exactly [rounds_max] rounds with converged = false. *)
  let fab = Migrate.Fabric.create ~hosts:2 () in
  let a = Migrate.Chaos.boot_app ~heap_pages:64 fab ~hid:0 in
  ignore (Migrate.Fabric.expose fab ~name:"svc" ~home:0);
  let storm ~round ~budget_ns:_ = Migrate.Chaos.dirt a ~round ~writes:256 in
  match
    Migrate.Engine.migrate fab ~src:0 ~dst:1 ~name:"svc" a.Migrate.Chaos.container ~work:storm
      { Migrate.Engine.default_opts with Migrate.Engine.rounds_max = 3; converge_frames = 1 }
  with
  | Error e -> fail (Migrate.Engine.show_error e)
  | Ok st ->
      check int "cap bounds the rounds" 3 (List.length st.Migrate.Engine.rounds);
      check bool "cap, not convergence" false st.Migrate.Engine.converged;
      check bool "still completes" true (st.Migrate.Engine.outcome = Migrate.Engine.Completed)

(* A failure after the endpoint froze must leave it serving.  With
   [rounds_max = 0] the first transfer is the final one, which comes
   after the freeze; a partitioned link fails it. *)
let test_failed_migration_unfreezes () =
  let fab = Migrate.Fabric.create ~hosts:2 () in
  let a = Migrate.Chaos.boot_app ~heap_pages:64 fab ~hid:0 in
  ignore (Migrate.Fabric.expose fab ~name:"svc" ~home:0);
  Migrate.Fabric.partition fab 0 1;
  (match
     Migrate.Engine.migrate fab ~src:0 ~dst:1 ~name:"svc" a.Migrate.Chaos.container
       ~work:(Migrate.Chaos.work_of a)
       { Migrate.Engine.default_opts with Migrate.Engine.rounds_max = 0 }
   with
  | Error (Migrate.Engine.Link_down _) -> ()
  | Error e -> fail ("expected a link failure, got " ^ Migrate.Engine.show_error e)
  | Ok _ -> fail "a migration over a partitioned link must fail");
  check bool "endpoint unfrozen" false (Migrate.Fabric.endpoint fab "svc").Migrate.Fabric.ep_frozen;
  Migrate.Fabric.deliver fab ~name:"svc" (Bytes.of_string "after");
  check int "a later frame is delivered" 1 (Migrate.Fabric.delivered fab "svc");
  check int "and not buffered" 0 (Migrate.Fabric.buffered fab "svc")

(* ------------------------------------------------------------------ *)
(* Chaos                                                               *)
(* ------------------------------------------------------------------ *)

let test_chaos_scenarios () =
  List.iter
    (fun (v : Migrate.Chaos.verdict) ->
      let name = Migrate.Chaos.scenario_name v.Migrate.Chaos.scenario in
      check bool (name ^ " leaves one clean live copy") true v.Migrate.Chaos.ok;
      check int (name ^ ": analysis-clean") 0 v.Migrate.Chaos.analysis_findings;
      check int (name ^ ": no leaked frames") 0 v.Migrate.Chaos.leaked_frames;
      check bool (name ^ ": no split brain") false v.Migrate.Chaos.split_brain)
    (Migrate.Chaos.all ());
  (* The winner depends on the failure: a dead source fails over to
     the target's checkpoint; a dead/unreachable target leaves the
     source serving. *)
  let homes =
    List.map (fun (v : Migrate.Chaos.verdict) -> v.Migrate.Chaos.live_hid) (Migrate.Chaos.all ())
  in
  check (list int) "failover lands on the target, aborts keep the source" [ 1; 0; 0 ] homes

let test_chaos_leak_injection_flips () =
  List.iter
    (fun (v : Migrate.Chaos.verdict) ->
      match v.Migrate.Chaos.scenario with
      | Migrate.Chaos.Source_crash ->
          (* The loser host is dead: nothing survives to leak into. *)
          check bool "dead loser cannot leak" true v.Migrate.Chaos.ok
      | Migrate.Chaos.Target_crash | Migrate.Chaos.Partition ->
          check bool "planted frame flips the verdict" false v.Migrate.Chaos.ok;
          check bool "and is attributed as a leak" true (v.Migrate.Chaos.leaked_frames > 0))
    (Migrate.Chaos.all ~leak_inject:true ())

(* ------------------------------------------------------------------ *)
(* Pool drain vs in-flight clones (regression)                         *)
(* ------------------------------------------------------------------ *)

let test_pool_drain_spares_live_clones () =
  let host = Cki.Host.create (Hw.Machine.create ~cpus:2 ~mem_mib:512 ()) in
  let cfg = { Cki.Config.default with Cki.Config.segment_frames = 1024; vcpus = 1 } in
  let pool =
    Snapshot.Pool.create ~target:1
      ~make:(fun () ->
        match Snapshot.Template.create (Cki.Container.create ~cfg host) with
        | Ok t -> t
        | Error e -> fail ("template: " ^ Snapshot.Template.show_error e))
      ()
  in
  let clone =
    match Snapshot.Pool.spawn_fast ~verify:true pool with
    | Ok c -> c
    | Error e -> fail ("spawn: " ^ Snapshot.Template.show_error e)
  in
  (* The regression: draining while the clone still CoW-shares the
     template's frames must retire the template, not destroy it out
     from under the clone. *)
  check int "drain evicts the ready template" 1 (Snapshot.Pool.drain pool);
  check int "in-use template retires instead of dying" 1 (Snapshot.Pool.retired_count pool);
  check int "retired template is not freed while referenced" 0 (Snapshot.Pool.reap_retired pool);
  (* The clone is fully functional over the retired template. *)
  check int "clone is analysis-clean" 0 (List.length (Analysis.check_machine ~containers:[ clone ]));
  Cki.Container.destroy clone;
  check int "last clone death frees the retired template" 1 (Snapshot.Pool.reap_retired pool);
  check int "retired set empty" 0 (Snapshot.Pool.retired_count pool)

let test_template_destroy_refuses_while_referenced () =
  let host = Cki.Host.create (Hw.Machine.create ~cpus:2 ~mem_mib:512 ()) in
  let cfg = { Cki.Config.default with Cki.Config.segment_frames = 1024; vcpus = 1 } in
  let tpl =
    match Snapshot.Template.create (Cki.Container.create ~cfg host) with
    | Ok t -> t
    | Error e -> fail ("template: " ^ Snapshot.Template.show_error e)
  in
  check bool "fresh template is unreferenced" false (Snapshot.Template.in_use tpl);
  let clone =
    match Snapshot.Template.clone ~verify:true tpl with
    | Ok c -> c
    | Error e -> fail ("clone: " ^ Snapshot.Template.show_error e)
  in
  check bool "clone pins the template" true (Snapshot.Template.in_use tpl);
  check_raises "destroy refuses while clones share frames"
    (Invalid_argument "Template.destroy: shared frames still referenced by live clones")
    (fun () -> Snapshot.Template.destroy tpl);
  Cki.Container.destroy clone;
  check bool "last clone death releases the pin" false (Snapshot.Template.in_use tpl);
  Snapshot.Template.destroy tpl

let suite =
  [
    ( "migrate",
      [
        test_case "dirty tracking: rounds drain the write log" `Quick test_dirty_tracking_rounds;
        test_case "dirty tracking: epoch discipline" `Quick test_dirty_tracking_epoch_discipline;
        test_case "dirty tracking: lint sees a skipped shootdown" `Quick
          test_lint_guards_batched_shootdown;
        test_case "fabric: transfer syncs both clocks" `Quick test_fabric_transfer_syncs_clocks;
        test_case "fabric: freeze/rehome/replay" `Quick test_fabric_freeze_rehome_replay;
        test_case "engine: completed migration, golden re-capture" `Quick
          test_migration_completes_golden;
        test_case "engine: pre-copy converges, beats stop-and-copy" `Quick
          test_precopy_converges_and_beats_stop_and_copy;
        test_case "engine: round cap bounds a non-converging writer" `Quick test_round_cap_fires;
        test_case "engine: a failed migration unfreezes the endpoint" `Quick
          test_failed_migration_unfreezes;
        test_case "chaos: every scenario leaves one clean copy" `Quick test_chaos_scenarios;
        test_case "chaos: leak injection is caught" `Quick test_chaos_leak_injection_flips;
        test_case "pool: drain spares live clones (regression)" `Quick
          test_pool_drain_spares_live_clones;
        test_case "template: destroy refuses while referenced" `Quick
          test_template_destroy_refuses_while_referenced;
      ] );
  ]
