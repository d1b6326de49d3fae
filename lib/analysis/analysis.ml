(* CKI invariant checker: whole-machine sanitizer + trace lint engine.

   Two independent halves:

     - {!Invariants}: a from-scratch walker over live machine state
       (page tables in simulated physical memory, TLBs, frame
       metadata), cross-checked against the monitor's claimed state;
     - {!Lint}: temporal rules over the event stream a bounded
       [Hw.Probe] ring records from the hook points.

   Integration tests, the examples and `cki_demo --check` run both at
   the end of every scenario; fault-injection tests corrupt state or
   synthesize event sequences and assert each rule fires. *)

module Invariants = Invariants
module Lint = Lint

type result = {
  violations : Invariants.violation list;
  lints : Lint.finding list;
}

let check_machine ~containers = Invariants.check_machine ~containers
let lint_trace ring = Lint.run ~dropped:(Hw.Probe.ring_dropped ring) (Hw.Probe.ring_events ring)

(* Trace_truncated is informational (the ring overflowed; coverage
   is reduced, nothing was violated) — it must not fail --check runs. *)
let fatal_lint = function Lint.Trace_truncated _ -> false | _ -> true

let is_clean r = r.violations = [] && not (List.exists fatal_lint r.lints)

let findings r =
  List.map
    (fun v ->
      let severity =
        match v with
        | Invariants.Maps_declared_ptp _ -> Report.Findings.Warning
        | _ -> Report.Findings.Critical
      in
      Report.Findings.make ~severity ~rule:(Invariants.rule_name v) ~subject:(Invariants.subject v)
        ~detail:(Invariants.show_violation v))
    r.violations
  @ List.map
      (fun f ->
        let severity =
          if fatal_lint f then Report.Findings.Critical else Report.Findings.Info
        in
        Report.Findings.make ~severity ~rule:(Lint.rule_name f) ~subject:(Lint.subject f)
          ~detail:(Lint.show_finding f))
      r.lints

let report ?(title = "CKI invariant check") r = Report.Findings.render ~title (findings r)

let assert_clean ?(label = "analysis") r =
  if not (is_clean r) then failwith (label ^ ": " ^ report ~title:label r)

(* Run [f] with a probe ring as the sink; [f] boots its containers and
   returns them beside its result.  Afterwards sanitize those
   containers' machine state and lint the captured trace. *)
let run (f : unit -> 'a * Cki.Container.t list) : 'a * result =
  let ring = Hw.Probe.ring_create () in
  Hw.Probe.set_ring ring;
  let x, containers = Fun.protect ~finally:Hw.Probe.clear_sink f in
  (x, { violations = check_machine ~containers; lints = lint_trace ring })

let checked ?label f =
  let x, r = run f in
  assert_clean ?label r;
  x
