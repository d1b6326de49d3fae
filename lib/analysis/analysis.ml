(* CKI invariant checker: whole-machine sanitizer + trace lint engine.

   Two independent halves:

     - {!Invariants}: a from-scratch walker over live machine state
       (page tables in simulated physical memory, TLBs, frame
       metadata), cross-checked against the monitor's claimed state;
     - {!Lint}: temporal rules over the event stream of the
       [Hw.Probe] hook points, stepped as each event is emitted.

   Integration tests, the examples and `cki_demo --check` run both at
   the end of every scenario; fault-injection tests corrupt state or
   synthesize event sequences and assert each rule fires. *)

module Invariants = Invariants
module Lint = Lint

type result = {
  violations : Invariants.violation list;
  lints : Lint.finding list;
  linted : int;
}

let check_machine ~containers = Invariants.check_machine ~containers
let is_clean r = r.violations = [] && r.lints = []

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
        Report.Findings.make ~severity:Report.Findings.Critical ~rule:(Lint.rule_name f)
          ~subject:(Lint.subject f) ~detail:(Lint.show_finding f))
      r.lints

let report ?(title = "CKI invariant check") r = Report.Findings.render ~title (findings r)

let assert_clean ?(label = "analysis") r =
  if not (is_clean r) then failwith (label ^ ": " ^ report ~title:label r)

(* Run [f] with the trace lint as the probe sink; [f] boots its
   containers and returns them beside its result.  Afterwards sanitize
   those containers' machine state and close the lint. *)
let run (f : unit -> 'a * Cki.Container.t list) : 'a * result =
  let lint = Lint.create () in
  Hw.Probe.set_sink (Lint.step lint);
  let x, containers = Fun.protect ~finally:Hw.Probe.clear_sink f in
  ( x,
    { violations = check_machine ~containers; lints = Lint.finish lint; linted = Lint.stepped lint } )

let checked ?label f =
  let x, r = run f in
  assert_clean ?label r;
  x
