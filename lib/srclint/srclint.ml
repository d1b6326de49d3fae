(* Self-hosted source auditor.

   Statically scans the repo's *own* OCaml sources (every lib/*/*.ml,
   plus bin/ and bench/, parsed with compiler-libs) and enforces what
   neither the runtime checkers nor the compiler can: that raw
   physical-memory mutation stays inside the TCB allowlist (the CKI
   security argument), that no file creates a domain, and a hygiene
   family (missing .mli, Obj.magic / assert false in TCB files,
   unpaired Gate_enter/Gate_exit probe emissions, whole-machine frame
   sweeps).

   Every rule is an allowlist; there is no baseline of accepted
   findings.  `cki_demo lint-src` fails on any finding;
   `bench/main.exe srclint --json` tracks scan time and finding counts
   in BENCH_srclint.json. *)

module Source = Source
module Facts = Facts
module Rules = Rules

type stats = {
  files : int;
  loc : int;
  libraries : int;
  wall_ms : float;
  by_rule : (string * int) list;  (** finding count per rule, all rules that fired *)
}

type scan = { tree : Source.tree; findings : Rules.finding list; stats : stats }

let count_by_rule findings =
  List.fold_left
    (fun acc (f : Rules.finding) ->
      let n = Option.value ~default:0 (List.assoc_opt f.Rules.rule acc) in
      (f.Rules.rule, n + 1) :: List.remove_assoc f.Rules.rule acc)
    [] findings
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let scan ?tcb ~root () =
  let t0 = Sys.time () in
  let tree = Source.load_tree ~root in
  let findings = Rules.evaluate ?tcb tree in
  let wall_ms = (Sys.time () -. t0) *. 1000.0 in
  {
    tree;
    findings;
    stats =
      {
        files = List.length tree.Source.files;
        loc = List.fold_left (fun n (f : Source.file) -> n + f.Source.loc) 0 tree.Source.files;
        libraries = List.length tree.Source.dirs;
        wall_ms;
        by_rule = count_by_rule findings;
      };
  }

let unscanned { tree; _ } =
  let parsed_in scope =
    List.exists
      (fun (f : Source.file) ->
        f.Source.parse_error = None
        && (f.Source.dir = scope || String.starts_with ~prefix:(scope ^ "/") f.Source.dir))
      tree.Source.files
  in
  List.sort_uniq String.compare ("lib" :: "bin" :: "bench" :: tree.Source.dirs)
  |> List.filter (fun d -> not (parsed_in d))

let find_root = Source.find_root
let find_root_exn = Source.find_root_exn

let to_findings fs =
  List.map
    (fun (f : Rules.finding) ->
      Report.Findings.make ~severity:f.Rules.severity ~rule:f.Rules.rule
        ~subject:(Printf.sprintf "%s:%d" f.Rules.file f.Rules.line)
        ~detail:f.Rules.detail)
    fs

let pp_stats fmt (s : stats) =
  Format.fprintf fmt "scanned %d files / %d LoC across %d libraries in %.0f ms" s.files s.loc
    s.libraries s.wall_ms
