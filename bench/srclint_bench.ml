(* Source-auditor bench: scan the repo's own tree and track scan wall
   time and finding counts, so the perf trajectory catches both a
   slowing scanner and a finding that slipped in.  The gate needs every
   scanned directory (each lib/*/, bin/, bench/) to contribute a parsed
   file as well as zero findings, so an empty or partial scan cannot
   pass it, whatever the tree's size. *)

let run () =
  let root = Srclint.find_root_exn () in
  let scan = Srclint.scan ~root () in
  let s = scan.Srclint.stats in
  let findings = List.length scan.Srclint.findings in
  let gaps = Srclint.unscanned scan in
  (* trusted-sink is the TCB debt this bench tracks: report it at 0
     rather than let the metric vanish from the artifact. *)
  let by_rule =
    if List.mem_assoc "trusted-sink" s.Srclint.by_rule then s.Srclint.by_rule
    else List.sort compare (("trusted-sink", 0) :: s.Srclint.by_rule)
  in
  {
    Artifact.bench = "srclint";
    metrics =
      [
        Artifact.count "files" "files" s.Srclint.files;
        Artifact.count "loc" "lines" s.Srclint.loc;
        Artifact.count "libraries" "libraries" s.Srclint.libraries;
        Artifact.wall "scan" "ms" s.Srclint.wall_ms;
      ]
      @ List.map (fun (rule, n) -> Artifact.count ("findings." ^ rule) "findings" n) by_rule
      @ [ Artifact.count "findings" "findings" findings ];
    gates =
      [
        Artifact.gate "tree scans clean: every directory parsed, 0 findings"
          (gaps = [] && findings = 0)
          (Printf.sprintf "%d files in %d directories, %d findings%s" s.Srclint.files
             s.Srclint.libraries findings
             (if gaps = [] then "" else "; nothing parsed in " ^ String.concat ", " gaps));
      ];
  }

(* A srclint artifact describes the tree it sits in: [stale file a]
   re-scans the tree above [file] and names each count of [a] that the
   scan contradicts, so an artifact written before later source edits
   fails validation. *)
let stale file (a : Artifact.t) =
  let dir = Filename.dirname file in
  let dir = if Filename.is_relative dir then Filename.concat (Sys.getcwd ()) dir else dir in
  match Srclint.find_root ~from:dir () with
  | None -> [ "no source tree above " ^ dir ]
  | Some root ->
      let s = (Srclint.scan ~root ()).Srclint.stats in
      List.filter_map
        (fun (name, scanned) ->
          match List.find_opt (fun (m : Artifact.metric) -> m.name = name) a.metrics with
          | Some m when m.value = float_of_int scanned -> None
          | Some m ->
              Some (Printf.sprintf "stale: %s is %.0f, the tree scans %d" name m.value scanned)
          | None -> Some (Printf.sprintf "no %s metric" name))
        [ ("files", s.Srclint.files); ("loc", s.Srclint.loc) ]
