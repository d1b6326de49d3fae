(* Rendering for analysis findings.  The analysis library produces
   typed violations; here they are already flattened to strings, so the
   report layer stays independent of the checker's vocabulary. *)

type severity = Critical | Warning

let severity_name = function
  | Critical -> "CRITICAL"
  | Warning -> "warning"

type t = {
  severity : severity;
  rule : string;
  subject : string;
  detail : string;
}

let make ~severity ~rule ~subject ~detail = { severity; rule; subject; detail }

let count_sev findings sev = List.length (List.filter (fun f -> f.severity = sev) findings)

let summary = function
  | [] -> "clean"
  | fs ->
      let crit = count_sev fs Critical and warn = count_sev fs Warning in
      let part n what = if n = 0 then [] else [ Printf.sprintf "%d %s" n what ] in
      Printf.sprintf "%d finding%s (%s)" (List.length fs)
        (if List.length fs = 1 then "" else "s")
        (String.concat ", " (part crit "critical" @ part warn "warning"))

let render ~title findings =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "== %s: %s ==\n" title (summary findings));
  (match findings with
  | [] -> ()
  | fs ->
      let w_sev = List.fold_left (fun m f -> max m (String.length (severity_name f.severity))) 0 fs in
      let w_rule = List.fold_left (fun m f -> max m (String.length f.rule)) 0 fs in
      let w_subj = List.fold_left (fun m f -> max m (String.length f.subject)) 0 fs in
      List.iter
        (fun f ->
          Buffer.add_string buf
            (Printf.sprintf "  %-*s  %-*s  %-*s  %s\n" w_sev (severity_name f.severity) w_rule
               f.rule w_subj f.subject f.detail))
        fs);
  Buffer.contents buf
