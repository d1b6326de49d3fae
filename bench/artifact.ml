(* The one reporting path of the artifact benches.  A bench returns its
   metrics and gates; this module prints them, writes them as
   BENCH_<bench>.json, and validates the written artifacts.

   A metric names its clock: [Sim] values come from the simulation
   (simulated time or a deterministic count) and must be bit-identical
   across runs; [Wall] values are host wall-clock and carry the host's
   noise; [Tree] values count the source tree (files, lines), so they
   move with every source edit and say nothing about a simulated
   result; [Heap] values count host heap words allocated by a fixed
   piece of work, deterministic run after run (a bench files a count
   here only once two invocations give the same value), so a rise is
   an allocation regression.  [n] is the number of observations behind
   the value: the samples a mean, median or percentile was taken over,
   1 for a single count.  A gate is an acceptance check; [validate] fails on any
   false gate, so a bench never exits on its own. *)

type clock = Sim | Wall | Tree | Heap
type metric = { name : string; unit : string; clock : clock; value : float; n : int }
type gate = { gate : string; ok : bool; detail : string }
type t = { bench : string; metrics : metric list; gates : gate list }

let sim ?(n = 1) name unit value = { name; unit; clock = Sim; value; n }
let wall ?(n = 1) name unit value = { name; unit; clock = Wall; value; n }
let count ?n name unit v = sim ?n name unit (float_of_int v)
let tree name unit v = { name; unit; clock = Tree; value = float_of_int v; n = 1 }
let heap ~n name unit value = { name; unit; clock = Heap; value; n }
let gate gate ok detail = { gate; ok; detail }
let clock_name = function Sim -> "sim" | Wall -> "wall" | Tree -> "tree" | Heap -> "heap"

let print t =
  let tbl =
    Report.Table.create ~title:("bench " ^ t.bench) ~header:[ "metric"; "value"; "unit"; "clock"; "n" ]
  in
  List.iter
    (fun m ->
      Report.Table.add_row tbl
        [ m.name; Printf.sprintf "%.6g" m.value; m.unit; clock_name m.clock; string_of_int m.n ])
    t.metrics;
  Report.Table.print tbl;
  List.iter
    (fun g -> Printf.printf "  %-4s %s: %s\n" (if g.ok then "OK" else "FAIL") g.gate g.detail)
    t.gates

let to_json t =
  let open Report.Json in
  Obj
    [
      ("bench", String t.bench);
      ( "metrics",
        List
          (List.map
             (fun m ->
               Obj
                 [
                   ("name", String m.name);
                   ("unit", String m.unit);
                   ("clock", String (clock_name m.clock));
                   ("value", Float m.value);
                   ("n", Int m.n);
                 ])
             t.metrics) );
      ( "gates",
        List
          (List.map
             (fun g -> Obj [ ("gate", String g.gate); ("ok", Bool g.ok); ("detail", String g.detail) ])
             t.gates) );
    ]

let write t =
  let file = "BENCH_" ^ t.bench ^ ".json" in
  Report.Json.write_file file (to_json t);
  Printf.printf "wrote %s\n" file

(* ---------------- validation ---------------- *)

exception Invalid of string

(* Decode one artifact, raising [Invalid] on anything but exactly the
   shape [to_json] writes. *)
let of_json j =
  let invalid fmt = Printf.ksprintf (fun msg -> raise (Invalid msg)) fmt in
  (* An object with exactly [keys], in order, as a field lookup. *)
  let fields what keys = function
    | Report.Json.Obj kvs when List.map fst kvs = keys -> fun k -> List.assoc k kvs
    | _ -> invalid "%s must be an object with fields %s" what (String.concat ", " keys)
  in
  let str what = function Report.Json.String s -> s | _ -> invalid "%s must be a string" what in
  let list what = function Report.Json.List l -> l | _ -> invalid "%s must be a list" what in
  let metric j =
    let f = fields "a metric" [ "name"; "unit"; "clock"; "value"; "n" ] j in
    let name = str "metric name" (f "name") in
    let clock =
      match f "clock" with
      | Report.Json.String "sim" -> Sim
      | Report.Json.String "wall" -> Wall
      | Report.Json.String "tree" -> Tree
      | Report.Json.String "heap" -> Heap
      | _ -> invalid "metric %S: clock must be \"sim\", \"wall\", \"tree\" or \"heap\"" name
    in
    let value =
      match f "value" with
      | Report.Json.Float v when Float.is_finite v -> v
      | Report.Json.Int v -> float_of_int v
      | _ -> invalid "metric %S: value is not a finite number" name
    in
    let n =
      match f "n" with
      | Report.Json.Int n when n >= 1 -> n
      | _ -> invalid "metric %S: n must be an integer >= 1" name
    in
    { name; unit = str "metric unit" (f "unit"); clock; value; n }
  in
  let gate j =
    let f = fields "a gate" [ "gate"; "ok"; "detail" ] j in
    let ok = match f "ok" with Report.Json.Bool b -> b | _ -> invalid "gate ok must be a boolean" in
    { gate = str "gate name" (f "gate"); ok; detail = str "gate detail" (f "detail") }
  in
  let f = fields "the artifact" [ "bench"; "metrics"; "gates" ] j in
  let t =
    {
      bench = str "bench" (f "bench");
      metrics = List.map metric (list "metrics" (f "metrics"));
      gates = List.map gate (list "gates" (f "gates"));
    }
  in
  if t.metrics = [] then invalid "no metrics";
  let rec dup = function a :: (b :: _ as rest) -> if a = b then Some a else dup rest | _ -> None in
  let names = List.sort compare (List.map (fun m -> m.name) t.metrics) in
  Option.iter (invalid "duplicate metric %S") (dup names);
  t

(* Read and decode one artifact file; [Error] says why it is not one. *)
let load f =
  match Report.Json.parse_file f with
  | exception Sys_error e -> Error ("unreadable: " ^ e)
  | Error e -> Error ("malformed JSON: " ^ e)
  | Ok j -> ( match of_json j with exception Invalid msg -> Error msg | t -> Ok t)

(* Validate [files] (every BENCH_*.json in the current directory when
   empty): each must parse, have exactly the artifact shape, at least
   one metric, unique metric names, finite values, n >= 1, no false
   gate, and nothing [check file artifact] objects to.  Prints one line
   per file, per failing gate and per objection; true iff every file
   passes. *)
let validate ~check files =
  let files =
    if files <> [] then files
    else
      Sys.readdir "."
      |> Array.to_list
      |> List.filter (fun f -> String.starts_with ~prefix:"BENCH_" f && Filename.check_suffix f ".json")
      |> List.sort compare
  in
  if files = [] then Printf.printf "validate: no BENCH_*.json in the current directory\n";
  files <> []
  && List.fold_left
       (fun all_ok f ->
         let ok =
           match load f with
           | Error msg ->
               Printf.printf "  %s: %s\n" f msg;
               false
           | Ok t ->
               let failed = List.filter (fun g -> not g.ok) t.gates in
               List.iter (fun g -> Printf.printf "  %s: gate FAILED: %s: %s\n" f g.gate g.detail) failed;
               let objections = check f t in
               List.iter (Printf.printf "  %s: %s\n" f) objections;
               let ok = failed = [] && objections = [] in
               if ok then
                 Printf.printf "  %s: ok (bench %s, %d metrics, %d gates)\n" f t.bench
                   (List.length t.metrics) (List.length t.gates);
               ok
         in
         all_ok && ok)
       true files

(* Compare two artifacts metric by metric.  A [Sim] metric is
   deterministic, so any difference in value or [n], or a metric on one
   side only, is a difference; a metric that is [Heap] on either side
   (a count filed under [Wall] before it had a clock of its own) is a
   difference when it rose, and is printed old -> new when it fell;
   [Wall] metrics are printed as old -> new with their ratio, a metric
   that is [Tree] on either side as old -> new with its change when it
   moved, and neither is judged.  Values are compared as written (6
   significant digits).  Prints one line per difference, per fallen
   heap count, per wall metric and per moved tree count; true iff no
   sim metric differs and no heap count rose. *)
let compare_files old_file new_file =
  match (load old_file, load new_file) with
  | Error msg, _ | _, Error msg ->
      Printf.printf "compare: %s\n" msg;
      false
  | Ok o, Ok n ->
      let find t name = List.find_opt (fun m -> m.name = name) t.metrics in
      let names = List.sort_uniq compare (List.map (fun m -> m.name) (o.metrics @ n.metrics)) in
      let differ = ref 0 in
      List.iter
        (fun name ->
          match (find o name, find n name) with
          | Some a, Some b when a.clock = Heap || b.clock = Heap ->
              if b.value > a.value then begin
                incr differ;
                Printf.printf "  heap %s: %.6g -> %.6g %s rose (%+.6g)\n" name a.value b.value a.unit
                  (b.value -. a.value)
              end
              else if b.value < a.value then
                Printf.printf "  heap %s: %.6g -> %.6g %s fell (%+.6g)\n" name a.value b.value a.unit
                  (b.value -. a.value)
          | Some a, Some b when a.clock = Wall && b.clock = Wall ->
              Printf.printf "  wall %s: %.6g -> %.6g %s (x%.3f)\n" name a.value b.value a.unit
                (b.value /. a.value)
          | Some a, Some b when a.clock = Tree || b.clock = Tree ->
              if not (Float.equal a.value b.value) then
                Printf.printf "  tree %s: %.6g -> %.6g %s (%+.6g)\n" name a.value b.value a.unit
                  (b.value -. a.value)
          | Some a, Some b when a.clock = b.clock && Float.equal a.value b.value && a.n = b.n -> ()
          | Some a, Some b ->
              incr differ;
              Printf.printf "  sim  %s: %s -> %s %s (n %d -> %d)\n" name
                (Report.Json.float_repr a.value) (Report.Json.float_repr b.value) a.unit a.n b.n
          | Some m, None | None, Some m ->
              if m.clock = Sim then incr differ;
              Printf.printf "  %-4s %s: only in %s\n" (clock_name m.clock) name
                (if find o name = None then new_file else old_file)
          | None, None -> ())
        names;
      let counted c = List.length (List.filter (fun m -> m.clock = c) o.metrics) in
      Printf.printf "compare: %d sim metrics and %d heap counts in %s, %d differ or rose\n"
        (counted Sim) (counted Heap) old_file !differ;
      !differ = 0
