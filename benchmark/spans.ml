(* Host-time spans recorded by the benchmark around its calls into the
   repo's layers.  A span's self time is its duration minus the time
   covered by spans opened inside it.  When disabled, [enter]/[leave]
   return at once, so the untraced run pays one branch per call.

   Spans closed while [recording] is set (the workloads clear it after
   their first 1000 operations) are kept as Chrome trace events, up to
   [chrome_limit] of them. *)

type t = {
  enabled : bool;
  names : string array;
  self_ns : float array;
  calls : int array;
  (* open spans: id, start, time covered by children *)
  stack_id : int array;
  stack_start : float array;
  stack_child : float array;
  mutable depth : int;
  mutable recording : bool;
  mutable events : (int * float * float) list;  (* id, start, duration *)
  mutable n_events : int;
}

let chrome_limit = 200_000
let max_depth = 8

let create ~enabled names =
  let names = Array.of_list names in
  let n = Array.length names in
  {
    enabled;
    names;
    self_ns = Array.make n 0.0;
    calls = Array.make n 0;
    stack_id = Array.make max_depth 0;
    stack_start = Array.make max_depth 0.0;
    stack_child = Array.make max_depth 0.0;
    depth = 0;
    recording = enabled;
    events = [];
    n_events = 0;
  }

let enter t id =
  if t.enabled then begin
    let d = t.depth in
    t.stack_id.(d) <- id;
    t.stack_start.(d) <- Meter.wall_ns ();
    t.stack_child.(d) <- 0.0;
    t.depth <- d + 1
  end

let leave t =
  if t.enabled then begin
    let d = t.depth - 1 in
    let id = t.stack_id.(d) in
    let start = t.stack_start.(d) in
    let dur = Meter.wall_ns () -. start in
    t.self_ns.(id) <- t.self_ns.(id) +. dur -. t.stack_child.(d);
    t.calls.(id) <- t.calls.(id) + 1;
    t.depth <- d;
    if d > 0 then t.stack_child.(d - 1) <- t.stack_child.(d - 1) +. dur;
    if t.recording && t.n_events < chrome_limit then begin
      t.events <- (id, start, dur) :: t.events;
      t.n_events <- t.n_events + 1
    end
  end

let span t id f =
  enter t id;
  let r = f () in
  leave t;
  r

let self_ns t id = t.self_ns.(id)
let calls t id = t.calls.(id)
let stop_recording t = t.recording <- false

(* Chrome trace-event JSON (complete events, microsecond timestamps
   from the first recorded span). *)
let write_chrome t path =
  let origin = List.fold_left (fun a (_, start, _) -> Float.min a start) infinity t.events in
  let ev (id, start, dur) =
    Report.Json.Obj
      [
        ("name", Report.Json.String t.names.(id));
        ("cat", Report.Json.String (List.hd (String.split_on_char '.' t.names.(id))));
        ("ph", Report.Json.String "X");
        ("ts", Report.Json.Float ((start -. origin) /. 1e3));
        ("dur", Report.Json.Float (dur /. 1e3));
        ("pid", Report.Json.Int 1);
        ("tid", Report.Json.Int 1);
      ]
  in
  Report.Json.write_file path
    (Report.Json.Obj
       [
         ("traceEvents", Report.Json.List (List.rev_map ev t.events));
         ("displayTimeUnit", Report.Json.String "ns");
       ])
