(* Metric and gate records shared by the workloads, and the result
   line the benchmark ends with. *)

type metric = { name : string; unit_ : string; value : float }
type gate = { gate : string; ok : bool; detail : string }

let metric name unit_ value = { name; unit_; value }
let gate gate ok detail = { gate; ok; detail }

(* What one workload run hands back. *)
type outcome = {
  ops : int;  (** operations completed in the timed phase *)
  attempted : int;
  failed : int;  (** failed or refused operations *)
  timed : Meter.sample;  (** host clocks over the timed phase *)
  chunks : (int * float) list;  (** (operations, CPU seconds) per chunk of the timed phase *)
  setup_s : float;  (** host CPU seconds of one set-up, median over repeats *)
  sim_mean_us : float;  (** simulated latency of a timed operation: mean ... *)
  sim_p95_us : float;  (** ... and 95th percentile *)
  sim : metric list;  (** simulated per-layer metrics, compared across runs *)
  layers : metric list;  (** the other per-layer metrics; host-time replays only when tracing *)
  spans : Spans.t;
  gates : gate list;  (** correctness gates *)
  tail_gates : gate list;  (** every percentile has >= 10 samples beyond it *)
  recheck : unit -> gate list;  (** re-evaluate the gates that read the final state *)
  faults : (string * (unit -> unit)) list;
      (** fault injections into the final state, each with the gate it must flip *)
}

(* The gate that at least 10 of [n] samples lie beyond the nearest-rank
   [p]th percentile: a tail read off a handful of samples is noise. *)
let tail_gate ~what ~n p =
  let beyond = n - int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
  gate
    (Printf.sprintf "%s p%g has >= 10 samples beyond it" what p)
    (beyond >= 10)
    (Printf.sprintf "n=%d, %d beyond" n beyond)

(* Nearest-rank percentile (as [Report.Stats.percentile]) of an array,
   sorted in place: the serving workloads keep half a million latencies,
   which as boxed lists would dominate the process's memory. *)
let percentile ~what samples p =
  Array.sort Float.compare samples;
  let n = Array.length samples in
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
  ((if n = 0 then nan else samples.(max 0 (min (n - 1) (rank - 1)))), tail_gate ~what ~n p)

let mean samples = Array.fold_left ( +. ) 0.0 samples /. float_of_int (Array.length samples)

let at_least what n min = gate (Printf.sprintf "%s >= %d" what min) (n >= min) (Printf.sprintf "%d" n)

(* Bit-level equality of two runs' simulated metrics: the simulated
   side of a run must not depend on tracing, timing or repetition. *)
let same_sim a b =
  List.length a = List.length b
  && List.for_all2
       (fun x y -> x.name = y.name && Int64.equal (Int64.bits_of_float x.value) (Int64.bits_of_float y.value))
       a b

let median xs = Report.Stats.percentile xs ~p:50.0

(* Host operations per CPU-second: the median over the timed phase's chunks. *)
let ops_per_s (o : outcome) = median (List.map (fun (n, s) -> float_of_int n /. s) o.chunks)

(* One-line JSON with every digit of every value. *)
let result_line ~correct ~attempted ~failed metrics =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null" in
  let m =
    String.concat ", "
      (List.map
         (fun x -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (num x.value) x.unit_)
         metrics)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed m
