(* Host-side clocks: process CPU time (the host-speed clock), monotonic
   wall time (to spot descheduling, and for span timing) and the
   process's peak resident set. *)

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let wall_ns () = Int64.to_float (Monotonic_clock.now ())

type sample = { cpu_s : float; wall_s : float }

let measure f =
  let c0 = cpu_s () and w0 = wall_ns () in
  let r = f () in
  (r, { cpu_s = cpu_s () -. c0; wall_s = (wall_ns () -. w0) /. 1e9 })

(* How fast this host's CPU runs right now.  On a shared machine it
   runs slower while neighbours load it, by up to 2x for minutes at a
   time, with wall time still equal to CPU time.  A fixed chain of
   integer multiplies -- no memory traffic, and no repo code, so no
   change to the simulator moves it -- is timed around each run, and
   host times are scaled to its time on a quiet host, [quiet_spin_s].
   It follows clock-speed and CPU-sharing slowdowns, not memory
   contention, so it removes part of the drift, not all of it. *)
let spin_s () =
  let c0 = cpu_s () in
  let x = ref 1 in
  for i = 1 to 50_000_000 do
    x := ((!x * 1103515245) + i) land 0xFFFFFFF
  done;
  ignore (Sys.opaque_identity !x);
  cpu_s () -. c0

(* [spin_s] on the reference machine (a 2-vCPU shared container) when quiet. *)
let quiet_spin_s = 0.084

(* Run [f]; return its result and how much slower than quiet the host
   ran meanwhile, from spin timings before and after. *)
let with_slowdown f =
  let before = spin_s () in
  let r = f () in
  (r, (before +. spin_s ()) /. 2.0 /. quiet_spin_s)

(* A timed phase cut into consecutive chunks of (operations, CPU
   seconds).  A neighbour's burst on a shared machine slows a few
   chunks; the median chunk rate does not follow it. *)
type chunks = { mutable cut : (int * float) list; mutable ops0 : int; mutable cpu0 : float }

let start_chunks () = { cut = []; ops0 = 0; cpu0 = cpu_s () }

(* Close the current chunk at running operation count [ops]. *)
let cut c ~ops =
  let now = cpu_s () in
  c.cut <- (ops - c.ops0, now -. c.cpu0) :: c.cut;
  c.ops0 <- ops;
  c.cpu0 <- now

(* Wall time more than 10% above CPU time: something else had the CPU,
   so host numbers from this phase are suspect. *)
let descheduled s = s.wall_s > 1.1 *. s.cpu_s

(* VmHWM from /proc/self/status, in MiB. *)
let peak_rss_mib () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
            float_of_int kb /. 1024.0)
    | _ -> scan ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan
