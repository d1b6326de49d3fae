(* Simulated-time accounting.

   Every latency the simulator charges flows through a [Clock.t]; event
   counters record *why* time was spent so tests can make structural
   assertions ("a PVM page fault performs 6 context switches") and the
   benches can print breakdowns.

   One storage, keyed by event name: a per-clock hashtable maps each
   name to a slot in flat [names]/[counts]/[spent] arrays, which grow by
   doubling.  A charge is one [Hashtbl.find] plus two array updates;
   queries never create a slot.  Names rather than fixed ids are the
   key because the name set is open: some are built at run time
   ("sys_" ^ syscall), and tests and benches charge and look up ad-hoc
   ones. *)

type t = {
  mutable now_ns : float;
  slots : (string, int) Hashtbl.t;  (** event name -> index into the arrays *)
  mutable names : string array;
  mutable counts : int array;
  mutable spent : float array;
}

let initial_slots = 64

let create () =
  {
    now_ns = 0.0;
    slots = Hashtbl.create initial_slots;
    names = Array.make initial_slots "";
    counts = Array.make initial_slots 0;
    spent = Array.make initial_slots 0.0;
  }

let now t = t.now_ns

let grow t =
  let n = Array.length t.names in
  let extend a fill = Array.append a (Array.make n fill) in
  t.names <- extend t.names "";
  t.counts <- extend t.counts 0;
  t.spent <- extend t.spent 0.0

(* The slot of [event], created (zeroed) on first use. *)
let slot t event =
  match Hashtbl.find t.slots event with
  | i -> i
  | exception Not_found ->
      let i = Hashtbl.length t.slots in
      if i = Array.length t.names then grow t;
      t.names.(i) <- event;
      t.counts.(i) <- 0;
      t.spent.(i) <- 0.0;
      Hashtbl.add t.slots event i;
      i

(* Charge [ns] of simulated time attributed to [event]. *)
let charge t event ns =
  let i = slot t event in
  t.now_ns <- t.now_ns +. ns;
  t.counts.(i) <- t.counts.(i) + 1;
  t.spent.(i) <- t.spent.(i) +. ns

(* Record an event occurrence without advancing time. *)
let count t event =
  let i = slot t event in
  t.counts.(i) <- t.counts.(i) + 1

(* Advance time without attributing it to a named event (pure compute). *)
let advance t ns = t.now_ns <- t.now_ns +. ns

let occurrences t event =
  match Hashtbl.find_opt t.slots event with Some i -> t.counts.(i) | None -> 0

let spent_on t event =
  match Hashtbl.find_opt t.slots event with Some i -> t.spent.(i) | None -> 0.0

(* Slots are zeroed again when re-created, so dropping the index is
   enough. *)
let reset t =
  t.now_ns <- 0.0;
  Hashtbl.reset t.slots

(* Run [f] and return its result together with the simulated time it
   consumed. *)
let timed t f =
  let t0 = t.now_ns in
  let r = f () in
  (r, t.now_ns -. t0)

let events t =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun name i acc -> (name, t.counts.(i)) :: acc) t.slots [])

let pp fmt t =
  Format.fprintf fmt "@[<v>clock: %.0f ns@," t.now_ns;
  List.iter
    (fun (e, n) -> Format.fprintf fmt "  %-32s %8d  %12.0f ns@," e n (spent_on t e))
    (events t);
  Format.fprintf fmt "@]"
