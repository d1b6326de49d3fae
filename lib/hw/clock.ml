(* Simulated-time accounting.

   Every latency the simulator charges flows through a [Clock.t]; event
   counters record *why* time was spent so tests can make structural
   assertions ("a PVM page fault performs 6 context switches") and the
   benches can print breakdowns.

   Counters live in flat [counts]/[spent] arrays indexed by the event's
   [Cost] slot, which every clock shares; a clock's arrays start at 64
   slots and at least double when a charge reaches past them.  A charge
   is a bounds check plus two array updates, with no lookup; queries
   find the slot by name and never register one. *)

(* The time sits in a float-only record, stored flat: advancing it
   writes the float in place, where a float field of [t] itself would
   be boxed afresh on every charge. *)
type now = { mutable ns : float }
type t = { now : now; mutable counts : int array; mutable spent : float array }

let create () = { now = { ns = 0.0 }; counts = Array.make 64 0; spent = Array.make 64 0.0 }
let now t = t.now.ns

let grow t i =
  let n = max (i + 1) (2 * Array.length t.counts) in
  let extend a fill = Array.append a (Array.make (n - Array.length a) fill) in
  t.counts <- extend t.counts 0;
  t.spent <- extend t.spent 0.0

let[@inline] add t i ns =
  if i >= Array.length t.counts then grow t i;
  t.now.ns <- t.now.ns +. ns;
  t.counts.(i) <- t.counts.(i) + 1;
  t.spent.(i) <- t.spent.(i) +. ns

let charge t item = add t (Cost.slot item) (Cost.ns item)
let charge_n t item n = add t (Cost.slot item) (float_of_int n *. Cost.ns item)
let charge_sized t item n = add t (Cost.slot item) (Cost.sized item n)

let count t name =
  let i = Cost.slot_of_name name in
  if i >= Array.length t.counts then grow t i;
  t.counts.(i) <- t.counts.(i) + 1

(* Advance time without attributing it to a named event (pure compute). *)
let advance t ns = t.now.ns <- t.now.ns +. ns

let occurrences t name =
  match Cost.find_slot name with Some i when i < Array.length t.counts -> t.counts.(i) | _ -> 0

let spent_on t name =
  match Cost.find_slot name with Some i when i < Array.length t.spent -> t.spent.(i) | _ -> 0.0

(* Run [f] and return its result together with the simulated time it
   consumed. *)
let timed t f =
  let t0 = t.now.ns in
  let r = f () in
  (r, t.now.ns -. t0)

let events t =
  let acc = ref [] in
  Array.iteri (fun i n -> if n > 0 then acc := (Cost.slot_name i, n) :: !acc) t.counts;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !acc

let pp fmt t =
  Format.fprintf fmt "@[<v>clock: %.0f ns@," t.now.ns;
  List.iter
    (fun (e, n) -> Format.fprintf fmt "  %-32s %8d  %12.0f ns@," e n (spent_on t e))
    (events t);
  Format.fprintf fmt "@]"
