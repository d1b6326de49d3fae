(* The warm pool: pre-frozen templates serving spawn_fast.

   Templates are immutable once frozen, so the pool rotates them and
   every spawn_fast is a warm clone.  The stats triple (hits / misses /
   refills) is what the fleet bench gates on: a scale-out burst that
   outruns the low-water refill shows up as misses — cold template
   builds on the spawn path — instead of disappearing into the
   latency.

   Draining is where template lifetime gets subtle: a drained template
   may still back live CoW clones (spawned before the drain, or the
   template is mid-migration), and freeing its shared frames then would
   hand a clone's memory to the next allocation.  [drain] therefore
   destroys only templates with no outstanding references and parks the
   rest on a retired list; [reap_retired] — called from the same idle
   path as [refill_low_water] — frees them once their last clone is
   gone.  [Template.destroy] carries the refcount assertion backing
   this up. *)

type stats = { hits : int; misses : int; refills : int; size : int; served : int }

type t = {
  make : unit -> Template.t;
  target : int;
  low_water : int;
  ready : Template.t Queue.t;
  mutable retired : Template.t list;  (** drained but still referenced by clones *)
  mutable prebooted : int;  (** templates ever built (pre-boot + misses + refills) *)
  mutable served : int;  (** spawn requests served *)
  mutable hits : int;  (** spawns served from a ready template *)
  mutable misses : int;  (** spawns that had to build inline (cold path) *)
  mutable refills : int;  (** templates built by refill_low_water *)
}

let refill_to t n =
  let built = ref 0 in
  while Queue.length t.ready < n do
    Queue.add (t.make ()) t.ready;
    t.prebooted <- t.prebooted + 1;
    incr built
  done;
  !built

let create ?(low_water = 0) ~target ~make () =
  if target < 0 || low_water < 0 || low_water > target then invalid_arg "Pool.create";
  let t =
    {
      make;
      target;
      low_water;
      ready = Queue.create ();
      retired = [];
      prebooted = 0;
      served = 0;
      hits = 0;
      misses = 0;
      refills = 0;
    }
  in
  ignore (refill_to t target);
  t

(* A take rotates rather than consumes: the same template serves an
   unbounded number of clones.  An empty pool is a miss — the cold
   build happens inline, which is exactly what [refill_low_water]
   exists to get ahead of. *)
let take t =
  t.served <- t.served + 1;
  match Queue.take_opt t.ready with
  | Some tpl ->
      t.hits <- t.hits + 1;
      Queue.add tpl t.ready;
      tpl
  | None ->
      let tpl = t.make () in
      t.prebooted <- t.prebooted + 1;
      t.misses <- t.misses + 1;
      Queue.add tpl t.ready;
      tpl

let spawn_fast ?verify t = Template.clone ?verify (take t)

(* The background-refill hook: called from the host's idle path (the
   fleet controller runs it between event-loop rounds), it tops the
   pool back to target once the ready count dips below the low-water
   mark, so a scale-out burst keeps hitting warm templates instead of
   collapsing to the cold build silently. *)
let refill_low_water t =
  if Queue.length t.ready < t.low_water then begin
    let built = refill_to t t.target in
    t.refills <- t.refills + built;
    built
  end
  else 0

let drain t =
  let items = List.of_seq (Queue.to_seq t.ready) in
  Queue.clear t.ready;
  List.iter
    (fun tpl ->
      if Template.in_use tpl then t.retired <- tpl :: t.retired else Template.destroy tpl)
    items;
  List.length items

let reap_retired t =
  let free, busy = List.partition (fun tpl -> not (Template.in_use tpl)) t.retired in
  List.iter Template.destroy free;
  t.retired <- busy;
  List.length free

let retired_count t = List.length t.retired
let size t = Queue.length t.ready
let prebooted t = t.prebooted
let served t = t.served

let stats t =
  { hits = t.hits; misses = t.misses; refills = t.refills; size = size t; served = t.served }
