(* Replica selection for one tenant's lane set.

   [Round_robin] is the baseline; [Pick2_least_loaded] is the
   power-of-two-choices rule — sample two replicas uniformly, route to
   the less loaded — which keeps the max queue within O(log log n) of
   the mean at a fraction of the cost of global least-loaded.  The
   balancer owns its xorshift state, so a fixed seed gives the same
   pick sequence on every run (the controller's determinism across
   domain counts rests on this). *)

type policy = Round_robin | Pick2_least_loaded [@@deriving show { with_path = false }, eq]

type t = {
  policy : policy;
  mutable rng : int;
  mutable cursor : int;  (** next round-robin position *)
  mutable picks : int;
}

let create ?(seed = 0x2545F4914F6CDD1D) policy =
  { policy; rng = (if seed land max_int = 0 then 1 else seed land max_int); cursor = 0; picks = 0 }

let rand t n =
  let x = t.rng in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  t.rng <- x land max_int;
  t.rng mod n

(* Choose a replica index in [0, n). [load i] is replica [i]'s current
   queue depth (inflight requests). *)
let pick t ~load ~n =
  if n < 1 then invalid_arg "Balancer.pick: need at least one replica";
  t.picks <- t.picks + 1;
  match t.policy with
  | Round_robin ->
      let i = t.cursor mod n in
      t.cursor <- (t.cursor + 1) mod n;
      i
  | Pick2_least_loaded ->
      if n = 1 then 0
      else begin
        let a = rand t n in
        let b = rand t n in
        if load b < load a then b else a
      end

let picks t = t.picks
let policy t = t.policy
