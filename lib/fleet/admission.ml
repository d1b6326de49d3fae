(* Per-tenant admission control: a token bucket over the simulated
   clock plus a hard inflight cap.

   An over-subscribed tenant (offered load above its token rate, or
   replies not keeping up with arrivals) sheds at the front door
   instead of growing unbounded queues inside the fabric — the shed
   count is the tenant's overload signal, and a well-behaved tenant
   must shed nothing (the fleet bench asserts exactly that). *)

type t = {
  max_inflight : int;
  rate_rps : float;  (** token refill rate; [infinity] = uncapped *)
  burst : float;  (** bucket capacity *)
  mutable tokens : float;
  mutable last_refill : float;  (** clock ns of the last refill *)
  mutable admitted : int;
  mutable shed_rate : int;  (** refused: token bucket empty *)
  mutable shed_inflight : int;  (** refused: inflight cap reached *)
}

let create ?(max_inflight = max_int) ?(rate_rps = infinity) ~now () =
  if max_inflight < 1 then invalid_arg "Admission.create: max_inflight must be positive";
  if rate_rps <= 0.0 then invalid_arg "Admission.create: rate_rps must be positive";
  (* 10 ms worth of tokens, at least one *)
  let burst = if rate_rps = infinity then infinity else Float.max 1.0 (rate_rps /. 100.0) in
  {
    max_inflight;
    rate_rps;
    burst;
    tokens = burst;
    last_refill = now;
    admitted = 0;
    shed_rate = 0;
    shed_inflight = 0;
  }

let refill t ~now =
  if t.rate_rps < infinity && now > t.last_refill then begin
    t.tokens <- Float.min t.burst (t.tokens +. ((now -. t.last_refill) /. 1e9 *. t.rate_rps));
    t.last_refill <- now
  end

(* Admit or shed one request. Inflight is checked first: a backlogged
   tenant is shed even with tokens to spare. *)
let admit t ~now ~inflight =
  refill t ~now;
  if inflight >= t.max_inflight then begin
    t.shed_inflight <- t.shed_inflight + 1;
    false
  end
  else if t.rate_rps < infinity && t.tokens < 1.0 then begin
    t.shed_rate <- t.shed_rate + 1;
    false
  end
  else begin
    if t.rate_rps < infinity then t.tokens <- t.tokens -. 1.0;
    t.admitted <- t.admitted + 1;
    true
  end

let admitted t = t.admitted
let shed t = t.shed_rate + t.shed_inflight
let shed_rate t = t.shed_rate
let shed_inflight t = t.shed_inflight
