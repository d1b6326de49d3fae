(** Multi-container traffic-serving harness (Figure 16 shape).

    An open-loop memtier-style load generator drives N containers of
    one backend through the software switch. Requests arrive on a fixed
    schedule regardless of fleet progress, so latency percentiles
    include queueing delay. Each run reports throughput, p50/p95/p99
    latency, and per-request doorbell / interrupt / exit counts. *)

type workload = Kv_memcached | Kv_redis | Web_static | Web_httpd

val pp_workload : Format.formatter -> workload -> unit
val show_workload : workload -> string
val equal_workload : workload -> workload -> bool
val workload_name : workload -> string

(** One container's lane through the I/O plane: a backend wired to the
    event loop, its client switch port, a workload-specific request
    encoder, and completion bookkeeping.  The serve harness drives a
    fixed set of lanes; {!Fleet.Controller} attaches and detaches them
    dynamically as it scales. *)
module Lane : sig
  type t

  val attach :
    loop:Loop.t ->
    workload:workload ->
    ?fsync_every:int ->
    ?queue_size:int ->
    ?window:int ->
    rand:(int -> int) ->
    name:string ->
    Virt.Backend.t ->
    t
  (** Wire a backend into [loop]: configure its virtio queues, attach
      it, create + connect the client port, and boot the workload
      server.  [rand] draws request keys — the caller owns the RNG, so
      determinism policy (shared vs per-lane streams) stays with the
      harness. *)

  val send : t -> ts:float -> unit
  (** Inject one request, stamped with its scheduled arrival time [ts]
      for end-to-end latency accounting. *)

  val pump : ?submit:((unit -> unit) -> unit) -> t -> int
  (** Deliver inbound frames into the guest and run one request handler
      per frame — inline, or handed to [submit] (vCPU-scheduler work
      injection). Returns frames delivered. *)

  val reap : t -> float list
  (** Drain completed replies; returns their arrival timestamps
      (end-to-end latency = now - ts). *)

  val inflight : t -> int
  (** Requests sent but not yet reaped. *)

  val sent : t -> int
  val completed : t -> int
  val backend : t -> Virt.Backend.t
  val attachment : t -> Loop.attachment

  val detach : t -> unit
  (** Unplug from the event loop and unlink both switch ports (frames
      aimed at a dead lane count as switch drops). Idempotent; the
      backend itself is the caller's to destroy. *)
end

type config = {
  backend : string;  (** runc | hvm | pvm | cki *)
  nested : bool;
  containers : int;
  requests_per_container : int;
  window : int;  (** EVENT_IDX batch window; 0 = naive *)
  rate_rps : float;  (** open-loop arrival rate per container *)
  workload : workload;
  use_sched : bool;  (** multiplex guest work over Vcpu_sched slices (cki only) *)
  fsync_every : int;  (** kv: log-append + fsync every Nth SET; 0 = off *)
}

val default_config : config

type result = {
  r_backend : string;
  r_label : string;
  r_workload : string;
  r_containers : int;
  r_requests : int;
  r_window : int;
  r_throughput_rps : float;
  r_mean_us : float;
  r_p50_us : float;
  r_p95_us : float;
  r_p99_us : float;
  r_doorbells : int;
  r_suppressed_kicks : int;
  r_interrupts : int;
  r_exits : int;
  r_doorbells_per_req : float;
  r_interrupts_per_req : float;
  r_exits_per_req : float;
  r_tx_stalls : int;
  r_switch_forwarded : int;
  r_blk_writes : int;
  r_service_passes : int;
  r_wall_ns : float;  (** simulated time the throughput is computed over *)
}

val exit_events : string -> string list
(** Clock event names that count as privilege-boundary exits for a
    backend (empty for runc). *)

val run : config -> result * Cki.Container.t list
(** Build the fleet, serve every request, and collect counters. The
    returned containers (cki backend only) let callers run the
    whole-machine invariant checker over the final state.

    All containers share one machine, one clock and one event loop, so
    latencies couple through the loop. *)

val pp_result : Format.formatter -> result -> unit
