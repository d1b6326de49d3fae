(** The fleet controller: load balancing, admission control and
    SLO-driven autoscaling over warm clones.

    One tenant = one isolated slice (own machine, host, template pool,
    event loop, vCPU scheduler).  Replicas are warm CoW clones from
    {!Snapshot.Pool.spawn_fast}, each re-verified by the analysis
    scanner before taking traffic; scale-in destroys them with
    {!Cki.Container.destroy}.  With a CPU quota per replica, capacity
    is budget-rate: overload breaches the windowed p99 and scale-out
    genuinely restores the SLO by adding budget.

    Deterministic: every tenant's counters are a pure function of the
    config and its derived seed. *)

type tenant = {
  name : string;
  workload : Ioplane.Serve.workload;
  rate_rps : float;
  requests : int;
  max_inflight : int;  (** admission inflight cap; [max_int] = off *)
  admission_rps : float;  (** admission token rate; [infinity] = off *)
}

val default_tenant : tenant

(** Evacuate host [d_host] once [d_after_requests] arrivals have been
    offered: replacements warm-clone onto the surviving hosts first,
    the doomed replicas drain (no new picks, destroyed when idle) and
    the host's warm pool is evicted. *)
type drain_spec = { d_host : int; d_after_requests : int }

type config = {
  tenants : tenant list;
  balancer : Balancer.policy;
  autoscaler : Autoscaler.config;
  container_cfg : Cki.Config.t;
  cpu_quota : (float * float) option;  (** per-replica (period_ns, budget_ns) *)
  initial_replicas : int;  (** bootstrap fleet size; effective floor is min_replicas *)
  pool_target : int;
  pool_low_water : int;
  io_window : int;
  queue_size : int;
  mem_mib : int;  (** per-tenant machine memory *)
  hosts : int;  (** host slices per tenant (one machine, disjoint id spaces) *)
  drain : drain_spec option;
  seed : int;
}

val default_container_cfg : Cki.Config.t
(** 4 MiB segments, one vCPU: sized so a host carries hundreds of
    replicas. *)

val default_config : config

type spawn_sample = { s_ns : float; s_pool_hit : bool }

type tenant_result = {
  tr_name : string;
  tr_offered : int;
  tr_admitted : int;
  tr_shed : int;
  tr_shed_rate : int;
  tr_shed_inflight : int;
  tr_completed : int;
  tr_mean_us : float;
  tr_p50_us : float;
  tr_p95_us : float;
  tr_p99_us : float;
  tr_windows : int;
  tr_breaches : int;
  tr_scale_outs : int;
  tr_scale_ins : int;
  tr_verify_failures : int;
  tr_peak_replicas : int;
  tr_final_replicas : int;
  tr_spawns : spawn_sample list;
  tr_pool : Snapshot.Pool.stats;
  tr_balancer_picks : int;
  tr_throttle_events : int;
  tr_elapsed_ns : float;
  tr_evacuated : int;  (** draining-host replicas destroyed after going idle *)
  tr_drain_ns : float;  (** drain trigger -> host empty; 0 without drain *)
  tr_p99_before_us : float;  (** p99 of completions before the drain trigger *)
  tr_n_before : int;
  tr_max_during_us : float;  (** max latency over [trigger, trigger + 1 ms) *)
  tr_n_during : int;
  tr_p99_after_us : float;  (** p99 of completions after the draining host emptied *)
  tr_n_after : int;  (** each phase's completion count; all phase fields are 0 without drain *)
}

type result = { tenants : tenant_result list; makespan_ns : float }

val tenant_seed : int -> int -> int
(** Derived per-tenant seed (never 0). *)

val run_tenant : config -> tenant -> seed:int -> tenant_result
(** One tenant's complete serving run on its own machine.  Exposed for
    tests; {!run} is the fleet entry point.
    @raise Invalid_argument on a malformed tenant;
    @raise Failure if the harness cannot converge or a bootstrap
    replica fails verification. *)

val run : config -> result
(** Serve every tenant: {!run_tenant} over [cfg.tenants] in order,
    tenant [i] seeded with [tenant_seed cfg.seed i].  The makespan is
    the tenants' [tr_elapsed_ns] summed in that order. *)

val pp_tenant_result : Format.formatter -> tenant_result -> unit
