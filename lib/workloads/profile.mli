(** Shared workload plumbing: deterministic RNG, run records, compute
    charging, and the allocation arena that converts byte-allocation
    streams into demand-faulted page touches. *)

type run = {
  label : string;
  workload : string;
  latency_ns : float;
  throughput : float;
  faults : int;
  syscalls : int;
}

val pp_run : Format.formatter -> run -> unit

(** Deterministic xorshift64* PRNG. *)
module Rng : sig
  type t

  val create : ?seed:int64 -> unit -> t
  val next : t -> int64
  val int : t -> int -> int
  val float : t -> float
end

val compute : Virt.Backend.t -> float -> unit
(** Charge pure application compute on the container clock. *)

val timed : Virt.Backend.t -> (unit -> unit) -> float
(** Simulated time consumed by a thunk. *)

(** An allocation arena: [alloc] demand-faults each fresh page crossed,
    which is how the workload models exercise the page-fault path with
    realistic densities. *)
module Arena : sig
  type t

  val create : Virt.Backend.t -> Kernel_model.Task.t -> t
  val alloc : t -> int -> unit
  val allocated_bytes : t -> int
end
