(** The physical machine: memory, CPUs, and the simulated clock every
    component charges. *)

type t

val create : ?cpus:int -> ?mem_mib:int -> unit -> t
(** Defaults: 4 CPUs, 512 MiB. *)

val mem : t -> Phys_mem.t
val clock : t -> Clock.t
val cpu : t -> int -> Cpu.t

val fresh_pcid : t -> int
(** Allocate a fresh PCID; each secure container and the host kernel
    get distinct PCIDs so [invlpg] is confined (Section 4.1). *)
