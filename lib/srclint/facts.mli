(** Per-file fact extraction over the compiler-libs AST: everything the
    rule families consume, collected in one iterator pass. *)

type t = {
  module_refs : (string * int) list;
      (** head module of every dotted path, with the first line it
          appears on — deduplicated per head *)
  sink_refs : (string * int) list;  (** raw-memory write sinks, every occurrence *)
  spawn_refs : (string * int) list;  (** [Domain.spawn] references, every occurrence *)
  gate_enters : int list;  (** lines constructing [Probe.Gate_enter] *)
  gate_exits : int list;
  obj_magics : int list;
  assert_falses : int list;
  frame_sweeps : (string * int) list;
      (** [for _ = 0 to ... - 1] loops bounded by
          [Phys_mem.total_frames] (an O(machine) scan where an owner
          index would do) or by [entries_per_table] (512 entry reads
          where [Phys_mem.iter_entries] would do), as (bound, line) *)
}

val write_sinks : string list
(** The [Phys_mem] mutators only the TCB may reach. *)

val extract : Parsetree.structure -> t
