(** The rule families over a parsed source tree: trusted-sink,
    layering, hygiene and spawn-site (no [Domain.spawn] anywhere). *)

type finding = {
  rule : string;
  severity : Report.Findings.severity;
  file : string;  (** repo-relative; a .ml or a dune file *)
  line : int;
  symbol : string;  (** what fired: a binding, sink, library... *)
  detail : string;
}

type arch = (string * string list) list
(** [lib -> libraries it may reference]: the sanctioned layering DAG as
    an explicit allowlist. *)

val default_arch : arch
(** This repo's architecture:
    [hw <- kernel_model <- virt <- cki <- {analysis, snapshot,
    modelcheck, ioplane, workloads}], with [report] and [srclint] on
    the side. *)

val default_tcb : string list
(** Files allowed to reach the raw physical-memory write sinks.
    Entries ending in ['/'] cover a directory. *)

val in_tcb : string list -> string -> bool

val evaluate : ?arch:arch -> ?tcb:string list -> Source.tree -> finding list
(** Run every rule family; findings come back ordered by file and
    line, deduplicated per (rule, file, symbol, line). *)
