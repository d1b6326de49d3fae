(** The rule families over a parsed source tree: trusted-sink, hygiene
    and spawn-site (no [Domain.spawn] anywhere).  The library DAG is
    the build's to enforce, not a rule here. *)

type finding = {
  rule : string;
  severity : Report.Findings.severity;
  file : string;  (** repo-relative .ml path *)
  line : int;
  symbol : string;  (** what fired: a sink, a file, a construct... *)
  detail : string;
}

val default_tcb : string list
(** Files allowed to reach the raw physical-memory write sinks.
    Entries ending in ['/'] cover a directory. *)

val in_tcb : string list -> string -> bool

val evaluate : ?tcb:string list -> Source.tree -> finding list
(** Run every rule family; findings come back ordered by file and
    line, deduplicated per (rule, file, symbol, line). *)
