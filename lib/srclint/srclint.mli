(** Self-hosted source auditor: a static-analysis pass over the repo's
    own OCaml sources enforcing TCB write-sink containment, the
    inter-library layering DAG, spawn-site containment (no
    [Domain.spawn] anywhere: the simulator runs on one domain), and
    source hygiene.

    {!Source} models the tree (dune libraries, the [bin/]/[bench/]
    executable scopes, and compiler-libs ASTs); {!Facts} extracts
    per-file facts; {!Rules} evaluates the rule families against their
    allowlists. *)

module Source = Source
module Facts = Facts
module Rules = Rules

type stats = {
  files : int;
  loc : int;
  libraries : int;
  wall_ms : float;
  by_rule : (string * int) list;  (** finding count per rule, all rules that fired *)
}

type scan = { tree : Source.tree; findings : Rules.finding list; stats : stats }

val scan : ?arch:Rules.arch -> ?tcb:string list -> root:string -> unit -> scan
(** Parse and audit every [lib/**/*.ml] — plus [bin/*.ml] and
    [bench/*.ml] for the layering and spawn-site rules — under
    [root]. *)

val find_root : ?from:string -> unit -> string option
val find_root_exn : ?from:string -> unit -> string

val to_findings : Rules.finding list -> Report.Findings.t list
(** Render-ready form, subject = [file:line]. *)

val pp_stats : Format.formatter -> stats -> unit
