(** Self-hosted source auditor: a static-analysis pass over the repo's
    own OCaml sources enforcing what the compiler cannot: TCB
    write-sink containment, spawn-site containment (no [Domain.spawn]
    anywhere: the simulator runs on one domain), and source hygiene.
    The inter-library DAG is the build's: [dune-project] sets
    [implicit_transitive_deps false].

    {!Source} models the tree (the [lib/*/] directories, the
    [bin/]/[bench/] executable scopes, and compiler-libs ASTs);
    {!Facts} extracts per-file facts; {!Rules} evaluates the rule
    families against their allowlists. *)

module Source = Source
module Facts = Facts
module Rules = Rules

type stats = {
  files : int;
  loc : int;
  libraries : int;  (** scanned directories: each [lib/*/], [bin/], [bench/] *)
  wall_ms : float;
  by_rule : (string * int) list;  (** finding count per rule, all rules that fired *)
}

type scan = { tree : Source.tree; findings : Rules.finding list; stats : stats }

val scan : ?tcb:string list -> root:string -> unit -> scan
(** Parse and audit every [lib/*/*.ml] — plus [bin/*.ml] and
    [bench/*.ml] for the parse-error and spawn-site rules — under
    [root]. *)

val unscanned : scan -> string list
(** Where the scan parsed no file: each scanned directory, and each of
    the [lib], [bin] and [bench] scopes, that holds no [.ml] file the
    front end accepted.  Empty on a complete scan of this repo, and
    never empty on an empty or partial one, whatever the tree's
    size. *)

val find_root : ?from:string -> unit -> string option
val find_root_exn : ?from:string -> unit -> string

val to_findings : Rules.finding list -> Report.Findings.t list
(** Render-ready form, subject = [file:line]. *)

val pp_stats : Format.formatter -> stats -> unit
