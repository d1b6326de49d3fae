(** Source-tree model: repo-root discovery, directory enumeration and
    compiler-libs parsing of every implementation file in each
    [lib/*/] directory and in the executable scopes [bin/] and
    [bench/].  No dune file is read: the build itself enforces the
    library DAG. *)

type file = {
  path : string;  (** repo-relative, forward slashes *)
  dir : string;  (** repo-relative directory, e.g. ["lib/kernel"] or ["bin"] *)
  exe : bool;
      (** executable scope ([bin/], [bench/]): scanned for parse-error
          and spawn-site only *)
  loc : int;  (** physical source lines *)
  has_mli : bool;
  ast : Parsetree.structure;  (** empty when the parse failed *)
  parse_error : (int * string) option;  (** line, message *)
}

type tree = {
  root : string;
  dirs : string list;  (** every scanned directory: each [lib/*/], then [bin], [bench] *)
  files : file list;
}

val find_root : ?from:string -> unit -> string option
(** Walk up from [from] (default: the current directory) to the first
    directory holding both [dune-project] and [lib/].  Works from a
    checkout root and from inside dune's [_build/default] copy. *)

val find_root_exn : ?from:string -> unit -> string

val load_tree : root:string -> tree
(** List every directory under [root]/lib, plus [bin/] and [bench/]
    where present, and parse each of their [.ml] files.  Parse failures
    are captured per-file, not raised. *)
