(** Source-tree model: repo-root discovery, dune-library enumeration
    and compiler-libs parsing of every implementation file under
    [lib/], plus the executable scopes [bin/] and [bench/]. *)

type lib = {
  lib_name : string;  (** dune library name, e.g. ["kernel_model"] *)
  lib_dir : string;  (** repo-relative, e.g. ["lib/kernel"] *)
  lib_module : string;  (** wrapped root module, e.g. ["Kernel_model"];
                            [""] for executable scope *)
  lib_deps : string list;  (** the dune [(libraries ...)] field, verbatim *)
  lib_dune : string;  (** repo-relative path of the dune file *)
  lib_exe : bool;
      (** executable scope ([bin/], [bench/]): a pseudo-library carrying
          the dune [(executable ...)] stanzas of one directory, scanned
          for the layering and spawn-site rules only *)
}

type file = {
  path : string;  (** repo-relative, forward slashes *)
  library : lib;
  loc : int;  (** physical source lines *)
  has_mli : bool;
  ast : Parsetree.structure;  (** empty when the parse failed *)
  parse_error : (int * string) option;  (** line, message *)
}

type tree = { root : string; libs : lib list; files : file list }

val find_root : ?from:string -> unit -> string option
(** Walk up from [from] (default: the current directory) to the first
    directory holding both [dune-project] and [lib/].  Works from a
    checkout root and from inside dune's [_build/default] copy. *)

val find_root_exn : ?from:string -> unit -> string

val load_tree : root:string -> tree
(** Enumerate every [(library ...)] under [root]/lib — plus the
    [bin/] and [bench/] executable scopes as pseudo-libraries — and
    parse each of their [.ml] files.  Parse failures are captured
    per-file, not raised. *)
