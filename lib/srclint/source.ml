(* Source-tree model: find the repo root, list the directories under
   lib/ plus bin/ and bench/, and parse every implementation file with
   the installed compiler's own front end (compiler-libs), so the
   auditor sees the exact AST the build sees — ppx attributes and all
   (attributes parse without running the rewriters; the auditor never
   typechecks).  No dune file is read: the build enforces the library
   DAG itself. *)

type file = {
  path : string;  (** repo-relative, forward slashes *)
  dir : string;  (** repo-relative directory *)
  exe : bool;  (** executable scope ([bin/], [bench/]) *)
  loc : int;  (** physical source lines *)
  has_mli : bool;
  ast : Parsetree.structure;  (** empty when the parse failed *)
  parse_error : (int * string) option;  (** line, message *)
}

type tree = { root : string; dirs : string list; files : file list }

(* ------------------------------------------------------------------ *)
(* Root discovery                                                      *)
(* ------------------------------------------------------------------ *)

(* Walk up from [from] until a directory holding both [dune-project]
   and a [lib/] subdirectory appears.  Works from a checkout root and
   from inside dune's [_build/default] copy of the tree (which is where
   `dune runtest` executes), since dune copies both markers there. *)
let is_dir path = try Sys.is_directory path with Sys_error _ -> false

let find_root ?from () =
  let start = match from with Some d -> d | None -> Sys.getcwd () in
  let is_root dir =
    Sys.file_exists (Filename.concat dir "dune-project") && is_dir (Filename.concat dir "lib")
  in
  let rec go dir =
    if is_root dir then Some dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else go parent
  in
  go start

let find_root_exn ?from () =
  match find_root ?from () with
  | Some r -> r
  | None -> failwith "srclint: no repo root (dune-project + lib/) above the current directory"

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

let count_lines content =
  let lines = ref 0 in
  String.iter (fun c -> if c = '\n' then incr lines) content;
  if String.length content > 0 && content.[String.length content - 1] <> '\n' then incr lines;
  !lines

let parse_impl ~path content =
  let lexbuf = Lexing.from_string content in
  Lexing.set_filename lexbuf path;
  try Ok (Parse.implementation lexbuf)
  with exn ->
    let line =
      match exn with
      | Syntaxerr.Error e -> (Syntaxerr.location_of_error e).Location.loc_start.Lexing.pos_lnum
      | _ -> lexbuf.Lexing.lex_curr_p.Lexing.pos_lnum
    in
    Error (line, Printexc.to_string exn)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------------ *)
(* Tree enumeration                                                    *)
(* ------------------------------------------------------------------ *)

let sorted_dir path = Sys.readdir path |> Array.to_list |> List.sort String.compare

(* Executable directories: parse-error and spawn-site apply there too,
   while the lib-only families (trusted-sink, hygiene) do not. *)
let exe_dirs = [ "bin"; "bench" ]

let load_tree ~root =
  let libdir = Filename.concat root "lib" in
  let lib_dirs =
    if is_dir libdir then
      sorted_dir libdir
      |> List.filter (fun entry -> is_dir (Filename.concat libdir entry))
      |> List.map (fun entry -> "lib/" ^ entry)
    else []
  in
  let dirs = lib_dirs @ List.filter (fun d -> is_dir (Filename.concat root d)) exe_dirs in
  let files =
    List.concat_map
      (fun rel ->
        let dir = Filename.concat root rel in
        sorted_dir dir
        |> List.filter (fun f ->
               (* .pp.ml are ppx-expanded build artifacts, not sources *)
               Filename.check_suffix f ".ml" && not (Filename.check_suffix f ".pp.ml"))
        |> List.map (fun f ->
               let content = read_file (Filename.concat dir f) in
               let path = rel ^ "/" ^ f in
               let ast, parse_error =
                 match parse_impl ~path content with
                 | Ok ast -> (ast, None)
                 | Error e -> ([], Some e)
               in
               {
                 path;
                 dir = rel;
                 exe = List.mem rel exe_dirs;
                 loc = count_lines content;
                 has_mli = Sys.file_exists (Filename.concat dir (Filename.chop_suffix f ".ml" ^ ".mli"));
                 ast;
                 parse_error;
               }))
      dirs
  in
  { root; dirs; files }
