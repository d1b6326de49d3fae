(* Per-file fact extraction over the compiler-libs AST.

   One [Ast_iterator] pass collects everything the rule families need:
   raw-memory write-sink mentions, [Domain.spawn] references,
   [Gate_enter]/[Gate_exit] constructions, [Obj.magic] /
   [assert false] occurrences, whole-machine frame sweeps. *)

open Asttypes
open Parsetree

type t = {
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

let line_of (loc : Location.t) = loc.Location.loc_start.Lexing.pos_lnum

(* The raw physical-memory mutators.  [Phys_mem] reads are fine
   anywhere (the invariant checker depends on them); these change frame
   contents or frame metadata and are the operations the CKI security
   argument says only the TCB may reach. *)
let write_sinks =
  [
    "write_entry";
    "write_run";
    "write_bytes";
    "clear_table";
    "set_entry_writable";
    "set_kind";
    "set_owner";
    "set_shared_ro";
  ]

let sink_module = "Phys_mem"

(* Domain creation: no file may reach it. *)
let spawn_module = "Domain"

(* ------------------------------------------------------------------ *)
(* Longident classification                                            *)
(* ------------------------------------------------------------------ *)

let sink_of_path parts =
  match List.rev parts with
  | fn :: m :: _ when m = sink_module && List.mem fn write_sinks ->
      Some (String.concat "." parts)
  | _ -> None

let spawn_of_path parts =
  match List.rev parts with
  | "spawn" :: m :: _ when m = spawn_module -> Some (String.concat "." parts)
  | _ -> None

(* `open Hw.Phys_mem` (or an alias of it) makes every sink reachable
   unqualified, which would blind the textual rule — flag the open
   itself.  Same for `open Domain` and [spawn]. *)
let module_access target parts =
  match List.rev parts with
  | m :: _ when m = target -> Some (String.concat "." parts ^ " (module access)")
  | _ -> None

(* ------------------------------------------------------------------ *)
(* The iterator pass                                                   *)
(* ------------------------------------------------------------------ *)

type acc = {
  mutable sinks : (string * int) list;
  mutable spawns : (string * int) list;
  mutable enters : int list;
  mutable exits : int list;
  mutable magics : int list;
  mutable asserts : int list;
  mutable sweeps : (string * int) list;
}

(* A dotted value path [A.B.x] may name a sink or [Domain.spawn]. *)
let value_path acc lid loc =
  let parts = Longident.flatten lid in
  (match sink_of_path parts with
  | Some s -> acc.sinks <- (s, line_of loc) :: acc.sinks
  | None -> ());
  match spawn_of_path parts with
  | Some s -> acc.spawns <- (s, line_of loc) :: acc.spawns
  | None -> ()

(* A module path [A.B] (open, alias, functor argument) may be the sink
   module or [Domain] itself. *)
let module_path acc lid loc =
  let parts = Longident.flatten lid in
  (match module_access sink_module parts with
  | Some s -> acc.sinks <- (s, line_of loc) :: acc.sinks
  | None -> ());
  match module_access spawn_module parts with
  | Some s -> acc.spawns <- (s, line_of loc) :: acc.spawns
  | None -> ()

(* The sweep bound [e] mentions, if any: [Phys_mem.total_frames] (every
   frame of the machine) or [entries_per_table] under any path (every
   slot of a table). *)
let sweep_bound e =
  let found = ref None in
  let open Ast_iterator in
  let expr sub e =
    (match e.pexp_desc with
    | Pexp_ident { txt; _ } -> (
        match List.rev (Longident.flatten txt) with
        | "total_frames" :: m :: _ when m = sink_module -> found := Some "Phys_mem.total_frames"
        | "entries_per_table" :: _ when !found = None -> found := Some "entries_per_table"
        | _ -> ())
    | _ -> ());
    default_iterator.expr sub e
  in
  let iter = { default_iterator with expr } in
  iter.expr iter e;
  !found

let iterate_structure str =
  let acc =
    {
      sinks = [];
      spawns = [];
      enters = [];
      exits = [];
      magics = [];
      asserts = [];
      sweeps = [];
    }
  in
  let open Ast_iterator in
  let expr sub e =
    (match e.pexp_desc with
    | Pexp_ident { txt; loc } -> (
        value_path acc txt loc;
        match Longident.flatten txt with
        | [ "Obj"; "magic" ] -> acc.magics <- line_of loc :: acc.magics
        | _ -> ())
    | Pexp_construct ({ txt; loc }, _) -> (
        match Longident.last txt with
        | "Gate_enter" -> acc.enters <- line_of loc :: acc.enters
        | "Gate_exit" -> acc.exits <- line_of loc :: acc.exits
        | _ -> ())
    | Pexp_assert { pexp_desc = Pexp_construct ({ txt = Longident.Lident "false"; _ }, None); _ }
      ->
        acc.asserts <- line_of e.pexp_loc :: acc.asserts
    | Pexp_for (_, { pexp_desc = Pexp_constant (Pconst_integer ("0", None)); _ }, hi, Upto, _) -> (
        match sweep_bound hi with
        | Some bound -> acc.sweeps <- (bound, line_of e.pexp_loc) :: acc.sweeps
        | None -> ())
    | _ -> ());
    default_iterator.expr sub e
  in
  let module_expr sub m =
    (match m.pmod_desc with
    | Pmod_ident { txt; loc } -> module_path acc txt loc
    | _ -> ());
    default_iterator.module_expr sub m
  in
  let iter = { default_iterator with expr; module_expr } in
  iter.structure iter str;
  acc

(* ------------------------------------------------------------------ *)

let extract (str : Parsetree.structure) : t =
  let acc = iterate_structure str in
  {
    sink_refs = List.rev acc.sinks;
    spawn_refs = List.rev acc.spawns;
    gate_enters = List.rev acc.enters;
    gate_exits = List.rev acc.exits;
    obj_magics = List.rev acc.magics;
    assert_falses = List.rev acc.asserts;
    frame_sweeps = List.rev acc.sweeps;
  }
