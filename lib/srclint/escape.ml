(* Interprocedural domain-escape analysis: the static half of the
   domain-race sanitizer.

   Finds every [Domain.spawn] site in the tree and computes which
   mutable values — refs, arrays, Bigarrays, hashtables, mutable
   records, whether local [let]s or module-toplevel bindings in any
   scanned file — are reachable from the spawned closure, following
   local helper functions and calls into toplevel functions of this or
   other libraries (a def/use + call-graph fixpoint over parsetrees;
   no typechecker).  A reachable mutable escapes its spawning domain
   and is reported unless a sanctioned form covers it:

   - [Atomic.t] values are never classified mutable in the first place
     ({!Facts.mutable_kind});
   - a binding annotated [@@domain_shared "reason"] is blessed — the
     author promises the sharing discipline (and the dynamic checker,
     [Analysis.Racecheck], holds them to it);
   - a local binding whose every direct use inside the closure sits
     under [Mutex.protect] is lock-guarded;
   - a local binding handed wholesale to a single, non-replicated
     spawn — its only uses in scope are inside that one closure — is a
     transfer, not sharing.

   A spawn site is *replicated* when it executes more than once per
   evaluation of its scope: inside [for]/[while] bodies or closure
   arguments of [Array]/[List]/[Seq] combinators.  A local mutable
   captured there is shared between sibling domains even if the parent
   never touches it again.  [@@single_domain] does NOT sanction an
   escape: it asserts single-domain use, which a spawn capture
   contradicts.

   The analysis also owns the [@@domain_shared] annotation ledger:
   every annotation in the tree is collected (toplevel and local
   [let]s), ones that never sanctioned anything are reported stale,
   ones without a reason string undocumented — same contract as the
   baseline file.

   Known approximations, all deliberate for a linter: scoping inside a
   closure is name-based (a capture shadowed deep inside the closure is
   dropped — a false negative, never a false positive); toplevel
   bindings inside nested [module] structures are not in the resolver;
   values smuggled through function arguments (e.g. the lane callback
   [Hw.Domain_shard.run] receives) are not tracked — which is exactly
   why the repo keeps ONE blessed spawn site and checks the rest
   dynamically. *)

open Parsetree

type escape = {
  e_file : string;  (** file containing the spawn site *)
  e_line : int;  (** line of the [Domain.spawn] application *)
  e_name : string;  (** the escaping binding *)
  e_kind : string;  (** what makes it mutable, e.g. ["ref"] *)
  e_def_file : string;
  e_def_line : int;
  e_via : string option;  (** the call/path the value was reached through *)
}

type shared_annot = {
  s_file : string;
  s_name : string;
  s_line : int;
  s_reason : (string, unit) result;  (** [Error ()]: payload missing or empty *)
  mutable s_used : bool;  (** did the annotation sanction anything? *)
}

type result = { escapes : escape list; shared_annots : shared_annot list }

let line_of = Facts.line_of

(* ------------------------------------------------------------------ *)
(* Generic AST helpers                                                 *)
(* ------------------------------------------------------------------ *)

(* Immediate sub-expressions of a node, one level down: run the default
   traversal of [e] with an expression hook that collects instead of
   recursing. *)
let sub_exprs e =
  let acc = ref [] in
  let iter =
    { Ast_iterator.default_iterator with expr = (fun _ e -> acc := e :: !acc) }
  in
  Ast_iterator.default_iterator.expr iter e;
  List.rev !acc

(* Every identifier occurrence in a subtree: bare names and dotted
   paths, separately. *)
let idents_of e =
  let bare = ref [] and dotted = ref [] in
  let open Ast_iterator in
  let expr sub ex =
    (match ex.pexp_desc with
    | Pexp_ident { txt = Longident.Lident n; _ } -> bare := n :: !bare
    | Pexp_ident { txt; _ } -> (
        match Longident.flatten txt with
        | _ :: _ :: _ as parts -> dotted := parts :: !dotted
        | _ -> ())
    | _ -> ());
    default_iterator.expr sub ex
  in
  let iter = { default_iterator with expr } in
  iter.expr iter e;
  (!bare, !dotted)

(* Every name bound by a pattern in the subtree (fun params, let and
   match patterns). *)
let bound_names e =
  let acc = ref [] in
  let open Ast_iterator in
  let pat sub p =
    (match p.ppat_desc with
    | Ppat_var { txt; _ } -> acc := txt :: !acc
    | Ppat_alias (_, { txt; _ }) -> acc := txt :: !acc
    | _ -> ());
    default_iterator.pat sub p
  in
  let iter = { default_iterator with pat } in
  iter.expr iter e;
  !acc

(* The closure's free names: identifiers used but not bound anywhere
   inside it.  Name-based, so an inner shadow drops the outer capture —
   a conservative miss. *)
let free_names e =
  let bare, dotted = idents_of e in
  let bound = bound_names e in
  ( List.sort_uniq String.compare (List.filter (fun n -> not (List.mem n bound)) bare),
    List.sort_uniq compare dotted )

let pat_names p =
  let acc = ref [] in
  let open Ast_iterator in
  let pat sub q =
    (match q.ppat_desc with
    | Ppat_var { txt; _ } -> acc := txt :: !acc
    | Ppat_alias (_, { txt; _ }) -> acc := txt :: !acc
    | _ -> ());
    default_iterator.pat sub q
  in
  let iter = { default_iterator with pat } in
  iter.pat iter p;
  !acc

let ident_uses name e =
  let n = ref 0 in
  let open Ast_iterator in
  let expr sub ex =
    (match ex.pexp_desc with
    | Pexp_ident { txt = Longident.Lident m; _ } when m = name -> incr n
    | _ -> ());
    default_iterator.expr sub ex
  in
  let iter = { default_iterator with expr } in
  iter.expr iter e;
  !n

let path_rev fn =
  match fn.pexp_desc with
  | Pexp_ident { txt; _ } -> List.rev (Longident.flatten txt)
  | _ -> []

(* Is every occurrence of [name] inside [e] under a [Mutex.protect]
   argument? *)
let mutex_guarded name e =
  let naked = ref false in
  let is_mutex fn =
    match path_rev fn with "protect" :: "Mutex" :: _ -> true | _ -> false
  in
  let rec scan guarded e =
    match e.pexp_desc with
    | Pexp_ident { txt = Longident.Lident m; _ } when m = name ->
        if not guarded then naked := true
    | Pexp_apply (fn, args) ->
        let g = guarded || is_mutex fn in
        scan guarded fn;
        List.iter (fun (_, a) -> scan g a) args
    | _ -> List.iter (scan guarded) (sub_exprs e)
  in
  scan false e;
  not !naked

(* ------------------------------------------------------------------ *)
(* Global tables: toplevel bindings of every scanned file              *)
(* ------------------------------------------------------------------ *)

(* Keys are (repo-relative file, binding name). *)
module Key = struct
  type t = string * string

  let compare = compare
end

module KS = Set.Make (Key)

type ginfo =
  | Gmut of { kind : string; line : int; shared : shared_annot option }
      (** toplevel mutable state *)
  | Gfun of expression
      (** any other toplevel binding: a function (or a partial
          application closing over something) whose body contributes
          def/use and call edges *)

let record_annot annots ~file ~name ~line vb =
  match Facts.annotation_reason "domain_shared" vb with
  | None -> None
  | Some reason ->
      let a = { s_file = file; s_name = name; s_line = line; s_reason = reason; s_used = false } in
      annots := a :: !annots;
      Some a

let build_globals annots (tree : Source.tree) =
  let globals : (Key.t, ginfo) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun (file : Source.file) ->
      let record_types = Facts.record_types_of file.Source.ast in
      List.iter
        (fun si ->
          match si.pstr_desc with
          | Pstr_value (_, vbs) ->
              List.iter
                (fun vb ->
                  match Facts.binding_name vb with
                  | None -> ()
                  | Some name ->
                      let line = line_of vb.pvb_loc in
                      let shared =
                        record_annot annots ~file:file.Source.path ~name ~line vb
                      in
                      let info =
                        match Facts.mutable_kind record_types vb.pvb_expr with
                        | Some kind -> Gmut { kind; line; shared }
                        | None -> Gfun vb.pvb_expr
                      in
                      Hashtbl.replace globals (file.Source.path, name) info)
                vbs
          | _ -> ())
        file.Source.ast)
    tree.Source.files;
  globals

(* ------------------------------------------------------------------ *)
(* Path resolution                                                     *)
(* ------------------------------------------------------------------ *)

(* Map a dotted path seen in [file] to a (file, name) key: [M.x] is a
   sibling module of the same library or another library's root
   module; [L.M.x] crosses into library [L]'s module [M].  Stdlib and
   external paths resolve to nothing. *)
let resolver (tree : Source.tree) =
  let have = Hashtbl.create 256 in
  List.iter (fun (f : Source.file) -> Hashtbl.replace have f.Source.path ()) tree.Source.files;
  let lib_of_module m =
    List.find_opt
      (fun (l : Source.lib) -> l.Source.lib_module = m && l.Source.lib_module <> "")
      tree.Source.libs
  in
  let file_in dir m = dir ^ "/" ^ String.uncapitalize_ascii m ^ ".ml" in
  fun (file : Source.file) parts ->
    match List.rev parts with
    | name :: mods_rev -> (
        match List.rev mods_rev with
        | [ m ] -> (
            let sibling = file_in file.Source.library.Source.lib_dir m in
            if Hashtbl.mem have sibling then Some (sibling, name)
            else
              match lib_of_module m with
              | Some l ->
                  let rootml = file_in l.Source.lib_dir l.Source.lib_name in
                  if Hashtbl.mem have rootml then Some (rootml, name) else None
              | None -> None)
        | [ l; m ] -> (
            match lib_of_module l with
            | Some l ->
                let target = file_in l.Source.lib_dir m in
                if Hashtbl.mem have target then Some (target, name) else None
            | None -> None)
        | _ -> None)
    | [] -> None

(* ------------------------------------------------------------------ *)
(* Call-graph fixpoint: mutable globals transitively reachable from    *)
(* each toplevel function                                              *)
(* ------------------------------------------------------------------ *)

let build_reach globals resolve (tree : Source.tree) =
  (* Per-function summaries: directly-used mutable globals and called
     globals, with local names kept out by [free_names]. *)
  let summaries : (Key.t, KS.t * Key.t list) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun (file : Source.file) ->
      Hashtbl.iter
        (fun (path, name) info ->
          match info with
          | Gfun body when path = file.Source.path ->
              let bare, dotted = free_names body in
              let muts = ref KS.empty and calls = ref [] in
              let classify key =
                match Hashtbl.find_opt globals key with
                | Some (Gmut _) -> muts := KS.add key !muts
                | Some (Gfun _) -> calls := key :: !calls
                | None -> ()
              in
              List.iter (fun n -> classify (path, n)) bare;
              List.iter
                (fun parts -> Option.iter classify (resolve file parts))
                dotted;
              Hashtbl.replace summaries (path, name) (!muts, !calls)
          | _ -> ())
        globals)
    tree.Source.files;
  let reach : (Key.t, KS.t) Hashtbl.t = Hashtbl.create 256 in
  Hashtbl.iter (fun k (muts, _) -> Hashtbl.replace reach k muts) summaries;
  let changed = ref true in
  while !changed do
    changed := false;
    Hashtbl.iter
      (fun k (muts, calls) ->
        let r =
          List.fold_left
            (fun acc c ->
              match Hashtbl.find_opt reach c with
              | Some rc -> KS.union acc rc
              | None -> acc)
            muts calls
        in
        let old = Option.value ~default:KS.empty (Hashtbl.find_opt reach k) in
        if not (KS.subset r old) then begin
          Hashtbl.replace reach k (KS.union old r);
          changed := true
        end)
      summaries
  done;
  fun key -> Option.value ~default:KS.empty (Hashtbl.find_opt reach key)

(* ------------------------------------------------------------------ *)
(* Per-file walk: spawn sites with their lexical environments          *)
(* ------------------------------------------------------------------ *)

type binding =
  | Lmut of { kind : string; line : int; shared : shared_annot option; scope : expression }
  | Lfun of env * expression  (** local function: environment at its definition *)
  | Lopaque  (** parameter or immutable local — nothing to chase *)

and env = (string * binding) list

type site = {
  sp_line : int;
  sp_rep : bool;  (** the spawn executes more than once per scope entry *)
  sp_closure : expression;
  sp_env : env;
}

(* Closure arguments of these heads run their closure many times. *)
let replicating_head fn =
  match path_rev fn with
  | _ :: m :: _ when m = "Array" || m = "List" || m = "Seq" -> true
  | _ -> false

let is_spawn fn = match path_rev fn with [ "spawn"; "Domain" ] -> true | _ -> false

let spawn_sites_of_file annots (file : Source.file) =
  let record_types = Facts.record_types_of file.Source.ast in
  let sites = ref [] in
  let rec walk env rep e =
    match e.pexp_desc with
    | Pexp_let (_, vbs, body) ->
        let classify vb =
          match Facts.binding_name vb with
          | None -> []
          | Some name ->
              let line = line_of vb.pvb_loc in
              let shared = record_annot annots ~file:file.Source.path ~name ~line vb in
              let b =
                match Facts.mutable_kind record_types vb.pvb_expr with
                | Some kind -> Lmut { kind; line; shared; scope = body }
                | None -> (
                    match vb.pvb_expr.pexp_desc with
                    (* Recursive self-references are simply absent from
                       the stored environment, which also breaks
                       expansion cycles. *)
                    | Pexp_fun _ | Pexp_function _ -> Lfun (env, vb.pvb_expr)
                    | _ -> Lopaque)
              in
              [ (name, b) ]
        in
        let news = List.concat_map classify vbs in
        List.iter (fun vb -> walk env rep vb.pvb_expr) vbs;
        walk (news @ env) rep body
    | Pexp_fun (_, default, pat, body) ->
        Option.iter (walk env rep) default;
        walk (List.map (fun n -> (n, Lopaque)) (pat_names pat) @ env) rep body
    | Pexp_function cases ->
        List.iter
          (fun c ->
            let env = List.map (fun n -> (n, Lopaque)) (pat_names c.pc_lhs) @ env in
            Option.iter (walk env rep) c.pc_guard;
            walk env rep c.pc_rhs)
          cases
    | Pexp_match (e0, cases) | Pexp_try (e0, cases) ->
        walk env rep e0;
        List.iter
          (fun c ->
            let env = List.map (fun n -> (n, Lopaque)) (pat_names c.pc_lhs) @ env in
            Option.iter (walk env rep) c.pc_guard;
            walk env rep c.pc_rhs)
          cases
    | Pexp_for (pat, e1, e2, _, body) ->
        walk env rep e1;
        walk env rep e2;
        walk (List.map (fun n -> (n, Lopaque)) (pat_names pat) @ env) true body
    | Pexp_while (cond, body) ->
        walk env rep cond;
        walk env true body
    | Pexp_apply (fn, args) when is_spawn fn ->
        (match args with
        | (_, closure) :: _ ->
            sites :=
              { sp_line = line_of e.pexp_loc; sp_rep = rep; sp_closure = closure; sp_env = env }
              :: !sites
        | [] -> ());
        List.iter (fun (_, a) -> walk env rep a) args
    | Pexp_apply (fn, args) ->
        walk env rep fn;
        let arg_rep = rep || replicating_head fn in
        List.iter
          (fun (_, a) ->
            match a.pexp_desc with
            | Pexp_fun _ | Pexp_function _ -> walk env arg_rep a
            | _ -> walk env rep a)
          args
    | _ -> List.iter (walk env rep) (sub_exprs e)
  in
  let rec item si =
    match si.pstr_desc with
    | Pstr_value (_, vbs) -> List.iter (fun vb -> walk [] false vb.pvb_expr) vbs
    | Pstr_eval (e, _) -> walk [] false e
    | Pstr_module { pmb_expr; _ } -> module_expr pmb_expr
    | Pstr_recmodule mbs -> List.iter (fun mb -> module_expr mb.pmb_expr) mbs
    | _ -> ()
  and module_expr me =
    match me.pmod_desc with
    | Pmod_structure s -> List.iter item s
    | Pmod_constraint (me, _) -> module_expr me
    | _ -> ()
  in
  List.iter item file.Source.ast;
  List.rev !sites

(* ------------------------------------------------------------------ *)
(* Site processing                                                     *)
(* ------------------------------------------------------------------ *)

type local_capture = {
  lc_site : site;
  lc_name : string;
  lc_kind : string;
  lc_line : int;
  lc_scope : expression;
  lc_direct : bool;  (** captured by the closure itself, not via a helper *)
  lc_via : string option;
}

let analyze (tree : Source.tree) : result =
  let annots = ref [] in
  let globals = build_globals annots tree in
  let resolve = resolver tree in
  let reach = build_reach globals resolve tree in
  let escapes = ref [] in
  List.iter
    (fun (file : Source.file) ->
      let sites = spawn_sites_of_file annots file in
      (* Pass 1: transitive captures of each site. *)
      let locals = ref [] in
      let global_cap site key ~via =
        match Hashtbl.find_opt globals key with
        | Some (Gmut { kind; line; shared }) -> (
            match shared with
            | Some a -> a.s_used <- true
            | None ->
                let def_file, name = key in
                (* A directly-named same-file global whose uses in the
                   closure are all lock-guarded is sanctioned. *)
                if
                  not
                    (via = None && def_file = file.Source.path
                    && mutex_guarded name site.sp_closure)
                then
                  escapes :=
                    {
                      e_file = file.Source.path;
                      e_line = site.sp_line;
                      e_name = name;
                      e_kind = kind;
                      e_def_file = def_file;
                      e_def_line = line;
                      e_via = via;
                    }
                    :: !escapes)
        | Some (Gfun _) ->
            KS.iter
              (fun mkey ->
                match Hashtbl.find_opt globals mkey with
                | Some (Gmut { kind; line; shared = None }) ->
                    let def_file, name = mkey in
                    escapes :=
                      {
                        e_file = file.Source.path;
                        e_line = site.sp_line;
                        e_name = name;
                        e_kind = kind;
                        e_def_file = def_file;
                        e_def_line = line;
                        e_via =
                          Some
                            (match via with
                            | Some v -> "call to " ^ v
                            | None -> "call to " ^ snd key);
                      }
                      :: !escapes
                | Some (Gmut { shared = Some a; _ }) -> a.s_used <- true
                | _ -> ())
              (reach key)
        | None -> ()
      in
      let process site =
        let visited = ref [] in
        let rec expand ~via ~direct env closure =
          if not (List.memq closure !visited) then begin
            visited := closure :: !visited;
            let bare, dotted = free_names closure in
            List.iter
              (fun n ->
                match List.assoc_opt n env with
                | Some (Lmut { kind; line; shared; scope }) -> (
                    match shared with
                    | Some a -> a.s_used <- true
                    | None ->
                        if not (direct && mutex_guarded n site.sp_closure) then
                          locals :=
                            {
                              lc_site = site;
                              lc_name = n;
                              lc_kind = kind;
                              lc_line = line;
                              lc_scope = scope;
                              lc_direct = direct;
                              lc_via = via;
                            }
                            :: !locals)
                | Some (Lfun (fenv, fe)) ->
                    expand ~via:(Some (Option.value ~default:n via)) ~direct:false fenv fe
                | Some Lopaque -> ()
                | None -> global_cap site (file.Source.path, n) ~via)
              bare;
            List.iter
              (fun parts ->
                Option.iter
                  (fun key -> global_cap site key ~via:(Some (String.concat "." parts)))
                  (resolve file parts))
              dotted
          end
        in
        expand ~via:None ~direct:true site.sp_env site.sp_closure
      in
      List.iter process sites;
      (* Pass 2: decide which local captures are escapes.  Identity of
         a binding is (name, definition line). *)
      let locals = List.rev !locals in
      let capturing_sites name line =
        List.filter (fun lc -> lc.lc_name = name && lc.lc_line = line) locals
        |> List.map (fun lc -> lc.lc_site.sp_line)
        |> List.sort_uniq compare |> List.length
      in
      List.iter
        (fun lc ->
          let sole_transfer =
            lc.lc_direct
            && (not lc.lc_site.sp_rep)
            && capturing_sites lc.lc_name lc.lc_line = 1
            && ident_uses lc.lc_name lc.lc_scope
               = ident_uses lc.lc_name lc.lc_site.sp_closure
          in
          if not sole_transfer then
            escapes :=
              {
                e_file = file.Source.path;
                e_line = lc.lc_site.sp_line;
                e_name = lc.lc_name;
                e_kind = lc.lc_kind;
                e_def_file = file.Source.path;
                e_def_line = lc.lc_line;
                e_via = lc.lc_via;
              }
              :: !escapes)
        locals)
    tree.Source.files;
  { escapes = List.rev !escapes; shared_annots = List.rev !annots }
