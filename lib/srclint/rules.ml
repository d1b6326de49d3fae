(* The rule families over a parsed source tree: trusted-sink,
   layering, hygiene and spawn-site.  Each is an allowlist rule — the
   exceptions live in the tables below ([default_arch],
   [default_tcb]), never in a ledger file.  Findings render through
   [Report.Findings]. *)

type finding = {
  rule : string;
  severity : Report.Findings.severity;
  file : string;  (** repo-relative; a .ml or a dune file *)
  line : int;
  symbol : string;  (** what fired: a binding, sink, library... *)
  detail : string;
}

(* ------------------------------------------------------------------ *)
(* Architecture: the sanctioned inter-library DAG                      *)
(* ------------------------------------------------------------------ *)

(* [lib -> libraries it may reference].  This is the layering
   `hw <- kernel <- virt <- core <- {analysis, snapshot, modelcheck,
   ioplane} <- workload drivers` written out as an explicit allowlist;
   an edge absent here is an upward or cross edge and a finding, even
   when OCaml would resolve it through dune's implicit transitive
   dependencies.  A new library must be added here deliberately. *)
type arch = (string * string list) list

let default_arch =
  [
    ("report", []);
    ("hw", []);
    ("kernel_model", [ "hw" ]);
    ("virt", [ "hw"; "kernel_model" ]);
    ("cki", [ "hw"; "kernel_model"; "virt" ]);
    ("workloads", [ "hw"; "kernel_model"; "virt" ]);
    ("analysis", [ "hw"; "cki"; "report" ]);
    ("snapshot", [ "hw"; "kernel_model"; "virt"; "cki"; "analysis"; "report" ]);
    ("modelcheck", [ "hw"; "kernel_model"; "virt"; "cki"; "report" ]);
    ("ioplane", [ "hw"; "kernel_model"; "virt"; "cki"; "workloads"; "report" ]);
    (* The fleet controller composes the serving plane: it may see the
       I/O plane, snapshots and the verifier, and nothing may see it. *)
    ("fleet",
      [ "hw"; "kernel_model"; "virt"; "cki"; "workloads"; "ioplane"; "snapshot"; "analysis"; "report" ]);
    (* Live migration sits above the whole serving stack: it moves
       containers between fabric hosts over snapshot images and
       re-verifies them with the analysis scanner before cutover.
       Only the executables may see it. *)
    ("migrate",
      [ "hw"; "kernel_model"; "virt"; "cki"; "ioplane"; "snapshot"; "fleet"; "analysis"; "report" ]);
    ("srclint", [ "report" ]);
    (* Executable scope: the demo driver and the bench harness sit on
       top of the whole stack — any library, no library sees them. *)
    ( "bin",
      [ "report"; "hw"; "kernel_model"; "virt"; "cki"; "workloads"; "analysis"; "snapshot";
        "modelcheck"; "ioplane"; "fleet"; "migrate"; "srclint" ] );
    ( "bench",
      [ "report"; "hw"; "kernel_model"; "virt"; "cki"; "workloads"; "analysis"; "snapshot";
        "modelcheck"; "ioplane"; "fleet"; "migrate"; "srclint" ] );
  ]

(* ------------------------------------------------------------------ *)
(* Trusted computing base                                              *)
(* ------------------------------------------------------------------ *)

(* Files allowed to reach the raw physical-memory write sinks: the
   hardware model itself, the security monitor (KSM) and its per-vCPU
   root copies, the snapshot restore/freeze paths, and the VirtIO data
   path (ring words + page copies).  Everything else must
   mutate memory through a KSM call.  Entries ending in '/' cover a
   directory. *)
let default_tcb =
  [
    "lib/hw/";
    "lib/core/ksm.ml";
    "lib/core/pervcpu.ml";
    "lib/snapshot/restore.ml";
    "lib/snapshot/template.ml";
    "lib/kernel/virtio.ml";
  ]

let in_tcb tcb path =
  List.exists
    (fun entry ->
      if String.length entry > 0 && entry.[String.length entry - 1] = '/' then
        String.length path >= String.length entry && String.sub path 0 (String.length entry) = entry
      else path = entry)
    tcb

(* ------------------------------------------------------------------ *)
(* Rule evaluation                                                     *)
(* ------------------------------------------------------------------ *)

let crit = Report.Findings.Critical
let warn = Report.Findings.Warning

let mk rule severity file line symbol detail = { rule; severity; file; line; symbol; detail }

let evaluate ?(arch = default_arch) ?(tcb = default_tcb) (tree : Source.tree) : finding list =
  let out = ref [] in
  let emit f = out := f :: !out in
  let lib_of_module m =
    List.find_opt (fun (l : Source.lib) -> l.lib_module = m) tree.Source.libs
  in
  let repo_lib_names = List.map (fun (l : Source.lib) -> l.Source.lib_name) tree.Source.libs in
  (* Per-library checks: the dune file itself must not declare an edge
     the architecture forbids, and every library must be in the table. *)
  List.iter
    (fun (lib : Source.lib) ->
      match List.assoc_opt lib.Source.lib_name arch with
      | None ->
          emit
            (mk "layering" crit lib.Source.lib_dune 1 lib.Source.lib_name
               (Printf.sprintf
                  "library %S is not in the architecture table; add it (and its allowed \
                   dependencies) to the layering DAG deliberately"
                  lib.Source.lib_name))
      | Some allowed ->
          List.iter
            (fun dep ->
              if List.mem dep repo_lib_names && not (List.mem dep allowed) then
                emit
                  (mk "layering" crit lib.Source.lib_dune 1 dep
                     (Printf.sprintf
                        "dune declares dependency %s -> %s, an upward or cross edge the \
                         layering DAG forbids"
                        lib.Source.lib_name dep)))
            lib.Source.lib_deps)
    tree.Source.libs;
  (* Per-file checks. *)
  List.iter
    (fun (file : Source.file) ->
      let path = file.Source.path in
      let lib = file.Source.library in
      let tcb_file = in_tcb tcb path in
      (match file.Source.parse_error with
      | Some (line, msg) ->
          emit
            (mk "parse-error" crit path line (Filename.basename path)
               ("compiler front end rejected this file: " ^ msg))
      | None -> ());
      let facts = Facts.extract file.Source.ast in
      (* Executable scope ([bin/], [bench/]) gets the layering family
         (parse-error, layering, undeclared-dep) plus spawn-site; the
         lib-only families — trusted-sink and hygiene — stay scoped to
         lib/ code. *)
      let exe = lib.Source.lib_exe in
      (* (1) trusted-sink *)
      if (not tcb_file) && not exe then
        List.iter
          (fun (sink, line) ->
            emit
              (mk "trusted-sink" crit path line sink
                 (Printf.sprintf
                    "raw physical-memory mutation outside the TCB allowlist; route this \
                     through a KSM call or add the file to the allowlist deliberately")))
          facts.Facts.sink_refs;
      (* (2) layering: module references vs the DAG and the dune file *)
      let allowed = Option.value ~default:[] (List.assoc_opt lib.Source.lib_name arch) in
      List.iter
        (fun (head, line) ->
          match lib_of_module head with
          | None -> () (* stdlib / compiler-libs / external *)
          | Some target when target.Source.lib_name = lib.Source.lib_name -> ()
          | Some target ->
              let tname = target.Source.lib_name in
              if not (List.mem tname allowed) then
                emit
                  (mk "layering" crit path line tname
                     (Printf.sprintf
                        "reference to library %s from %s is an upward or cross edge \
                         (allowed dependencies: %s)"
                        tname lib.Source.lib_name
                        (match allowed with [] -> "none" | l -> String.concat ", " l)))
              else if not (List.mem tname lib.Source.lib_deps) then
                emit
                  (mk "undeclared-dep" warn path line tname
                     (Printf.sprintf
                        "reference to library %s resolves only through dune's implicit \
                         transitive dependencies; declare it in %s"
                        tname lib.Source.lib_dune)))
        facts.Facts.module_refs;
      (* (3) hygiene *)
      if (not file.Source.has_mli) && not exe then
        emit
          (mk "missing-mli" warn path 1 (Filename.basename path)
             "no interface file; every lib/ module must state its API in a .mli");
      if tcb_file then begin
        List.iter
          (fun line ->
            emit
              (mk "tcb-unsafe" warn path line "Obj.magic"
                 "Obj.magic inside a TCB file defeats the type system where it matters most"))
          facts.Facts.obj_magics;
        List.iter
          (fun line ->
            emit
              (mk "tcb-unsafe" warn path line "assert-false"
                 "assert false inside a TCB file; make the impossible case a typed error"))
          facts.Facts.assert_falses
      end;
      (* Ownership questions go through [Phys_mem]'s owner index
         ([iter_owned]/[owned_count]) and table walks through
         [iter_entries]; only the hardware model itself may loop over
         every frame or every slot of a table. *)
      if (not exe) && not (String.starts_with ~prefix:"lib/hw/" path) then
        List.iter
          (fun (bound, line) ->
            emit
              (mk "frame-sweep" warn path line bound
                 (if bound = "entries_per_table" then
                    "loop over every slot of a page table outside lib/hw; use \
                     Hw.Phys_mem.iter_entries, one access per table that visits only the \
                     written entries"
                  else
                    "loop over every physical frame outside lib/hw; use \
                     Hw.Phys_mem.iter_owned or owned_count, which cost O(frames owned)")))
          facts.Facts.frame_sweeps;
      let n_enter = List.length facts.Facts.gate_enters
      and n_exit = List.length facts.Facts.gate_exits in
      if n_enter <> n_exit && not exe then
        emit
          (mk "probe-pairing" warn path
             (match (facts.Facts.gate_enters, facts.Facts.gate_exits) with
             | l :: _, _ | [], l :: _ -> l
             | [], [] -> 1)
             "Gate_enter/Gate_exit"
             (Printf.sprintf
                "file constructs %d Gate_enter but %d Gate_exit probe events; every gate \
                 entry emission needs a matching exit emission"
                n_enter n_exit));
      (* (4) spawn-site: the simulator runs on one domain — the probe
         sink, the id counters and the mutation knobs are plain
         module state — so no file may create another. *)
      List.iter
        (fun (spawn, line) ->
          emit
            (mk "spawn-site" crit path line spawn
               "domain creation; the simulator runs on one domain and its module state \
                (probe sink, id counters, mutation knobs) assumes so"))
        facts.Facts.spawn_refs)
    tree.Source.files;
  (* Deduplicate identical (rule, file, symbol, line) — e.g. a module
     referenced from several syntactic positions on one line — then
     order by file and line for stable output. *)
  let seen = Hashtbl.create 64 in
  !out
  |> List.filter (fun f ->
         let key = (f.rule, f.file, f.symbol, f.line) in
         if Hashtbl.mem seen key then false
         else begin
           Hashtbl.add seen key ();
           true
         end)
  |> List.sort (fun a b ->
         match String.compare a.file b.file with
         | 0 -> ( match compare a.line b.line with 0 -> String.compare a.rule b.rule | c -> c)
         | c -> c)
