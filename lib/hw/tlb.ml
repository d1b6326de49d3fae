(* PCID-tagged TLB model.

   Capacity-bounded with FIFO-ish eviction; entries are tagged with the
   process-context id so that `invlpg` executed inside one container
   (one PCID) cannot flush another container's entries — the property
   Section 4.1 relies on to prevent cross-container TLB DoS. *)

type entry = {
  pfn : Addr.pfn;
  flags : Pte.flags;
  level : int;  (** 1 = 4 KiB, 2 = 2 MiB *)
}

type t = {
  capacity : int;
  table : (int * Addr.vpn, entry) Hashtbl.t;
  order : (int * Addr.vpn) Queue.t;
  mutable hits : int;
  mutable misses : int;
  mutable invalidate_hook : int -> int -> unit;
      (** [hook pcid vpn] fires on every entry drop so a software
          translation cache in front of this TLB stays a strict subset:
          [vpn = -1] means "all of [pcid]", [pcid = -1] "everything" *)
}

let create ?(capacity = 1536) () =
  {
    capacity;
    table = Hashtbl.create (2 * capacity);
    order = Queue.create ();
    hits = 0;
    misses = 0;
    invalidate_hook = (fun _ _ -> ());
  }

let set_invalidate_hook t f = t.invalidate_hook <- f

(* Count a hit scored by a front cache (the CPU's memoized translation
   fast path) so hit/miss statistics stay identical whether or not the
   cache intercepted the lookup. *)
let note_hit t = t.hits <- t.hits + 1

let key ~pcid vpn = (pcid, vpn)

let lookup t ~pcid va =
  let vpn = Addr.vpn_of_va va in
  match Hashtbl.find_opt t.table (key ~pcid vpn) with
  | Some e ->
      t.hits <- t.hits + 1;
      Some e
  | None -> (
      (* A 2 MiB mapping covers 512 vpns; model it with an entry on the
         2 MiB-aligned vpn. *)
      match Hashtbl.find_opt t.table (key ~pcid (vpn land lnot 511)) with
      | Some e when e.level = 2 ->
          t.hits <- t.hits + 1;
          Some e
      | _ ->
          t.misses <- t.misses + 1;
          None)

let evict_one t =
  match Queue.take_opt t.order with
  | None -> ()
  | Some ((p, v) as k) ->
      Hashtbl.remove t.table k;
      t.invalidate_hook p v

let insert t ~pcid ~va entry =
  let vpn = Addr.vpn_of_va va in
  let vpn = if entry.level = 2 then vpn land lnot 511 else vpn in
  if Hashtbl.length t.table >= t.capacity then evict_one t;
  let k = key ~pcid vpn in
  if not (Hashtbl.mem t.table k) then Queue.add k t.order
  else t.invalidate_hook pcid vpn;
  Hashtbl.replace t.table k entry

(* invlpg: drops the translation for one page in one PCID only. *)
let invlpg t ~pcid va =
  let vpn = Addr.vpn_of_va va in
  Hashtbl.remove t.table (key ~pcid vpn);
  Hashtbl.remove t.table (key ~pcid (vpn land lnot 511));
  t.invalidate_hook pcid vpn;
  t.invalidate_hook pcid (vpn land lnot 511)

(* invpcid / CR3 write with flush: drop all entries of [pcid]. *)
let flush_pcid t ~pcid =
  let stale = Hashtbl.fold (fun (p, v) _ acc -> if p = pcid then (p, v) :: acc else acc) t.table [] in
  List.iter (Hashtbl.remove t.table) stale;
  t.invalidate_hook pcid (-1)

let flush_all t =
  Hashtbl.reset t.table;
  Queue.clear t.order;
  t.invalidate_hook (-1) (-1)

(* Fold over all cached translations (scanner support: the analysis
   library re-walks the live page tables and compares). *)
let fold t f init =
  Hashtbl.fold (fun (pcid, vpn) e acc -> f acc ~pcid ~vpn e) t.table init

let size t = Hashtbl.length t.table
let entries_for t ~pcid = Hashtbl.fold (fun (p, _) _ n -> if p = pcid then n + 1 else n) t.table 0
let hits t = t.hits
let misses t = t.misses
