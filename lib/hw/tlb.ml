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
}

let create ?(capacity = 1536) () =
  {
    capacity;
    table = Hashtbl.create (2 * capacity);
    order = Queue.create ();
    hits = 0;
    misses = 0;
  }

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
  | Some k -> Hashtbl.remove t.table k

let insert t ~pcid ~va entry =
  let vpn = Addr.vpn_of_va va in
  let vpn = if entry.level = 2 then vpn land lnot 511 else vpn in
  if Hashtbl.length t.table >= t.capacity then evict_one t;
  let k = key ~pcid vpn in
  if not (Hashtbl.mem t.table k) then Queue.add k t.order;
  Hashtbl.replace t.table k entry

(* invlpg: drops the translation for one page in one PCID only. *)
let invlpg t ~pcid va =
  let vpn = Addr.vpn_of_va va in
  Hashtbl.remove t.table (key ~pcid vpn);
  Hashtbl.remove t.table (key ~pcid (vpn land lnot 511))

(* invpcid / CR3 write with flush: drop all entries of [pcid]. *)
let flush_pcid t ~pcid =
  let stale = Hashtbl.fold (fun (p, v) _ acc -> if p = pcid then (p, v) :: acc else acc) t.table [] in
  List.iter (Hashtbl.remove t.table) stale

let flush_all t =
  Hashtbl.reset t.table;
  Queue.clear t.order

(* Fold over all cached translations (scanner support: the analysis
   library re-walks the live page tables and compares). *)
let fold t f init =
  Hashtbl.fold (fun (pcid, vpn) e acc -> f acc ~pcid ~vpn e) t.table init

let size t = Hashtbl.length t.table
let entries_for t ~pcid = Hashtbl.fold (fun (p, _) _ n -> if p = pcid then n + 1 else n) t.table 0
let hits t = t.hits
let misses t = t.misses
