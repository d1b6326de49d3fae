(* PCID-tagged TLB model.

   Capacity-bounded with FIFO eviction; entries are tagged with the
   process-context id so that `invlpg` executed inside one container
   (one PCID) cannot flush another container's entries — the property
   Section 4.1 relies on to prevent cross-container TLB DoS. *)

type entry = {
  pfn : Addr.pfn;
  flags : Pte.flags;
  level : int;  (** 1 = 4 KiB, 2 = 2 MiB *)
}

(* A cached translation with the stamp of the insert that made it live.
   [order] holds one (key, stamp) slot per such insert, oldest first.
   Invalidation leaves its slot behind; a slot is live only while its
   stamp matches the table's, so a stale slot never evicts a later
   entry of the same key. *)
type stamped = {
  e : entry;
  stamp : int;
}

type t = {
  capacity : int;
  table : (int * Addr.vpn, stamped) Hashtbl.t;
  order : ((int * Addr.vpn) * int) Queue.t;
  mutable next_stamp : int;
  mutable hits : int;
  mutable misses : int;
}

let create ?(capacity = 1536) () =
  {
    capacity;
    table = Hashtbl.create (2 * capacity);
    order = Queue.create ();
    next_stamp = 0;
    hits = 0;
    misses = 0;
  }

let key ~pcid vpn = (pcid, vpn)

let lookup t ~pcid va =
  let vpn = Addr.vpn_of_va va in
  match Hashtbl.find_opt t.table (key ~pcid vpn) with
  | Some s ->
      t.hits <- t.hits + 1;
      Some s.e
  | None -> (
      (* A 2 MiB mapping covers 512 vpns; model it with an entry on the
         2 MiB-aligned vpn. *)
      match Hashtbl.find_opt t.table (key ~pcid (vpn land lnot 511)) with
      | Some s when s.e.level = 2 ->
          t.hits <- t.hits + 1;
          Some s.e
      | _ ->
          t.misses <- t.misses + 1;
          None)

let live t (k, stamp) =
  match Hashtbl.find_opt t.table k with
  | Some s -> s.stamp = stamp
  | None -> false

(* Evict the least recently inserted live entry, dropping the stale
   slots in front of it. *)
let rec evict_one t =
  match Queue.take_opt t.order with
  | None -> ()
  | Some ((k, _) as slot) -> if live t slot then Hashtbl.remove t.table k else evict_one t

(* Invalidations leave stale slots; once they make [order] twice the
   capacity, keep only the live ones (amortized O(1) per insert). *)
let compact t =
  if Queue.length t.order > 2 * t.capacity then begin
    let slots = Queue.copy t.order in
    Queue.clear t.order;
    Queue.iter (fun slot -> if live t slot then Queue.add slot t.order) slots
  end

let insert t ~pcid ~va entry =
  let vpn = Addr.vpn_of_va va in
  let vpn = if entry.level = 2 then vpn land lnot 511 else vpn in
  let k = key ~pcid vpn in
  match Hashtbl.find_opt t.table k with
  | Some s -> Hashtbl.replace t.table k { s with e = entry }
  | None ->
      if Hashtbl.length t.table >= t.capacity then evict_one t;
      let stamp = t.next_stamp in
      t.next_stamp <- stamp + 1;
      Hashtbl.replace t.table k { e = entry; stamp };
      Queue.add (k, stamp) t.order;
      compact t

(* invlpg: drops the translation for one page in one PCID only. *)
let invlpg t ~pcid va =
  let vpn = Addr.vpn_of_va va in
  Hashtbl.remove t.table (key ~pcid vpn);
  Hashtbl.remove t.table (key ~pcid (vpn land lnot 511))

(* invpcid / CR3 write with flush: drop all entries of [pcid]. *)
let flush_pcid t ~pcid =
  Hashtbl.filter_map_inplace (fun (p, _) s -> if p = pcid then None else Some s) t.table

let flush_all t =
  Hashtbl.reset t.table;
  Queue.clear t.order

(* Fold over all cached translations (scanner support: the analysis
   library re-walks the live page tables and compares). *)
let fold t f init =
  Hashtbl.fold (fun (pcid, vpn) s acc -> f acc ~pcid ~vpn s.e) t.table init

let size t = Hashtbl.length t.table
let entries_for t ~pcid = Hashtbl.fold (fun (p, _) _ n -> if p = pcid then n + 1 else n) t.table 0
let hits t = t.hits
let misses t = t.misses
