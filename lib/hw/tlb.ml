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

(* One int per translation: [(pcid lsl vpn_bits) lor vpn].  A vpn of a
   48-bit virtual address has 36 bits, and a PCID (allocated upward
   from 0) stays far below the 26 bits left, so the key hashes and
   compares as one int, with no tuple built per lookup. *)
let vpn_bits = 36
let vpn_mask = (1 lsl vpn_bits) - 1

type t = {
  capacity : int;
  table : stamped Int_tbl.t;
  order : (int * int) Queue.t;
  mutable next_stamp : int;
  mutable hits : int;
  mutable misses : int;
}

(* The table starts small and grows with what is inserted: most vCPUs
   never cache a translation, and [capacity] bounds only the live
   entries. *)
let create ?(capacity = 1536) () =
  {
    capacity;
    table = Int_tbl.create 16;
    order = Queue.create ();
    next_stamp = 0;
    hits = 0;
    misses = 0;
  }

let[@inline] key ~pcid vpn = (pcid lsl vpn_bits) lor vpn
let[@inline] pcid_of k = k lsr vpn_bits

(* A vpn past 36 bits would spill into the pcid bits of the key; no
   canonical address has one, so it is never cached. *)
let[@inline] in_range vpn = vpn land lnot vpn_mask = 0

let lookup t ~pcid va =
  let vpn = Addr.vpn_of_va va in
  let hit =
    if not (in_range vpn) then None
    else
      match Int_tbl.find_opt t.table (key ~pcid vpn) with
      | Some s -> Some s.e
      | None -> (
          (* A 2 MiB mapping covers 512 vpns; model it with an entry on
             the 2 MiB-aligned vpn. *)
          match Int_tbl.find_opt t.table (key ~pcid (vpn land lnot 511)) with
          | Some s when s.e.level = 2 -> Some s.e
          | _ -> None)
  in
  (match hit with Some _ -> t.hits <- t.hits + 1 | None -> t.misses <- t.misses + 1);
  hit

let live t (k, stamp) =
  match Int_tbl.find_opt t.table k with
  | Some s -> s.stamp = stamp
  | None -> false

(* Evict the least recently inserted live entry, dropping the stale
   slots in front of it. *)
let rec evict_one t =
  match Queue.take_opt t.order with
  | None -> ()
  | Some ((k, _) as slot) -> if live t slot then Int_tbl.remove t.table k else evict_one t

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
  if not (in_range vpn) then invalid_arg "Tlb.insert: virtual address past 48 bits";
  let vpn = if entry.level = 2 then vpn land lnot 511 else vpn in
  let k = key ~pcid vpn in
  match Int_tbl.find_opt t.table k with
  | Some s -> Int_tbl.replace t.table k { s with e = entry }
  | None ->
      if Int_tbl.length t.table >= t.capacity then evict_one t;
      let stamp = t.next_stamp in
      t.next_stamp <- stamp + 1;
      Int_tbl.replace t.table k { e = entry; stamp };
      Queue.add (k, stamp) t.order;
      compact t

(* invlpg: drops the translation for one page in one PCID only.  The
   dirty-tracking epochs issue one per protected page per vCPU, almost
   always on an empty TLB. *)
let invlpg t ~pcid va =
  if Int_tbl.length t.table > 0 then begin
    let vpn = Addr.vpn_of_va va in
    if in_range vpn then begin
      Int_tbl.remove t.table (key ~pcid vpn);
      Int_tbl.remove t.table (key ~pcid (vpn land lnot 511))
    end
  end

(* invpcid / CR3 write with flush: drop all entries of [pcid]. *)
let flush_pcid t ~pcid =
  Int_tbl.filter_map_inplace (fun k s -> if pcid_of k = pcid then None else Some s) t.table

let flush_all t =
  Int_tbl.reset t.table;
  Queue.clear t.order

(* Fold over all cached translations (scanner support: the analysis
   library re-walks the live page tables and compares). *)
let fold t f init =
  Int_tbl.fold (fun k s acc -> f acc ~pcid:(pcid_of k) ~vpn:(k land vpn_mask) s.e) t.table init

let size t = Int_tbl.length t.table
let entries_for t ~pcid =
  Int_tbl.fold (fun k _ n -> if pcid_of k = pcid then n + 1 else n) t.table 0
let hits t = t.hits
let misses t = t.misses
