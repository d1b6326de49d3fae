(* The BTree key-value store of Figures 4/12/13 and Table 4.

   A real in-memory B-tree; node allocations flow through an arena so
   inserts produce genuine demand faults with realistic density, and
   lookups are pure compute (plus TLB pressure modelled in
   [Gups]-style runs for Table 4). *)

let order = 32 (* max keys per node *)

type node = {
  mutable keys : int array;
  mutable nkeys : int;
  mutable values : int array;
  mutable children : node array;  (** empty for leaves *)
}

type t = {
  mutable root : node;
  arena : Profile.Arena.t;
  mutable size : int;
}

let node_bytes = 16 * order (* keys + values + header, roughly *)

let new_node arena ~leaf =
  Profile.Arena.alloc arena node_bytes;
  {
    keys = Array.make order 0;
    nkeys = 0;
    values = Array.make order 0;
    children = (if leaf then [||] else Array.make (order + 1) (Obj.magic 0));
  }

let create backend task =
  let arena = Profile.Arena.create backend task in
  { root = new_node arena ~leaf:true; arena; size = 0 }

let is_leaf n = Array.length n.children = 0

(* Binary search for [key] in node [n]; returns insertion index. *)
let find_pos n key =
  let lo = ref 0 and hi = ref n.nkeys in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if n.keys.(mid) < key then lo := mid + 1 else hi := mid
  done;
  !lo

let split_child arena parent idx =
  let child = parent.children.(idx) in
  let right = new_node arena ~leaf:(is_leaf child) in
  let mid = order / 2 in
  let move = child.nkeys - mid - 1 in
  Array.blit child.keys (mid + 1) right.keys 0 move;
  Array.blit child.values (mid + 1) right.values 0 move;
  if not (is_leaf child) then Array.blit child.children (mid + 1) right.children 0 (move + 1);
  right.nkeys <- move;
  let up_key = child.keys.(mid) and up_val = child.values.(mid) in
  child.nkeys <- mid;
  (* shift parent entries right *)
  Array.blit parent.keys idx parent.keys (idx + 1) (parent.nkeys - idx);
  Array.blit parent.values idx parent.values (idx + 1) (parent.nkeys - idx);
  Array.blit parent.children (idx + 1) parent.children (idx + 2) (parent.nkeys - idx);
  parent.keys.(idx) <- up_key;
  parent.values.(idx) <- up_val;
  parent.children.(idx + 1) <- right;
  parent.nkeys <- parent.nkeys + 1

let rec insert_nonfull arena n key value =
  let pos = find_pos n key in
  if pos < n.nkeys && n.keys.(pos) = key then n.values.(pos) <- value
  else if is_leaf n then begin
    Array.blit n.keys pos n.keys (pos + 1) (n.nkeys - pos);
    Array.blit n.values pos n.values (pos + 1) (n.nkeys - pos);
    n.keys.(pos) <- key;
    n.values.(pos) <- value;
    n.nkeys <- n.nkeys + 1
  end
  else begin
    if n.children.(pos).nkeys = order then begin
      split_child arena n pos;
      (* the split moved the child's median up to [pos]: it may be the
         key being updated *)
      if key = n.keys.(pos) then n.values.(pos) <- value
      else insert_nonfull arena n.children.(if key > n.keys.(pos) then pos + 1 else pos) key value
    end
    else insert_nonfull arena n.children.(pos) key value
  end

(* Value payload stored out-of-line per entry (the KV-store part). *)
let entry_bytes = 256

let insert t key value =
  Profile.Arena.alloc t.arena entry_bytes;
  if t.root.nkeys = order then begin
    let new_root = new_node t.arena ~leaf:false in
    new_root.children.(0) <- t.root;
    t.root <- new_root;
    split_child t.arena new_root 0
  end;
  insert_nonfull t.arena t.root key value;
  t.size <- t.size + 1

let rec lookup_node n key =
  let pos = find_pos n key in
  if pos < n.nkeys && n.keys.(pos) = key then Some n.values.(pos)
  else if is_leaf n then None
  else lookup_node n.children.(pos) key

let lookup t key = lookup_node t.root key
let size t = t.size

(* ------------------------------------------------------------------ *)
(* Benchmark drivers                                                   *)
(* ------------------------------------------------------------------ *)

(* Per-operation application compute (hashing, comparisons, pointer
   chasing beyond what the model charges structurally). *)
let insert_compute = 950.0
let lookup_compute = 700.0

(* The Figure 12/4 configuration: insert [inserts] entries then perform
   [lookups] searches; returns total latency. *)
let run (b : Virt.Backend.t) ~inserts ~lookups =
  let task = Virt.Backend.spawn b in
  let rng = Profile.Rng.create () in
  let tree = create b task in
  Profile.timed b (fun () ->
      for i = 1 to inserts do
        insert tree ((i * 2654435761) land 0xFFFFFF) i;
        Profile.compute b insert_compute
      done;
      for _ = 1 to lookups do
        ignore (lookup tree (Profile.Rng.int rng 0xFFFFFF));
        Profile.compute b lookup_compute
      done)

(* Figure 13a: fixed op count, varying lookup:insert ratio. *)
let run_ratio (b : Virt.Backend.t) ~total_ops ~lookup_per_insert =
  let inserts = total_ops / (1 + lookup_per_insert) in
  let lookups = total_ops - inserts in
  run b ~inserts ~lookups
