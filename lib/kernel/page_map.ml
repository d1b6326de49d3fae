(* A map from vpn to a non-negative int, shaped like the page tables it
   mirrors: fixed-size int-array leaves, each covering an aligned run
   of [leaf_size] vpns with -1 for an absent key, under a directory of
   leaf ids kept in ascending order.  Ascending iteration is a walk of
   the directory, leaf by leaf; a lookup tries the leaf found last,
   then binary-searches the directory.  Neither a lookup nor an insert
   into an existing leaf allocates.  A leaf is freed when its last key
   goes, so an address space that maps and unmaps at advancing
   addresses holds only the leaves of its live pages. *)

let leaf_bits = 6
let leaf_size = 1 lsl leaf_bits
let leaf_mask = leaf_size - 1

type t = {
  mutable ids : int array;  (** leaf ids ([vpn lsr leaf_bits]), ascending *)
  mutable leaves : int array array;  (** [leaves.(i)] holds leaf [ids.(i)] *)
  mutable counts : int array;  (** keys held by [leaves.(i)] *)
  mutable used : int;  (** directory slots in use *)
  mutable length : int;
  mutable hint : int;  (** directory slot of the leaf found last *)
}

let create () = { ids = [||]; leaves = [||]; counts = [||]; used = 0; length = 0; hint = 0 }
let length t = t.length
let leaves t = t.used

let clear t =
  t.ids <- [||];
  t.leaves <- [||];
  t.counts <- [||];
  t.used <- 0;
  t.length <- 0;
  t.hint <- 0

(* The first directory slot whose id is >= [id] ([used] when none). *)
let lower_bound t id =
  let h = t.hint in
  if h < t.used && Array.unsafe_get t.ids h = id then h
  else begin
    let lo = ref 0 and hi = ref t.used in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if Array.unsafe_get t.ids mid < id then lo := mid + 1 else hi := mid
    done;
    !lo
  end

(* The directory slot of leaf [id], or -1. *)
let slot t id =
  let i = lower_bound t id in
  if i < t.used && Array.unsafe_get t.ids i = id then begin
    t.hint <- i;
    i
  end
  else -1

(* A negative vpn needs no check: its leaf id ([lsr] is logical) lies
   above every id a non-negative vpn can have, so it is never found.
   An empty map (most CoW, frozen and write-protect tables) answers
   without a search. *)
let find t vpn =
  if t.used = 0 then -1
  else
    let i = slot t (vpn lsr leaf_bits) in
    if i < 0 then -1 else Array.unsafe_get (Array.unsafe_get t.leaves i) (vpn land leaf_mask)

let mem t vpn = find t vpn >= 0

(* Open an empty leaf [id] at directory slot [i], shifting the slots
   above it up by one. *)
let insert_leaf t i id =
  if t.used = Array.length t.ids then begin
    let cap = max 4 (2 * t.used) in
    let grow a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 t.used;
      b
    in
    t.ids <- grow t.ids 0;
    t.leaves <- grow t.leaves [||];
    t.counts <- grow t.counts 0
  end;
  let above = t.used - i in
  Array.blit t.ids i t.ids (i + 1) above;
  Array.blit t.leaves i t.leaves (i + 1) above;
  Array.blit t.counts i t.counts (i + 1) above;
  t.ids.(i) <- id;
  t.leaves.(i) <- Array.make leaf_size (-1);
  t.counts.(i) <- 0;
  t.used <- t.used + 1

(* Free the leaf at directory slot [i], shifting the slots above it
   down by one. *)
let drop_leaf t i =
  let above = t.used - i - 1 in
  Array.blit t.ids (i + 1) t.ids i above;
  Array.blit t.leaves (i + 1) t.leaves i above;
  Array.blit t.counts (i + 1) t.counts i above;
  t.used <- t.used - 1;
  t.leaves.(t.used) <- [||]

let replace t vpn v =
  if vpn < 0 || v < 0 then invalid_arg "Page_map.replace";
  let id = vpn lsr leaf_bits in
  let i = lower_bound t id in
  if not (i < t.used && Array.unsafe_get t.ids i = id) then insert_leaf t i id;
  t.hint <- i;
  let leaf = Array.unsafe_get t.leaves i and j = vpn land leaf_mask in
  if Array.unsafe_get leaf j < 0 then begin
    t.counts.(i) <- t.counts.(i) + 1;
    t.length <- t.length + 1
  end;
  Array.unsafe_set leaf j v

let remove t vpn =
  let i = slot t (vpn lsr leaf_bits) in
  if i >= 0 then begin
    let leaf = Array.unsafe_get t.leaves i and j = vpn land leaf_mask in
    if Array.unsafe_get leaf j >= 0 then begin
      Array.unsafe_set leaf j (-1);
      t.length <- t.length - 1;
      let left = t.counts.(i) - 1 in
      t.counts.(i) <- left;
      if left = 0 then drop_leaf t i
    end
  end

let iter t f =
  for i = 0 to t.used - 1 do
    let leaf = t.leaves.(i) and base = t.ids.(i) lsl leaf_bits in
    for j = 0 to leaf_size - 1 do
      let v = Array.unsafe_get leaf j in
      if v >= 0 then f (base + j) v
    done
  done

let keys t =
  let a = Array.make t.length 0 and n = ref 0 in
  iter t (fun vpn _ ->
      Array.unsafe_set a !n vpn;
      incr n);
  a
