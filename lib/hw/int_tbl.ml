(* Hash tables keyed by an int (a vpn, a pfn, a pcid or a packed key)
   that hash the int itself.  The polymorphic [Hashtbl] hashes an int
   through the generic [caml_hash] walk and compares keys with the
   polymorphic compare; on the migration path's page and frame tables
   that doubled the cost of every lookup.  Consecutive keys land in
   consecutive buckets, which is the best spread page numbers can
   have. *)

include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

(* Bottom-up merge sort with the comparison on ints in line. *)
let sort_ints (a : int array) =
  let n = Array.length a in
  let src = ref a and dst = ref (Array.make n 0) and width = ref 1 in
  while !width < n do
    let s = !src and d = !dst and w = !width in
    let lo = ref 0 in
    while !lo < n do
      let mid = min n (!lo + w) and hi = min n (!lo + (2 * w)) in
      let i = ref !lo and j = ref mid in
      for k = !lo to hi - 1 do
        if !i < mid && (!j >= hi || Array.unsafe_get s !i <= Array.unsafe_get s !j) then begin
          Array.unsafe_set d k (Array.unsafe_get s !i);
          incr i
        end
        else begin
          Array.unsafe_set d k (Array.unsafe_get s !j);
          incr j
        end
      done;
      lo := hi
    done;
    src := d;
    dst := s;
    width := 2 * w
  done;
  if !src != a then Array.blit !src 0 a 0 n

let sorted_keys t =
  let keys = Array.make (length t) 0 and n = ref 0 in
  iter
    (fun k _ ->
      Array.unsafe_set keys !n k;
      incr n)
    t;
  sort_ints keys;
  keys
