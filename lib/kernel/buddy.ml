(* Binary-buddy allocator over one or more physical-frame zones.

   This is the guest kernel's memory manager in CKI: the host delegates
   hPA segments and the guest buddy allocator hands frames straight to
   the page-fault handler — no gPA indirection.  Under scatter
   delegation a container receives several discontiguous chunks; each
   becomes a zone with its own free lists (a block never spans zones),
   and allocation tries zones in delegation order, so the allocation
   stream stays deterministic. *)

let max_order = 11 (* 2^11 frames = 8 MiB blocks *)

type zone = {
  base : Hw.Addr.pfn;
  frames : int;
  free_lists : Hw.Addr.pfn list array;  (** index = order *)
  head_order : Bytes.t;
      (** per zone frame: 1 + order of the allocated block it heads, 0 if
          it heads none *)
  mutable free_count : int;
}

type t = { zones : zone array }

exception Out_of_memory

let make_zone ~base ~frames =
  if frames <= 0 then invalid_arg "Buddy.create";
  let z =
    {
      base;
      frames;
      free_lists = Array.make (max_order + 1) [];
      head_order = Bytes.make frames '\000';
      free_count = frames;
    }
  in
  (* Seed free lists greedily with the largest aligned blocks. *)
  let rec seed pfn remaining =
    if remaining > 0 then begin
      let rel = pfn - base in
      let order =
        let rec fit o =
          if o = 0 then 0
          else if 1 lsl o <= remaining && rel land ((1 lsl o) - 1) = 0 then o
          else fit (o - 1)
        in
        fit max_order
      in
      z.free_lists.(order) <- pfn :: z.free_lists.(order);
      seed (pfn + (1 lsl order)) (remaining - (1 lsl order))
    end
  in
  seed base frames;
  z

let create_zones ~segments =
  if segments = [] then invalid_arg "Buddy.create_zones";
  { zones = Array.of_list (List.map (fun (base, frames) -> make_zone ~base ~frames) segments) }

let create ~base ~frames = create_zones ~segments:[ (base, frames) ]

let total_frames t = Array.fold_left (fun acc z -> acc + z.frames) 0 t.zones

let free_frames t = Array.fold_left (fun acc z -> acc + z.free_count) 0 t.zones

let zone_of t pfn =
  let rec find i =
    if i = Array.length t.zones then invalid_arg "Buddy: frame outside every zone"
    else
      let z = t.zones.(i) in
      if pfn >= z.base && pfn < z.base + z.frames then z else find (i + 1)
  in
  find 0

(* [List.mem] and [List.filter] on frame lists, without the polymorphic
   comparison: [remove] drops the one occurrence and keeps the order. *)
let rec mem (pfn : Hw.Addr.pfn) = function [] -> false | p :: rest -> p = pfn || mem pfn rest

let rec remove (pfn : Hw.Addr.pfn) = function
  | [] -> []
  | p :: rest -> if p = pfn then rest else p :: remove pfn rest

let set_head z pfn order = Bytes.set z.head_order (pfn - z.base) (Char.chr (order + 1))
let head_order z pfn = Char.code (Bytes.get z.head_order (pfn - z.base)) - 1

let buddy_of z pfn order = ((pfn - z.base) lxor (1 lsl order)) + z.base

(* Allocate a block of 2^order frames from [z]; returns its first pfn. *)
let zone_alloc_order z order =
  let rec take o =
    if o > max_order then raise Out_of_memory
    else
      match z.free_lists.(o) with
      | [] -> take (o + 1)
      | pfn :: rest ->
          z.free_lists.(o) <- rest;
          (* Split back down to the requested order. *)
          let rec split cur =
            if cur > order then begin
              let half = cur - 1 in
              let upper = pfn + (1 lsl half) in
              z.free_lists.(half) <- upper :: z.free_lists.(half);
              split half
            end
          in
          split o;
          pfn
  in
  let pfn = take order in
  set_head z pfn order;
  z.free_count <- z.free_count - (1 lsl order);
  pfn

let alloc_order t order =
  if order < 0 || order > max_order then invalid_arg "Buddy.alloc_order";
  let rec try_zone i =
    if i >= Array.length t.zones then raise Out_of_memory
    else match zone_alloc_order t.zones.(i) order with
      | pfn -> pfn
      | exception Out_of_memory -> try_zone (i + 1)
  in
  try_zone 0

let alloc t = alloc_order t 0

(* Allocate a 2 MiB-aligned 512-frame block for a huge-page mapping. *)
let alloc_huge t = alloc_order t 9

let rec coalesce z pfn order =
  if order >= max_order then z.free_lists.(order) <- pfn :: z.free_lists.(order)
  else
    let b = buddy_of z pfn order in
    if b >= z.base && b < z.base + z.frames && mem b z.free_lists.(order) then begin
      z.free_lists.(order) <- remove b z.free_lists.(order);
      coalesce z (min pfn b) (order + 1)
    end
    else z.free_lists.(order) <- pfn :: z.free_lists.(order)

let base t = t.zones.(0).base

let zones t = Array.to_list (Array.map (fun z -> (z.base, z.frames)) t.zones)

(* Allocated block heads with orders, in ascending frame order within
   each zone — the allocator's logical state for snapshot capture (free
   lists are derived on restore). *)
let allocated_blocks t =
  Array.fold_right
    (fun z acc ->
      let l = ref acc and i = ref (z.frames - 1) in
      while !i >= 0 do
        (* Heads are sparse: skip eight frames that head nothing at once. *)
        if !i land 7 = 7 && Bytes.get_int64_le z.head_order (!i - 7) = 0L then i := !i - 8
        else begin
          let c = Char.code (Bytes.get z.head_order !i) in
          if c > 0 then l := (z.base + !i, c - 1) :: !l;
          decr i
        end
      done;
      !l)
    t.zones []

(* Snapshot restore: carve the specific block [pfn, pfn + 2^order) out
   of a fresh allocator, reproducing the captured allocation pattern. *)
let reserve t pfn order =
  if order < 0 || order > max_order then invalid_arg "Buddy.reserve";
  let z = zone_of t pfn in
  if (pfn - z.base) land ((1 lsl order) - 1) <> 0 then
    invalid_arg "Buddy.reserve: misaligned block";
  (* Find the free block containing [pfn] — it must sit at order >= the
     requested one for the reservation to be satisfiable.  Blocks are
     aligned to their size within the zone, so at each order only one
     block can contain [pfn]. *)
  let rec containing o =
    if o > max_order then invalid_arg "Buddy.reserve: block not free"
    else
      let b = z.base + ((pfn - z.base) land lnot ((1 lsl o) - 1)) in
      if mem b z.free_lists.(o) then (b, o) else containing (o + 1)
  in
  let b0, o0 = containing order in
  z.free_lists.(o0) <- remove b0 z.free_lists.(o0);
  (* Split down, keeping the halves that do not contain [pfn] free. *)
  let rec split b o =
    if o = order then assert (b = pfn)
    else begin
      let half = o - 1 in
      let upper = b + (1 lsl half) in
      if pfn < upper then begin
        z.free_lists.(half) <- upper :: z.free_lists.(half);
        split b half
      end
      else begin
        z.free_lists.(half) <- b :: z.free_lists.(half);
        split upper half
      end
    end
  in
  split b0 o0;
  set_head z pfn order;
  z.free_count <- z.free_count - (1 lsl order)

let free t pfn =
  let z = zone_of t pfn in
  match head_order z pfn with
  | -1 -> invalid_arg "Buddy.free: not an allocated block head"
  | order ->
      Bytes.set z.head_order (pfn - z.base) '\000';
      z.free_count <- z.free_count + (1 lsl order);
      coalesce z pfn order

(* Sanity invariant for tests: free-list accounting matches free_count
   and every free block is inside its zone. *)
let check_invariants t =
  Array.for_all
    (fun z ->
      let counted = ref 0 in
      Array.iteri
        (fun order lst ->
          List.iter
            (fun pfn ->
              if pfn < z.base || pfn + (1 lsl order) > z.base + z.frames then
                failwith "Buddy: free block out of range";
              counted := !counted + (1 lsl order))
            lst)
        z.free_lists;
      !counted = z.free_count)
    t.zones
