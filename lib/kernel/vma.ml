(* Virtual memory areas: an interval map over page-aligned ranges. *)

module Int_map = Map.Make (Int)

type prot = { read : bool; write : bool; exec : bool } [@@deriving show { with_path = false }, eq]

let prot_rw = { read = true; write = true; exec = false }
let prot_ro = { read = true; write = false; exec = false }

type backing = Anon | File of { inode : int; offset : int } | Stack | Heap
[@@deriving show { with_path = false }, eq]

type area = {
  start : Hw.Addr.va;  (** inclusive, page aligned *)
  stop : Hw.Addr.va;  (** exclusive, page aligned *)
  mutable prot : prot;
  backing : backing;
}

type t = { mutable areas : area Int_map.t (* keyed by start *) }

let create () = { areas = Int_map.empty }

let check_range start stop =
  if not (Hw.Addr.is_page_aligned start && Hw.Addr.is_page_aligned stop && start < stop) then
    invalid_arg "Vma: bad range"

(* The area containing [va], if any. *)
let find t va =
  match Int_map.find_last_opt (fun s -> s <= va) t.areas with
  | Some (_, a) when va < a.stop -> Some a
  | _ -> None

let overlaps t ~start ~stop =
  check_range start stop;
  match Int_map.find_last_opt (fun s -> s < stop) t.areas with
  | Some (_, a) -> a.stop > start
  | None -> false

exception Overlap

let add t ~start ~stop ~prot ~backing =
  check_range start stop;
  if overlaps t ~start ~stop then raise Overlap;
  let a = { start; stop; prot; backing } in
  t.areas <- Int_map.add start a t.areas;
  a

(* Remove [start, stop); splits partially-covered areas.  Returns the
   removed page count. *)
let remove t ~start ~stop =
  check_range start stop;
  let removed = ref 0 in
  let affected =
    Int_map.filter (fun _ a -> a.start < stop && a.stop > start) t.areas
  in
  Int_map.iter
    (fun key a ->
      t.areas <- Int_map.remove key t.areas;
      let cut_lo = max a.start start and cut_hi = min a.stop stop in
      removed := !removed + ((cut_hi - cut_lo) / Hw.Addr.page_size);
      if a.start < cut_lo then
        t.areas <- Int_map.add a.start { a with stop = cut_lo } t.areas;
      if a.stop > cut_hi then
        t.areas <- Int_map.add cut_hi { a with start = cut_hi } t.areas)
    affected;
  !removed

(* Change protection over [start, stop); splits as needed.  Returns the
   areas now exactly covering the range. *)
let protect t ~start ~stop ~prot =
  check_range start stop;
  let affected = Int_map.filter (fun _ a -> a.start < stop && a.stop > start) t.areas in
  let result = ref [] in
  Int_map.iter
    (fun key a ->
      t.areas <- Int_map.remove key t.areas;
      let cut_lo = max a.start start and cut_hi = min a.stop stop in
      if a.start < cut_lo then t.areas <- Int_map.add a.start { a with stop = cut_lo } t.areas;
      if a.stop > cut_hi then t.areas <- Int_map.add cut_hi { a with start = cut_hi } t.areas;
      let mid = { a with start = cut_lo; stop = cut_hi; prot } in
      t.areas <- Int_map.add cut_lo mid t.areas;
      result := mid :: !result)
    affected;
  !result

let iter t f = Int_map.iter (fun _ a -> f a) t.areas
let count t = Int_map.cardinal t.areas
let total_pages t =
  Int_map.fold (fun _ a n -> n + ((a.stop - a.start) / Hw.Addr.page_size)) t.areas 0

(* First gap of [pages] pages at or above [from] — the mmap allocator. *)
let find_gap t ~from ~pages =
  let need = pages * Hw.Addr.page_size in
  let rec scan candidate seq =
    match seq () with
    | Seq.Nil -> candidate
    | Seq.Cons ((_, a), rest) ->
        if a.stop <= candidate then scan candidate rest
        else if a.start >= candidate + need then candidate
        else scan (max candidate a.stop) rest
  in
  scan from (Int_map.to_seq t.areas)
