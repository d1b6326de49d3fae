(* Tests for Hw: addresses, PTEs, physical memory, page tables. *)

open Alcotest

let check_int = check int
let check_bool = check bool

(* ------------------------------ Addr ------------------------------ *)

let test_page_alignment () =
  check_int "align_down" 0x2000 (Hw.Addr.page_align_down 0x2abc);
  check_int "align_up" 0x3000 (Hw.Addr.page_align_up 0x2abc);
  check_int "align_up exact" 0x2000 (Hw.Addr.page_align_up 0x2000);
  check_bool "aligned" true (Hw.Addr.is_page_aligned 0x4000);
  check_bool "unaligned" false (Hw.Addr.is_page_aligned 0x4001)

let test_pfn_roundtrip () =
  check_int "pfn" 5 (Hw.Addr.pfn_of_pa (5 * 4096));
  check_int "pa" (7 * 4096) (Hw.Addr.pa_of_pfn 7);
  check_int "offset" 0xabc (Hw.Addr.page_offset 0x2abc)

let test_index_at_level () =
  (* va = idx4<<39 | idx3<<30 | idx2<<21 | idx1<<12 *)
  let va = (3 lsl 39) lor (5 lsl 30) lor (7 lsl 21) lor (11 lsl 12) lor 0x123 in
  check_int "l4" 3 (Hw.Addr.index_at_level ~lvl:4 va);
  check_int "l3" 5 (Hw.Addr.index_at_level ~lvl:3 va);
  check_int "l2" 7 (Hw.Addr.index_at_level ~lvl:2 va);
  check_int "l1" 11 (Hw.Addr.index_at_level ~lvl:1 va);
  check_raises "bad level" (Invalid_argument "Addr.index_at_level") (fun () ->
      ignore (Hw.Addr.index_at_level ~lvl:5 va))

let test_pages_of_bytes () =
  check_int "zero" 0 (Hw.Addr.pages_of_bytes 0);
  check_int "one byte" 1 (Hw.Addr.pages_of_bytes 1);
  check_int "exact" 2 (Hw.Addr.pages_of_bytes 8192);
  check_int "over" 3 (Hw.Addr.pages_of_bytes 8193)

(* ------------------------------ Pte ------------------------------- *)

let test_pte_roundtrip () =
  let flags = { Hw.Pte.writable = true; user = true; nx = true; huge = false; pkey = 5 } in
  let e = Hw.Pte.make ~pfn:1234 ~flags in
  check_bool "present" true (Hw.Pte.is_present e);
  check_int "pfn" 1234 (Hw.Pte.pfn e);
  check_int "pkey" 5 (Hw.Pte.pkey e);
  check_bool "w" true (Hw.Pte.is_writable e);
  check_bool "u" true (Hw.Pte.is_user e);
  check_bool "nx" true (Hw.Pte.is_nx e);
  check_bool "huge" false (Hw.Pte.is_huge e)

let test_pte_empty_and_bits () =
  check_bool "empty not present" false (Hw.Pte.is_present Hw.Pte.empty);
  let e = Hw.Pte.make ~pfn:1 ~flags:Hw.Pte.default_flags in
  let e = Hw.Pte.mark_accessed e in
  let e = Hw.Pte.mark_dirty e in
  check_bool "A" true (Hw.Pte.is_accessed e);
  check_bool "D" true (Hw.Pte.is_dirty e);
  let e = Hw.Pte.clear_accessed_dirty e in
  check_bool "A cleared" false (Hw.Pte.is_accessed e);
  check_bool "D cleared" false (Hw.Pte.is_dirty e)

let test_pte_with_pkey () =
  let e = Hw.Pte.make ~pfn:42 ~flags:Hw.Pte.default_flags in
  let e = Hw.Pte.with_pkey e 9 in
  check_int "pkey updated" 9 (Hw.Pte.pkey e);
  check_int "pfn preserved" 42 (Hw.Pte.pfn e);
  check_raises "pkey range" (Invalid_argument "Pte.with_pkey") (fun () ->
      ignore (Hw.Pte.with_pkey e 16))

let test_pte_bad_args () =
  check_raises "pfn range" (Invalid_argument "Pte.make: pfn out of range") (fun () ->
      ignore (Hw.Pte.make ~pfn:(-1) ~flags:Hw.Pte.default_flags));
  check_raises "pkey range" (Invalid_argument "Pte.make: pkey out of range") (fun () ->
      ignore (Hw.Pte.make ~pfn:1 ~flags:{ Hw.Pte.default_flags with pkey = 16 }))

let prop_pte_roundtrip =
  QCheck.Test.make ~name:"pte encode/decode roundtrip" ~count:500
    QCheck.(quad (int_bound 100000) bool bool (int_bound 15))
    (fun (pfn, w, u, pkey) ->
      let flags = { Hw.Pte.writable = w; user = u; nx = false; huge = false; pkey } in
      let e = Hw.Pte.make ~pfn ~flags in
      Hw.Pte.pfn e = pfn && Hw.Pte.flags_of e = flags)

(* ---------------------------- Phys_mem ---------------------------- *)

let test_phys_alloc_free () =
  let m = Hw.Phys_mem.create ~frames:64 in
  let a = Hw.Phys_mem.alloc m ~owner:Hw.Phys_mem.Host ~kind:Hw.Phys_mem.Data in
  let b = Hw.Phys_mem.alloc m ~owner:(Hw.Phys_mem.Container 1) ~kind:Hw.Phys_mem.Data in
  check_bool "distinct" true (a <> b);
  check_bool "owner a" true (Hw.Phys_mem.owner m a = Hw.Phys_mem.Host);
  check_bool "owner b" true (Hw.Phys_mem.owner m b = Hw.Phys_mem.Container 1);
  check_int "free count" 62 (Hw.Phys_mem.free_frames m);
  Hw.Phys_mem.free m a;
  check_int "free count after" 63 (Hw.Phys_mem.free_frames m);
  check_raises "double free" (Invalid_argument "Phys_mem.free: double free") (fun () ->
      Hw.Phys_mem.free m a)

let test_phys_contiguous () =
  let m = Hw.Phys_mem.create ~frames:32 in
  let base = Hw.Phys_mem.alloc_contiguous m ~owner:Hw.Phys_mem.Host ~kind:Hw.Phys_mem.Data ~count:8 in
  for i = base to base + 7 do
    check_bool "owned" true (Hw.Phys_mem.owner m i = Hw.Phys_mem.Host)
  done;
  (* Fragment: free middle, ask for a larger run. *)
  Hw.Phys_mem.free m (base + 3);
  let base2 = Hw.Phys_mem.alloc_contiguous m ~owner:Hw.Phys_mem.Host ~kind:Hw.Phys_mem.Data ~count:16 in
  check_bool "skips fragmented hole" true (base2 >= base + 8)

let test_phys_oom () =
  let m = Hw.Phys_mem.create ~frames:4 in
  for _ = 1 to 4 do
    ignore (Hw.Phys_mem.alloc m ~owner:Hw.Phys_mem.Host ~kind:Hw.Phys_mem.Data)
  done;
  check_raises "oom" Hw.Phys_mem.Out_of_memory (fun () ->
      ignore (Hw.Phys_mem.alloc m ~owner:Hw.Phys_mem.Host ~kind:Hw.Phys_mem.Data));
  check_raises "contig oom" Hw.Phys_mem.Out_of_memory (fun () ->
      ignore (Hw.Phys_mem.alloc_contiguous m ~owner:Hw.Phys_mem.Host ~kind:Hw.Phys_mem.Data ~count:2))

let test_phys_table_entries () =
  let m = Hw.Phys_mem.create ~frames:8 in
  let f = Hw.Phys_mem.alloc m ~owner:Hw.Phys_mem.Host ~kind:(Hw.Phys_mem.Page_table 1) in
  Hw.Phys_mem.write_entry m ~pfn:f ~index:5 42L;
  check_bool "read back" true (Hw.Phys_mem.read_entry m ~pfn:f ~index:5 = 42L);
  check_bool "other slot zero" true (Hw.Phys_mem.read_entry m ~pfn:f ~index:6 = 0L);
  Hw.Phys_mem.clear_table m f;
  check_bool "cleared" true (Hw.Phys_mem.read_entry m ~pfn:f ~index:5 = 0L);
  check_raises "bad index" (Invalid_argument "Phys_mem.read_entry") (fun () ->
      ignore (Hw.Phys_mem.read_entry m ~pfn:f ~index:512))

let test_phys_refcount () =
  let m = Hw.Phys_mem.create ~frames:8 in
  let f = Hw.Phys_mem.alloc m ~owner:Hw.Phys_mem.Host ~kind:Hw.Phys_mem.Data in
  Hw.Phys_mem.incr_ref m f;
  Hw.Phys_mem.incr_ref m f;
  check_int "refcount" 2 (Hw.Phys_mem.refcount m f);
  Hw.Phys_mem.decr_ref m f;
  check_int "refcount down" 1 (Hw.Phys_mem.refcount m f);
  Hw.Phys_mem.decr_ref m f;
  check_raises "underflow" (Invalid_argument "Phys_mem.decr_ref: refcount underflow") (fun () ->
      Hw.Phys_mem.decr_ref m f)

(* A frame's (index, entry) pairs for its nonzero entries, ascending. *)
let nonzero_entries m pfn =
  let acc = ref [] in
  Hw.Phys_mem.iter_entries m ~pfn (fun i e -> acc := (i, e) :: !acc);
  List.rev !acc

(* Every reader agrees that [pfn] holds a free frame's values. *)
let check_reads_free what m pfn =
  let name s = Printf.sprintf "%s: pfn %d %s" what pfn s in
  check_bool (name "owner Free") true (Hw.Phys_mem.owner m pfn = Hw.Phys_mem.Free);
  check_bool (name "kind Unused") true (Hw.Phys_mem.kind m pfn = Hw.Phys_mem.Unused);
  check_bool (name "is_free") true (Hw.Phys_mem.is_free m pfn);
  check_int (name "refcount") 0 (Hw.Phys_mem.refcount m pfn);
  check_bool (name "not shared") false (Hw.Phys_mem.is_shared_ro m pfn);
  check_bool (name "read_entry") true (Hw.Phys_mem.read_entry m ~pfn ~index:511 = 0L);
  check_int (name "iter_entries visits") 0 (List.length (nonzero_entries m pfn));
  let buf = Bytes.make 4096 'x' in
  Hw.Phys_mem.read_bytes m ~pfn buf ~off:0 ~len:4096;
  check_bool (name "read_bytes zero-fills") true (Bytes.for_all (fun c -> c = '\000') buf)

(* Frame metadata is built per 4096-frame chunk on first write, so a
   4 GiB machine costs its free bitmap and chunk directory, not 4
   words and a byte per frame (about 4.36 M words when it did). *)
let test_phys_untouched_cost () =
  let heap_words () =
    let s = Gc.quick_stat () in
    s.minor_words +. s.major_words -. s.promoted_words
  in
  let frames = 1 lsl 20 in
  let w0 = heap_words () in
  let m = Hw.Phys_mem.create ~frames in
  let words = heap_words () -. w0 in
  check_bool (Printf.sprintf "create 4 GiB: %.0f heap words < 100000" words) true (words < 100_000.);
  check_reads_free "untouched" m (frames - 1)

(* A chunk is built by the first write into it, never shared: writers
   on machine [a] leave a fresh machine [b] free at the same pfns, and
   the frames either side of a chunk boundary keep their own fields. *)
let test_phys_writers_stay_local () =
  let module P = Hw.Phys_mem in
  let frames = 10 * 4096 in
  let a = P.create ~frames in
  let first = P.alloc a ~owner:P.Host ~kind:P.Data in
  let run = P.alloc_contiguous a ~owner:(P.Container 1) ~kind:P.Data ~count:4097 in
  check_int "alloc takes pfn 0" 0 first;
  check_int "run spans the boundary" 1 run;
  let pfn c = (c * 4096) + 17 in
  P.set_kind a (pfn 2) (P.Page_table 1);
  P.set_owner a (pfn 3) (P.Ksm 2);
  P.incr_ref a (pfn 4);
  P.set_shared_ro a (pfn 5) true;
  P.write_entry a ~pfn:(pfn 6) ~index:3 7L;
  P.write_run a ~pfn:(pfn 7) ~index:0 ~count:4 ~first:1L ~step:1L;
  P.write_bytes a ~pfn:(pfn 8) (Bytes.make 16 'y') ~off:0 ~len:16;
  check_bool "a: kind written" true (P.kind a (pfn 2) = P.Page_table 1);
  check_bool "a: owner written" true (P.owner a (pfn 3) = P.Ksm 2);
  check_int "a: refcount written" 1 (P.refcount a (pfn 4));
  check_bool "a: shared written" true (P.is_shared_ro a (pfn 5));
  check_bool "a: entry written" true (P.read_entry a ~pfn:(pfn 6) ~index:3 = 7L);
  check_bool "a: run written" true (P.read_entry a ~pfn:(pfn 7) ~index:3 = 4L);
  check_int "a: bytes written" 2 (List.length (nonzero_entries a (pfn 8)));
  check_reads_free "a: rest of a built chunk" a (pfn 2 + 1);
  check_reads_free "a: unbuilt chunk" a (pfn 9);
  let b = P.create ~frames in
  List.iter (check_reads_free "fresh b" b) [ 0; 1; 4095; 4096; 4097 ];
  for c = 2 to 9 do
    check_reads_free "fresh b" b (pfn c)
  done;
  P.set_kind a 4095 (P.Page_table 1);
  P.write_entry a ~pfn:4095 ~index:0 9L;
  P.set_shared_ro a 4096 true;
  P.incr_ref a 4096;
  check_bool "4095 kind" true (P.kind a 4095 = P.Page_table 1);
  check_bool "4096 kind" true (P.kind a 4096 = P.Data);
  check_bool "4096 entry" true (P.read_entry a ~pfn:4096 ~index:0 = 0L);
  check_bool "4095 not shared" false (P.is_shared_ro a 4095);
  check_int "4095 refcount" 0 (P.refcount a 4095);
  check_int "4096 refcount" 1 (P.refcount a 4096);
  P.set_shared_ro a 4096 false;
  P.decr_ref a 4096;
  P.free_range a ~base:run ~count:4097;
  List.iter (check_reads_free "a: freed across the boundary" a) [ 4095; 4096 ];
  check_int "a: owned by Container 1" 0 (P.count_owned a (fun o -> o = P.Container 1))

(* Word-at-a-time reference for the page copies: [len] bytes of [buf]
   at [off] packed little-endian, one [write_entry] per word with the
   tail word zero-padded, and unpacked one [read_entry] per byte. *)
let ref_write_bytes m ~pfn src ~off ~len =
  for w = 0 to ((len + 7) / 8) - 1 do
    let v = ref 0L in
    for b = 0 to min 7 (len - (w * 8) - 1) do
      let byte = Int64.of_int (Char.code (Bytes.get src (off + (w * 8) + b))) in
      v := Int64.logor !v (Int64.shift_left byte (8 * b))
    done;
    Hw.Phys_mem.write_entry m ~pfn ~index:w !v
  done

let ref_read_bytes m ~pfn dst ~off ~len =
  for i = 0 to len - 1 do
    let v = Hw.Phys_mem.read_entry m ~pfn ~index:(i / 8) in
    Bytes.set dst (off + i)
      (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * (i mod 8))) 0xFFL)))
  done

(* Page copy and reference agree on a frame pre-filled with random
   words: the same 512 entries after the write (so the zero-padded tail
   word and the untouched words match), the same bytes read back, and
   those bytes are the source's. *)
let page_copy_matches_reference ~len ~off ~seed =
  let rng = Random.State.make [| seed |] in
  let frame () =
    let m = Hw.Phys_mem.create ~frames:1 in
    (m, Hw.Phys_mem.alloc m ~owner:Hw.Phys_mem.Host ~kind:Hw.Phys_mem.Data)
  in
  let (m, f), (r, g) = (frame (), frame ()) in
  for index = 0 to 511 do
    let v = Random.State.bits64 rng in
    Hw.Phys_mem.write_entry m ~pfn:f ~index v;
    Hw.Phys_mem.write_entry r ~pfn:g ~index v
  done;
  let src = Bytes.init (off + len + 3) (fun _ -> Char.chr (Random.State.int rng 256)) in
  Hw.Phys_mem.write_bytes m ~pfn:f src ~off ~len;
  ref_write_bytes r ~pfn:g src ~off ~len;
  let got = Bytes.make (off + len + 3) '?' and want = Bytes.make (off + len + 3) '?' in
  Hw.Phys_mem.read_bytes m ~pfn:f got ~off ~len;
  ref_read_bytes r ~pfn:g want ~off ~len;
  nonzero_entries m f = nonzero_entries r g
  && Bytes.equal got want
  && Bytes.sub got off len = Bytes.sub src off len

(* iter_entries against the 512-read reference, over random histories
   of one small machine: entry writes (a third of them zero), page
   copies, clears, and free + re-allocation (which recycles the arena
   slot).  Every frame is allocated up front, so a freed frame is the
   only free one and comes straight back; frames never written have no
   slot.  With memory tracing on, each call is exactly one event. *)
let frames_in_model = 4

let reference_entries m pfn =
  List.filter
    (fun (_, e) -> not (Int64.equal e 0L))
    (List.init 512 (fun index -> (index, Hw.Phys_mem.read_entry m ~pfn ~index)))

let run_entry_history ops =
  let m = Hw.Phys_mem.create ~frames:frames_in_model in
  let frames =
    Array.init frames_in_model (fun _ ->
        Hw.Phys_mem.alloc m ~owner:Hw.Phys_mem.Host ~kind:(Hw.Phys_mem.Page_table 1))
  in
  List.iter
    (fun (op, f, index, v) ->
      let pfn = frames.(f) in
      match op mod 6 with
      | 0 | 1 -> Hw.Phys_mem.write_entry m ~pfn ~index v
      | 2 -> Hw.Phys_mem.write_entry m ~pfn ~index 0L
      | 3 ->
          let len = (index * 8) + Int64.to_int (Int64.logand v 7L) in
          let src = Bytes.init len (fun i -> Char.chr ((Int64.to_int v + i) land 0xFF)) in
          Hw.Phys_mem.write_bytes m ~pfn src ~off:0 ~len
      | 4 -> Hw.Phys_mem.clear_table m pfn
      | _ ->
          Hw.Phys_mem.free m pfn;
          frames.(f) <- Hw.Phys_mem.alloc m ~owner:Hw.Phys_mem.Host ~kind:(Hw.Phys_mem.Page_table 1))
    ops;
  (m, frames)

let prop_iter_entries_model =
  QCheck.Test.make ~name:"iter_entries = read_entry over 512" ~count:300
    QCheck.(
      small_list
        (quad (int_bound 5) (int_bound (frames_in_model - 1)) (int_bound 511) int64))
    (fun ops ->
      let m, frames = run_entry_history ops in
      Array.for_all (fun pfn -> nonzero_entries m pfn = reference_entries m pfn) frames)

(* write_run stores what one write_entry per entry would, including
   the dirty range a later iter_entries and slot recycling rely on. *)
let prop_write_run =
  QCheck.Test.make ~name:"write_run = write_entry per entry" ~count:200
    QCheck.(quad (int_bound 511) (int_bound 512) int64 int64)
    (fun (index, count, first, step) ->
      let count = min count (512 - index) in
      let m = Hw.Phys_mem.create ~frames:2 in
      let f = Hw.Phys_mem.alloc m ~owner:Hw.Phys_mem.Host ~kind:(Hw.Phys_mem.Page_table 1) in
      let g = Hw.Phys_mem.alloc m ~owner:Hw.Phys_mem.Host ~kind:(Hw.Phys_mem.Page_table 1) in
      Hw.Phys_mem.write_run m ~pfn:f ~index ~count ~first ~step;
      for k = 0 to count - 1 do
        Hw.Phys_mem.write_entry m ~pfn:g ~index:(index + k) (Int64.add first (Int64.mul (Int64.of_int k) step))
      done;
      let same = nonzero_entries m f = nonzero_entries m g in
      Hw.Phys_mem.free m f;
      let f' = Hw.Phys_mem.alloc m ~owner:Hw.Phys_mem.Host ~kind:(Hw.Phys_mem.Page_table 1) in
      same && nonzero_entries m f' = [])

let test_write_run_bounds () =
  let m = Hw.Phys_mem.create ~frames:1 in
  let f = Hw.Phys_mem.alloc m ~owner:Hw.Phys_mem.Host ~kind:(Hw.Phys_mem.Page_table 1) in
  check_raises "past the table" (Invalid_argument "Phys_mem.write_run") (fun () ->
      Hw.Phys_mem.write_run m ~pfn:f ~index:500 ~count:13 ~first:1L ~step:1L);
  Hw.Phys_mem.write_run m ~pfn:f ~index:500 ~count:0 ~first:1L ~step:1L;
  check_int "empty run acquires no slot" 0 (Hw.Phys_mem.table_slots m)

let edge_lengths = [ 0; 1; 7; 8; 9; 4095; 4096 ]

let prop_page_copy =
  QCheck.Test.make ~name:"page copy = word-at-a-time reference" ~count:200
    QCheck.(triple (oneof [ oneofl edge_lengths; int_bound 4096 ]) (int_bound 16) int)
    (fun (len, off, seed) -> page_copy_matches_reference ~len ~off ~seed)

let test_phys_bytes_edge_lengths () =
  List.iter
    (fun len ->
      List.iter
        (fun off ->
          check_bool
            (Printf.sprintf "len %d off %d" len off)
            true
            (page_copy_matches_reference ~len ~off ~seed:(len + off)))
        [ 0; 3 ])
    edge_lengths

let test_phys_bytes_cases () =
  let m = Hw.Phys_mem.create ~frames:1 in
  let f = Hw.Phys_mem.alloc m ~owner:Hw.Phys_mem.Host ~kind:Hw.Phys_mem.Data in
  let buf = Bytes.make 4096 'x' in
  let zeros () = Bytes.for_all (fun c -> c = '\000') buf in
  Hw.Phys_mem.read_bytes m ~pfn:f buf ~off:0 ~len:4096;
  check_bool "slot-less frame reads zeros" true (zeros ());
  Hw.Phys_mem.write_bytes m ~pfn:f buf ~off:0 ~len:0;
  Hw.Phys_mem.read_bytes m ~pfn:f buf ~off:0 ~len:0;
  check_int "len 0 acquires no slot" 0 (Hw.Phys_mem.table_slots m);
  Hw.Phys_mem.write_bytes m ~pfn:f (Bytes.make 4096 'y') ~off:0 ~len:4096;
  Hw.Phys_mem.read_bytes m ~pfn:f buf ~off:0 ~len:4096;
  check_bool "page copy reads back" true (Bytes.for_all (fun c -> c = 'y') buf);
  check_int "written frame holds a slot" 1 (Hw.Phys_mem.table_slots m);
  Hw.Phys_mem.free m f;
  let f' = Hw.Phys_mem.alloc m ~owner:Hw.Phys_mem.Host ~kind:Hw.Phys_mem.Data in
  check_int "same frame back" f f';
  Bytes.fill buf 0 4096 'x';
  Hw.Phys_mem.read_bytes m ~pfn:f' buf ~off:0 ~len:4096;
  check_bool "re-allocated frame reads zeros" true (zeros ());
  let big = Bytes.make 8192 'z' in
  List.iter
    (fun (what, len) ->
      check_raises ("write " ^ what) (Invalid_argument "Phys_mem.write_bytes") (fun () ->
          Hw.Phys_mem.write_bytes m ~pfn:f big ~off:0 ~len);
      check_raises ("read " ^ what) (Invalid_argument "Phys_mem.read_bytes") (fun () ->
          Hw.Phys_mem.read_bytes m ~pfn:f big ~off:0 ~len))
    [ ("len > 4096", 4097); ("negative len", -1) ];
  check_raises "range past the buffer" (Invalid_argument "Phys_mem.write_bytes") (fun () ->
      Hw.Phys_mem.write_bytes m ~pfn:f (Bytes.make 8 'z') ~off:4 ~len:8)

(* --------------------------- Page_table --------------------------- *)

let mk_pt () =
  let m = Hw.Phys_mem.create ~frames:4096 in
  (m, Hw.Page_table.create m ~owner:Hw.Phys_mem.Host)

let test_map_walk () =
  let _, pt = mk_pt () in
  ignore (Hw.Page_table.map pt ~va:0x1234000 ~pfn:77 ~flags:Hw.Pte.default_flags ());
  let w = Hw.Page_table.walk pt 0x1234567 in
  check_int "pfn" 77 (Hw.Pte.pfn w.Hw.Page_table.pte);
  check_int "leaf level" 1 w.Hw.Page_table.leaf_level;
  check_int "refs = 4 levels" 4 w.Hw.Page_table.refs;
  check_int "translate" ((77 * 4096) lor 0x567) (Hw.Page_table.translate pt 0x1234567)

let test_walk_fault () =
  let _, pt = mk_pt () in
  check_bool "unmapped" false (Hw.Page_table.is_mapped pt 0x9999000);
  (match Hw.Page_table.walk pt 0x9999000 with
  | exception Hw.Page_table.Translation_fault { va; _ } -> check_int "fault va" 0x9999000 va
  | _ -> fail "expected fault");
  ignore (Hw.Page_table.map pt ~va:0x9999000 ~pfn:1 ~flags:Hw.Pte.default_flags ());
  check_bool "mapped now" true (Hw.Page_table.is_mapped pt 0x9999000)

let test_unmap_update () =
  let _, pt = mk_pt () in
  ignore (Hw.Page_table.map pt ~va:0x4000 ~pfn:9 ~flags:Hw.Pte.default_flags ());
  Hw.Page_table.update pt 0x4000 (fun e -> Hw.Pte.with_writable e false);
  let w = Hw.Page_table.walk pt 0x4000 in
  check_bool "read-only now" false (Hw.Pte.is_writable w.Hw.Page_table.pte);
  let old = Hw.Page_table.unmap pt 0x4000 in
  check_int "unmapped pfn" 9 (Hw.Pte.pfn old);
  check_bool "gone" false (Hw.Page_table.is_mapped pt 0x4000);
  check_bool "unmap idempotent" true (Hw.Page_table.unmap pt 0x4000 = Hw.Pte.empty)

let test_huge_map () =
  let _, pt = mk_pt () in
  let va = 0x4000_0000 in
  ignore (Hw.Page_table.map_huge pt ~va ~pfn:512 ~flags:Hw.Pte.default_flags ());
  let w = Hw.Page_table.walk pt (va + 0x12345) in
  check_int "huge leaf level" 2 w.Hw.Page_table.leaf_level;
  check_int "refs = 3" 3 w.Hw.Page_table.refs;
  check_int "translate inside huge" ((512 * 4096) lor 0x12345) (Hw.Page_table.translate pt (va + 0x12345));
  check_raises "unaligned huge" (Invalid_argument "Page_table.map_huge: va not 2 MiB aligned")
    (fun () -> ignore (Hw.Page_table.map_huge pt ~va:0x1000 ~pfn:0 ~flags:Hw.Pte.default_flags ()))

let test_accessed_dirty () =
  let _, pt = mk_pt () in
  ignore (Hw.Page_table.map pt ~va:0x7000 ~pfn:3 ~flags:Hw.Pte.default_flags ());
  Hw.Page_table.set_accessed_dirty pt 0x7000 ~write:true;
  let w = Hw.Page_table.walk pt 0x7000 in
  check_bool "A" true (Hw.Pte.is_accessed w.Hw.Page_table.pte);
  check_bool "D" true (Hw.Pte.is_dirty w.Hw.Page_table.pte)

let test_count_mappings () =
  let _, pt = mk_pt () in
  let count () = Hw.Page_table.fold_leaves pt (fun n ~va:_ ~pte:_ ~level:_ -> n + 1) 0 in
  for i = 0 to 9 do
    ignore (Hw.Page_table.map pt ~va:(0x10000 + (i * 4096)) ~pfn:i ~flags:Hw.Pte.default_flags ())
  done;
  check_int "count" 10 (count ());
  ignore (Hw.Page_table.unmap pt 0x10000);
  check_int "count after unmap" 9 (count ())

let prop_map_then_walk =
  QCheck.Test.make ~name:"random map set: walk agrees with mapping" ~count:50
    QCheck.(small_list (pair (int_bound 0xFFFF) (int_bound 3000)))
    (fun pairs ->
      let _, pt = mk_pt () in
      let tbl = Hashtbl.create 16 in
      List.iter
        (fun (vpn, pfn) ->
          let va = vpn * 4096 in
          ignore (Hw.Page_table.map pt ~va ~pfn ~flags:Hw.Pte.default_flags ());
          Hashtbl.replace tbl va pfn)
        pairs;
      Hashtbl.fold
        (fun va pfn acc ->
          acc && Hw.Pte.pfn (Hw.Page_table.walk pt va).Hw.Page_table.pte = pfn)
        tbl true)

(* Random map/map_huge/unmap sequences over a small address grid (3 L4
   slots x 2 x 2 x 3 pages, so tables are shared and huge leaves land
   over 4 KiB ones) against a model: [descend] must stop where the
   model says, and [iter_tables] must enter every live table
   [alloc_table] handed out exactly once, at its level and first
   address; a huge leaf orphans the L1 table it replaces. *)
type pt_op = Map4k of int | Map2m of int | Unmap of int

let grid_va i =
  let l1 = i mod 3 and l2 = i / 3 mod 2 and l3 = i / 6 mod 2 and l4 = i / 12 mod 3 in
  (l4 lsl 39) lor (l3 lsl 30) lor (l2 lsl 21) lor (l1 lsl 12)

let prop_walkers_model =
  let op =
    QCheck.Gen.(
      map2
        (fun k i -> match k with 0 | 1 -> Map4k i | 2 -> Map2m i | _ -> Unmap i)
        (int_bound 3) (int_bound 35))
  in
  let print = function
    | Map4k i -> Printf.sprintf "map %d" i
    | Map2m i -> Printf.sprintf "map_huge %d" i
    | Unmap i -> Printf.sprintf "unmap %d" i
  in
  QCheck.Test.make ~name:"descend and iter_tables agree with a mapping model" ~count:200
    (QCheck.make ~print:QCheck.Print.(list print) QCheck.Gen.(list_size (int_bound 40) op))
    (fun ops ->
      let m, pt = mk_pt () in
      let root = Hw.Page_table.root pt in
      let base lvl va = va land lnot (Hw.Addr.span ~lvl:(lvl + 1) - 1) in
      (* frame -> (level, first va) of every live table; 4 KiB and huge leaves *)
      let tables = Hashtbl.create 16 and small = Hashtbl.create 16 and huge = Hashtbl.create 16 in
      Hashtbl.replace tables root (4, 0);
      let alloc va ~level =
        let pfn = Hw.Phys_mem.alloc m ~owner:Hw.Phys_mem.Host ~kind:(Hw.Phys_mem.Page_table level) in
        Hashtbl.replace tables pfn (level, base level va);
        pfn
      in
      let flags = Hw.Pte.default_flags in
      List.iteri
        (fun n op ->
          match op with
          | Map4k i ->
              let va = grid_va i in
              if Hashtbl.mem huge (base 1 va) then
                (match Hw.Page_table.map pt ~alloc_table:(alloc va) ~va ~pfn:n ~flags () with
                | _ -> failwith "map under a huge leaf"
                | exception Invalid_argument _ -> ())
              else begin
                ignore (Hw.Page_table.map pt ~alloc_table:(alloc va) ~va ~pfn:n ~flags ());
                Hashtbl.replace small va n
              end
          | Map2m i ->
              let va = base 1 (grid_va i) in
              ignore (Hw.Page_table.map_huge pt ~alloc_table:(alloc va) ~va ~pfn:(n * 512) ~flags ());
              Hashtbl.filter_map_inplace
                (fun _ (l, b) -> if l = 1 && b = va then None else Some (l, b))
                tables;
              Hashtbl.filter_map_inplace (fun v p -> if base 1 v = va then None else Some p) small;
              Hashtbl.replace huge va (n * 512)
          | Unmap i ->
              let va = grid_va i in
              ignore (Hw.Page_table.unmap pt va);
              Hashtbl.remove small va;
              Hashtbl.remove huge (base 1 va))
        ops;
      let descends_right i =
        let va = grid_va i in
        let level, table, e = Hw.Page_table.descend m ~stop:1 ~level:4 ~table:root va in
        Hashtbl.find_opt tables table = Some (level, base level va)
        &&
        match (Hashtbl.find_opt small va, Hashtbl.find_opt huge (base 1 va)) with
        | Some pfn, _ -> level = 1 && Hw.Pte.is_present e && Hw.Pte.pfn e = pfn
        | None, Some pfn -> level = 2 && Hw.Pte.is_huge e && Hw.Pte.pfn e = pfn
        | None, None -> not (Hw.Pte.is_present e)
      in
      let entered ?skip_slot () =
        let seen = Hashtbl.create 16 in
        Hw.Page_table.iter_tables m ?skip_slot
          ~enter:(fun ~level ~table ~va ->
            Hashtbl.add seen table (level, va);
            true)
          ~entry:(fun ~level ~table:_ ~va:_ ~index _ ->
            if level = 4 && Some index = skip_slot then failwith "skipped slot reported")
          () ~level:4 ~table:root ~va:0;
        seen
      in
      let same_as seen keep =
        Hashtbl.length seen = Hashtbl.fold (fun _ lb n -> if keep lb then n + 1 else n) tables 0
        && Hashtbl.fold (fun pfn lb ok -> ok && ((not (keep lb)) || Hashtbl.find_all seen pfn = [ lb ])) tables true
      in
      List.for_all descends_right (List.init 36 Fun.id)
      && same_as (entered ()) (fun _ -> true)
      && same_as (entered ~skip_slot:1 ()) (fun (l, b) -> l = 4 || b lsr 39 <> 1))

(* One subtree linked from two roots, at different L4 slots: one
   traversal over both roots enters it once when its visited set is
   keyed by frame, and at both places when keyed by (level, va). *)
let test_iter_tables_shared_subtree () =
  let m, a = mk_pt () in
  let b = Hw.Page_table.create m ~owner:Hw.Phys_mem.Host in
  ignore (Hw.Page_table.map a ~va:0x5000 ~pfn:7 ~flags:Hw.Pte.default_flags ());
  Hw.Phys_mem.write_entry m ~pfn:(Hw.Page_table.root b) ~index:1
    (Hw.Phys_mem.read_entry m ~pfn:(Hw.Page_table.root a) ~index:0);
  let count key =
    let visited = Hashtbl.create 8 and l1_visits = ref 0 and leaves = ref [] in
    let walk =
      Hw.Page_table.iter_tables m
        ~enter:(fun ~level ~table ~va ->
          let k = key ~level ~table ~va in
          (not (Hashtbl.mem visited k))
          && begin
               Hashtbl.replace visited k ();
               if level = 1 then incr l1_visits;
               true
             end)
        ~entry:(fun ~level ~table:_ ~va ~index:_ _ -> if level = 1 then leaves := va :: !leaves)
        ()
    in
    walk ~level:4 ~table:(Hw.Page_table.root a) ~va:0;
    walk ~level:4 ~table:(Hw.Page_table.root b) ~va:0;
    (!l1_visits, List.rev !leaves)
  in
  let once, at_a = count (fun ~level:_ ~table ~va:_ -> (table, 0, 0)) in
  check_int "frame-keyed: the shared L1 once" 1 once;
  check (list int) "frame-keyed: its leaf at the first place" [ 0x5000 ] at_a;
  let twice, at_both = count (fun ~level ~table ~va -> (table, level, va)) in
  check_int "place-keyed: the shared L1 at both places" 2 twice;
  check (list int) "place-keyed: its leaf at both places" [ 0x5000; (1 lsl 39) lor 0x5000 ] at_both

(* [set_entry_writable] is [read_entry], then [write_entry] of
   [Pte.with_writable] when the entry is present, reporting the state
   it found; the neighbours stay as they were, and a slot-less frame
   reads [Absent] and gains no slot. *)
let prop_set_entry_writable =
  QCheck.Test.make ~name:"set_entry_writable = read, with_writable, write" ~count:500
    QCheck.(quad int64 (int_range 0 511) bool (option int64))
    (fun (e, index, w, neighbour) ->
      let mem = Hw.Phys_mem.create ~frames:8 in
      let alloc () = Hw.Phys_mem.alloc mem ~owner:Hw.Phys_mem.Host ~kind:(Hw.Phys_mem.Page_table 1) in
      let pfn = alloc () and bare = alloc () in
      let near = if index = 511 then 510 else index + 1 in
      Option.iter (Hw.Phys_mem.write_entry mem ~pfn ~index:near) neighbour;
      Hw.Phys_mem.write_entry mem ~pfn ~index e;
      let slots = Hw.Phys_mem.table_slots mem in
      let want, after =
        if not (Hw.Pte.is_present e) then (Hw.Phys_mem.Absent, e)
        else
          ( (if Hw.Pte.is_writable e then Hw.Phys_mem.Writable else Hw.Phys_mem.Read_only),
            Hw.Pte.with_writable e w )
      in
      Hw.Phys_mem.set_entry_writable mem ~pfn ~index w = want
      && Int64.equal (Hw.Phys_mem.read_entry mem ~pfn ~index) after
      && Int64.equal (Hw.Phys_mem.read_entry mem ~pfn ~index:near) (Option.value neighbour ~default:0L)
      && Hw.Phys_mem.set_entry_writable mem ~pfn:bare ~index w = Hw.Phys_mem.Absent
      && Hw.Phys_mem.table_slots mem = slots)

let suite =
  [
    ( "hw/addr",
      [
        test_case "page alignment" `Quick test_page_alignment;
        test_case "pfn roundtrip" `Quick test_pfn_roundtrip;
        test_case "index at level" `Quick test_index_at_level;
        test_case "pages of bytes" `Quick test_pages_of_bytes;
      ] );
    ( "hw/pte",
      [
        test_case "roundtrip" `Quick test_pte_roundtrip;
        test_case "empty + A/D bits" `Quick test_pte_empty_and_bits;
        test_case "with_pkey" `Quick test_pte_with_pkey;
        test_case "bad args" `Quick test_pte_bad_args;
        QCheck_alcotest.to_alcotest prop_pte_roundtrip;
      ] );
    ( "hw/phys_mem",
      [
        test_case "alloc/free" `Quick test_phys_alloc_free;
        test_case "contiguous + fragmentation" `Quick test_phys_contiguous;
        test_case "out of memory" `Quick test_phys_oom;
        test_case "table entries" `Quick test_phys_table_entries;
        test_case "refcount" `Quick test_phys_refcount;
        test_case "page copy at edge lengths" `Quick test_phys_bytes_edge_lengths;
        test_case "page copy cases" `Quick test_phys_bytes_cases;
        QCheck_alcotest.to_alcotest prop_page_copy;
        QCheck_alcotest.to_alcotest prop_iter_entries_model;
        QCheck_alcotest.to_alcotest prop_write_run;
        QCheck_alcotest.to_alcotest prop_set_entry_writable;
        test_case "write_run bounds" `Quick test_write_run_bounds;
        test_case "untouched frames cost nothing" `Quick test_phys_untouched_cost;
        test_case "writers never reach another machine" `Quick test_phys_writers_stay_local;
      ] );
    ( "hw/page_table",
      [
        test_case "map + walk + translate" `Quick test_map_walk;
        test_case "translation fault" `Quick test_walk_fault;
        test_case "unmap + update" `Quick test_unmap_update;
        test_case "2 MiB huge mappings" `Quick test_huge_map;
        test_case "accessed/dirty" `Quick test_accessed_dirty;
        test_case "count mappings" `Quick test_count_mappings;
        QCheck_alcotest.to_alcotest prop_map_then_walk;
        QCheck_alcotest.to_alcotest prop_walkers_model;
        test_case "iter_tables: a subtree under two roots" `Quick test_iter_tables_shared_subtree;
      ] );
  ]
