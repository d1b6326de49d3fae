(* Tests for the kernel substrate: buddy, vma, mm, tmpfs, pipe, virtio,
   net, tasks, and end-to-end syscalls on the bare platform. *)

open Alcotest

let check_int = check int
let check_bool = check bool

let bare_platform () =
  let m = Hw.Machine.create ~cpus:1 ~mem_mib:64 () in
  Kernel_model.Platform.bare m

(* ------------------------------ Buddy ----------------------------- *)

let test_buddy_basic () =
  let b = Kernel_model.Buddy.create ~base:100 ~frames:64 in
  check_int "total" 64 (Kernel_model.Buddy.total_frames b);
  let f1 = Kernel_model.Buddy.alloc b in
  let f2 = Kernel_model.Buddy.alloc b in
  check_bool "distinct" true (f1 <> f2);
  check_bool "in range" true (f1 >= 100 && f1 < 164);
  check_int "free" 62 (Kernel_model.Buddy.free_frames b);
  Kernel_model.Buddy.free b f1;
  Kernel_model.Buddy.free b f2;
  check_int "all back" 64 (Kernel_model.Buddy.free_frames b);
  check_bool "invariants" true (Kernel_model.Buddy.check_invariants b)

let test_buddy_coalesce () =
  let b = Kernel_model.Buddy.create ~base:0 ~frames:16 in
  let fs = List.init 16 (fun _ -> Kernel_model.Buddy.alloc b) in
  check_int "exhausted" 0 (Kernel_model.Buddy.free_frames b);
  check_raises "oom" Kernel_model.Buddy.Out_of_memory (fun () ->
      ignore (Kernel_model.Buddy.alloc b));
  List.iter (Kernel_model.Buddy.free b) fs;
  (* After coalescing we must be able to allocate the whole range as
     one max-order block again. *)
  let big = Kernel_model.Buddy.alloc_order b 4 in
  check_int "coalesced to order 4" 0 big

let test_buddy_huge_alignment () =
  let b = Kernel_model.Buddy.create ~base:0 ~frames:2048 in
  let h = Kernel_model.Buddy.alloc_huge b in
  check_int "512-aligned" 0 (h land 511);
  Kernel_model.Buddy.free b h;
  check_bool "invariants" true (Kernel_model.Buddy.check_invariants b)

let test_buddy_double_free () =
  let b = Kernel_model.Buddy.create ~base:0 ~frames:8 in
  let f = Kernel_model.Buddy.alloc b in
  Kernel_model.Buddy.free b f;
  check_raises "double free" (Invalid_argument "Buddy.free: not an allocated block head")
    (fun () -> Kernel_model.Buddy.free b f)

let prop_buddy_no_overlap =
  QCheck.Test.make ~name:"buddy: live allocations never overlap" ~count:60
    QCheck.(small_list (int_bound 2))
    (fun orders ->
      let b = Kernel_model.Buddy.create ~base:0 ~frames:256 in
      let live = ref [] in
      List.iter
        (fun order ->
          (match Kernel_model.Buddy.alloc_order b order with
          | pfn -> live := (pfn, 1 lsl order) :: !live
          | exception Kernel_model.Buddy.Out_of_memory -> ());
          (* randomly free the oldest half of the time *)
          match !live with
          | (p, _) :: rest when order = 1 ->
              Kernel_model.Buddy.free b p;
              live := rest
          | _ -> ())
        orders;
      let no_overlap =
        let rec pairs = function
          | [] -> true
          | (p1, n1) :: rest ->
              List.for_all (fun (p2, n2) -> p1 + n1 <= p2 || p2 + n2 <= p1) rest && pairs rest
        in
        pairs (List.sort compare !live)
      in
      no_overlap && Kernel_model.Buddy.check_invariants b)

(* [allocated_blocks] lists every live block head with its order, zone
   by zone in delegation order and ascending inside a zone, over zones
   whose sizes are not a multiple of the eight heads it skips at once. *)
let prop_buddy_allocated_blocks =
  QCheck.Test.make ~name:"buddy: allocated_blocks lists live heads in zone order" ~count:100
    QCheck.(small_list (pair (int_bound 3) bool))
    (fun ops ->
      let zones = [ (1000, 203); (5, 61) ] in
      let b = Kernel_model.Buddy.create_zones ~segments:zones in
      let live = ref [] in
      List.iter
        (fun (order, free_oldest) ->
          (match Kernel_model.Buddy.alloc_order b order with
          | pfn -> live := !live @ [ (pfn, order) ]
          | exception Kernel_model.Buddy.Out_of_memory -> ());
          match !live with
          | (p, _) :: rest when free_oldest ->
              Kernel_model.Buddy.free b p;
              live := rest
          | _ -> ())
        ops;
      let expected =
        List.concat_map
          (fun (base, frames) ->
            List.sort compare (List.filter (fun (p, _) -> p >= base && p < base + frames) !live))
          zones
      in
      Kernel_model.Buddy.allocated_blocks b = expected)

(* ------------------------------- Vma ------------------------------ *)

let test_vma_add_find_overlap () =
  let v = Kernel_model.Vma.create () in
  let a =
    Kernel_model.Vma.add v ~start:0x10000 ~stop:0x14000 ~prot:Kernel_model.Vma.prot_rw
      ~backing:Kernel_model.Vma.Anon
  in
  check_bool "find inside" true (Kernel_model.Vma.find v 0x12fff = Some a);
  check_bool "find outside" true (Kernel_model.Vma.find v 0x14000 = None);
  check_bool "overlap detect" true (Kernel_model.Vma.overlaps v ~start:0x13000 ~stop:0x15000);
  check_bool "no overlap" false (Kernel_model.Vma.overlaps v ~start:0x14000 ~stop:0x15000);
  check_raises "add overlapping" Kernel_model.Vma.Overlap (fun () ->
      ignore
        (Kernel_model.Vma.add v ~start:0x13000 ~stop:0x15000 ~prot:Kernel_model.Vma.prot_rw
           ~backing:Kernel_model.Vma.Anon))

let test_vma_remove_splits () =
  let v = Kernel_model.Vma.create () in
  ignore
    (Kernel_model.Vma.add v ~start:0x10000 ~stop:0x20000 ~prot:Kernel_model.Vma.prot_rw
       ~backing:Kernel_model.Vma.Anon);
  let removed = Kernel_model.Vma.remove v ~start:0x14000 ~stop:0x18000 in
  check_int "removed pages" 4 removed;
  check_bool "left kept" true (Kernel_model.Vma.find v 0x13fff <> None);
  check_bool "hole" true (Kernel_model.Vma.find v 0x15000 = None);
  check_bool "right kept" true (Kernel_model.Vma.find v 0x18000 <> None);
  check_int "two areas" 2 (Kernel_model.Vma.count v)

let test_vma_protect_splits () =
  let v = Kernel_model.Vma.create () in
  ignore
    (Kernel_model.Vma.add v ~start:0x10000 ~stop:0x20000 ~prot:Kernel_model.Vma.prot_rw
       ~backing:Kernel_model.Vma.Anon);
  ignore (Kernel_model.Vma.protect v ~start:0x14000 ~stop:0x18000 ~prot:Kernel_model.Vma.prot_ro);
  (match Kernel_model.Vma.find v 0x15000 with
  | Some a -> check_bool "ro" false a.Kernel_model.Vma.prot.Kernel_model.Vma.write
  | None -> fail "area vanished");
  (match Kernel_model.Vma.find v 0x11000 with
  | Some a -> check_bool "left still rw" true a.Kernel_model.Vma.prot.Kernel_model.Vma.write
  | None -> fail "left vanished");
  check_int "total pages preserved" 16 (Kernel_model.Vma.total_pages v)

let test_vma_find_gap () =
  let v = Kernel_model.Vma.create () in
  ignore
    (Kernel_model.Vma.add v ~start:0x10000 ~stop:0x14000 ~prot:Kernel_model.Vma.prot_rw
       ~backing:Kernel_model.Vma.Anon);
  ignore
    (Kernel_model.Vma.add v ~start:0x16000 ~stop:0x18000 ~prot:Kernel_model.Vma.prot_rw
       ~backing:Kernel_model.Vma.Anon);
  check_int "fits in hole" 0x14000 (Kernel_model.Vma.find_gap v ~from:0x10000 ~pages:2);
  check_int "skips small hole" 0x18000 (Kernel_model.Vma.find_gap v ~from:0x10000 ~pages:3)

(* ------------------------------- Mm ------------------------------- *)

let test_mm_demand_paging () =
  let p = bare_platform () in
  let mm = Kernel_model.Mm.create p in
  let base = Kernel_model.Mm.mmap mm ~pages:8 ~prot:Kernel_model.Vma.prot_rw ~backing:Kernel_model.Vma.Anon in
  check_int "no faults yet" 0 (Kernel_model.Mm.fault_count mm);
  Kernel_model.Mm.touch mm base ~write:true;
  Kernel_model.Mm.touch mm base ~write:false;
  check_int "one fault for two touches" 1 (Kernel_model.Mm.fault_count mm);
  let faults = Kernel_model.Mm.touch_range mm ~start:base ~pages:8 ~write:true in
  check_int "remaining pages fault" 7 faults;
  check_int "resident" 8 (Kernel_model.Mm.resident_pages mm)

let test_mm_munmap_frees () =
  let p = bare_platform () in
  let mm = Kernel_model.Mm.create p in
  let base = Kernel_model.Mm.mmap mm ~pages:4 ~prot:Kernel_model.Vma.prot_rw ~backing:Kernel_model.Vma.Anon in
  ignore (Kernel_model.Mm.touch_range mm ~start:base ~pages:4 ~write:true);
  Kernel_model.Mm.munmap mm ~start:base ~pages:4;
  check_int "nothing resident" 0 (Kernel_model.Mm.resident_pages mm);
  check_raises "segfault after unmap" (Kernel_model.Mm.Segfault base) (fun () ->
      Kernel_model.Mm.touch mm base ~write:false)

let test_mm_mprotect_segfault () =
  let p = bare_platform () in
  let mm = Kernel_model.Mm.create p in
  let base = Kernel_model.Mm.mmap mm ~pages:1 ~prot:Kernel_model.Vma.prot_rw ~backing:Kernel_model.Vma.Anon in
  Kernel_model.Mm.touch mm base ~write:true;
  Kernel_model.Mm.mprotect mm ~start:base ~pages:1 ~prot:Kernel_model.Vma.prot_ro;
  (* A write into a fresh RO page must segfault. *)
  let base2 = Kernel_model.Mm.mmap mm ~pages:1 ~prot:Kernel_model.Vma.prot_ro ~backing:Kernel_model.Vma.Anon in
  check_raises "write to ro" (Kernel_model.Mm.Segfault base2) (fun () ->
      Kernel_model.Mm.touch mm base2 ~write:true)

let test_mm_brk () =
  let p = bare_platform () in
  let mm = Kernel_model.Mm.create p in
  let b0 = Kernel_model.Mm.brk mm ~delta_pages:4 in
  let b1 = Kernel_model.Mm.brk mm ~delta_pages:(-2) in
  check_int "brk grows then shrinks" (b0 - (2 * 4096)) b1;
  check_raises "below base" (Invalid_argument "Mm.brk: below base") (fun () ->
      ignore (Kernel_model.Mm.brk mm ~delta_pages:(-100)))

let test_mm_fork_copies () =
  let p = bare_platform () in
  let mm = Kernel_model.Mm.create p in
  let base = Kernel_model.Mm.mmap mm ~pages:4 ~prot:Kernel_model.Vma.prot_rw ~backing:Kernel_model.Vma.Anon in
  ignore (Kernel_model.Mm.touch_range mm ~start:base ~pages:4 ~write:true);
  let child = Kernel_model.Mm.fork mm in
  check_int "child resident" 4 (Kernel_model.Mm.resident_pages child);
  (* child touching its copy does not fault *)
  let f0 = Kernel_model.Mm.fault_count child in
  Kernel_model.Mm.touch child base ~write:true;
  check_int "no fault on copied page" f0 (Kernel_model.Mm.fault_count child)

(* [iter_pages] visits ascending vpns, each resident page once: after
   faults in scrambled order over three far-apart areas, after a
   munmap from the middle, and in a forked child. *)
let test_mm_iter_pages_ascending () =
  let p = bare_platform () in
  let mm = Kernel_model.Mm.create p in
  let prot = Kernel_model.Vma.prot_rw in
  let heap = Kernel_model.Mm.brk mm ~delta_pages:0 in
  ignore (Kernel_model.Mm.brk mm ~delta_pages:64);
  let area = Kernel_model.Mm.mmap mm ~pages:300 ~prot ~backing:Kernel_model.Vma.Anon in
  let stack = Kernel_model.Mm.user_stack_top - (256 * 4096) in
  let touch base pages =
    for i = 0 to pages - 1 do
      Kernel_model.Mm.touch mm (base + ((i * 37 mod pages) * 4096)) ~write:true
    done
  in
  touch area 300;
  touch stack 200;
  touch heap 64;
  let ascending what mm =
    let vpns = ref [] in
    Kernel_model.Mm.iter_pages mm (fun vpn _ -> vpns := vpn :: !vpns);
    let vpns = List.rev !vpns in
    check_int (what ^ ": every resident page") (Kernel_model.Mm.resident_pages mm)
      (List.length vpns);
    let rec strictly = function a :: (b :: _ as rest) -> a < b && strictly rest | _ -> true in
    check_bool (what ^ ": ascending vpns") true (strictly vpns)
  in
  ascending "after faults" mm;
  Kernel_model.Mm.munmap mm ~start:(area + (100 * 4096)) ~pages:50;
  ascending "after munmap" mm;
  ascending "forked child" (Kernel_model.Mm.fork mm)

(* 1,000 lmbench page-fault cycles (mmap 64 pages, touch them, munmap)
   at advancing addresses, inside a dirty-tracking epoch and after it:
   the per-page maps end up holding only the leaves of the live pages
   (resident, and write-protected while the epoch lasts). *)
let test_mm_cycles_free_leaves () =
  let p = bare_platform () in
  let mm = Kernel_model.Mm.create p in
  let prot = Kernel_model.Vma.prot_rw in
  let live = Kernel_model.Mm.mmap mm ~pages:3 ~prot ~backing:Kernel_model.Vma.Anon in
  ignore (Kernel_model.Mm.touch_range mm ~start:live ~pages:3 ~write:true);
  let cycles () =
    let first = Kernel_model.Mm.mmap_cursor_now mm in
    for _ = 1 to 1000 do
      let base = Kernel_model.Mm.mmap mm ~pages:64 ~prot ~backing:Kernel_model.Vma.Anon in
      check_int "all 64 pages fault" 64
        (Kernel_model.Mm.touch_range mm ~start:base ~pages:64 ~write:true);
      Kernel_model.Mm.munmap mm ~start:base ~pages:64
    done;
    check_int "addresses advanced" (1000 * 64 * 4096)
      (Kernel_model.Mm.mmap_cursor_now mm - first);
    check_int "only the live pages resident" 3 (Kernel_model.Mm.resident_pages mm)
  in
  let live_leaves () =
    let leaves = ref [] in
    Kernel_model.Mm.iter_pages mm (fun vpn _ ->
        let l = vpn / Kernel_model.Page_map.leaf_size in
        if not (List.mem l !leaves) then leaves := l :: !leaves);
    List.length !leaves
  in
  check_int "3 pages tracked" 3 (Kernel_model.Mm.dirty_track_start mm ~shootdown:ignore);
  cycles ();
  check_int "tracking: resident and write-protected leaves" (2 * live_leaves ())
    (Kernel_model.Mm.map_leaves mm);
  check_bool "the cycles' pages left the log" true (Kernel_model.Mm.dirty_track_finish mm = []);
  cycles ();
  check_int "resident leaves only" (live_leaves ()) (Kernel_model.Mm.map_leaves mm)

(* ----------------------------- Page_map --------------------------- *)

module Int_map = Map.Make (Int)

type page_map_op = Replace of int * int | Remove of int | Clear

(* Keys bunch at leaf and L1-table edges (0, 511/512) and near the top
   of the user range, beside keys spread over a wider range; values
   include 0.  Replaces outnumber removes, so maps reach thousands of
   keys across many leaves and also empty leaves again. *)
let page_map_op =
  let open QCheck.Gen in
  let key =
    oneof
      [
        int_range 0 40;
        map (fun d -> 512 + d) (int_range (-40) 40);
        map (fun d -> 0x7_ffff_fff0 + d) (int_range (-600) 15);
        int_range 0 100_000;
      ]
  in
  let value = oneof [ return 0; int_range 0 1_000_000 ] in
  frequency
    [
      (60, map2 (fun k v -> Replace (k, v)) key value);
      (30, map (fun k -> Remove k) key);
      (1, return Clear);
    ]

let show_page_map_op = function
  | Replace (k, v) -> Printf.sprintf "replace %d %d" k v
  | Remove k -> Printf.sprintf "remove %d" k
  | Clear -> "clear"

(* [Page_map] against [Map.Make (Int)]: after every op, [find], [mem]
   and [length] agree on the op's key; at the end, [iter] and [keys]
   give the model's bindings in ascending order (every key once, as a
   sort of the keys would), and the map holds exactly the leaves its
   keys fall in. *)
let prop_page_map_model =
  QCheck.Test.make ~name:"page_map = Map model, ascending" ~count:300
    QCheck.(
      make
        ~print:(fun ops -> String.concat "; " (List.map show_page_map_op ops))
        Gen.(list_size (int_range 0 3000) page_map_op))
    (fun ops ->
      let m = Kernel_model.Page_map.create () in
      let agree model k =
        let want = Option.value (Int_map.find_opt k model) ~default:(-1) in
        Kernel_model.Page_map.find m k = want
        && Kernel_model.Page_map.mem m k = (want >= 0)
        && Kernel_model.Page_map.length m = Int_map.cardinal model
      in
      let model =
        List.fold_left
          (fun model op ->
            let model, k =
              match op with
              | Replace (k, v) ->
                  Kernel_model.Page_map.replace m k v;
                  (Int_map.add k v model, k)
              | Remove k ->
                  Kernel_model.Page_map.remove m k;
                  (Int_map.remove k model, k)
              | Clear ->
                  Kernel_model.Page_map.clear m;
                  (Int_map.empty, 0)
            in
            if not (agree model k) then QCheck.Test.fail_reportf "after %s" (show_page_map_op op);
            model)
          Int_map.empty ops
      in
      let seen = ref [] in
      Kernel_model.Page_map.iter m (fun k v -> seen := (k, v) :: !seen);
      let leaves =
        Int_map.fold
          (fun k _ acc ->
            let leaf = k / Kernel_model.Page_map.leaf_size in
            if List.mem leaf acc then acc else leaf :: acc)
          model []
      in
      List.rev !seen = Int_map.bindings model
      && Array.to_list (Kernel_model.Page_map.keys m) = List.map fst (Int_map.bindings model)
      && Kernel_model.Page_map.leaves m = List.length leaves)

let test_page_map_bad_args () =
  let m = Kernel_model.Page_map.create () in
  check_raises "negative vpn" (Invalid_argument "Page_map.replace") (fun () ->
      Kernel_model.Page_map.replace m (-1) 0);
  check_raises "negative value" (Invalid_argument "Page_map.replace") (fun () ->
      Kernel_model.Page_map.replace m 0 (-1));
  check_int "negative vpn absent" (-1) (Kernel_model.Page_map.find m (-1));
  Kernel_model.Page_map.remove m (-1);
  check_int "still empty" 0 (Kernel_model.Page_map.length m);
  check_int "no leaf" 0 (Kernel_model.Page_map.leaves m)

(* ------------------------------ Tmpfs ----------------------------- *)

let mk_fs () = Kernel_model.Tmpfs.create (Hw.Clock.create ())

let test_tmpfs_create_resolve () =
  let fs = mk_fs () in
  ignore (Kernel_model.Tmpfs.mkdir fs "/etc");
  let f = Kernel_model.Tmpfs.create_file fs "/etc/passwd" in
  check_bool "resolve" true (Kernel_model.Tmpfs.resolve fs "/etc/passwd" == f);
  check_bool "resolve_opt none" true (Kernel_model.Tmpfs.resolve_opt fs "/nope" = None);
  check_raises "exists" (Kernel_model.Tmpfs.Exists "/etc/passwd") (fun () ->
      ignore (Kernel_model.Tmpfs.create_file fs "/etc/passwd"));
  check_bool "readdir" true (Kernel_model.Tmpfs.readdir (Kernel_model.Tmpfs.resolve fs "/etc") = [ "passwd" ])

let test_tmpfs_read_write () =
  let fs = mk_fs () in
  let f = Kernel_model.Tmpfs.create_file fs "/data" in
  let n = Kernel_model.Tmpfs.write fs f ~off:0 (Bytes.of_string "hello world") in
  check_int "written" 11 n;
  check_int "size" 11 (Kernel_model.Tmpfs.size f);
  let buf = Bytes.create 5 in
  check_int "read count" 5 (Kernel_model.Tmpfs.read_into fs f ~off:6 buf);
  check_bool "read back" true (buf = Bytes.of_string "world");
  check_int "read past eof" 0 (Kernel_model.Tmpfs.read_into fs f ~off:20 buf);
  (* sparse-extend via write at offset *)
  ignore (Kernel_model.Tmpfs.write fs f ~off:100 (Bytes.of_string "x"));
  check_int "extended" 101 (Kernel_model.Tmpfs.size f)

let test_tmpfs_unlink_truncate () =
  let fs = mk_fs () in
  let f = Kernel_model.Tmpfs.create_file fs "/t" in
  ignore (Kernel_model.Tmpfs.write fs f ~off:0 (Bytes.make 1000 'a'));
  Kernel_model.Tmpfs.truncate f ~size:10;
  check_int "truncated" 10 (Kernel_model.Tmpfs.size f);
  Kernel_model.Tmpfs.truncate f ~size:50;
  check_int "zero extended" 50 (Kernel_model.Tmpfs.size f);
  let one = Bytes.make 1 'x' in
  check_int "one byte" 1 (Kernel_model.Tmpfs.read_into fs f ~off:20 one);
  check_bool "zeros" true (Bytes.get one 0 = '\000');
  Kernel_model.Tmpfs.unlink fs "/t";
  check_bool "gone" true (Kernel_model.Tmpfs.resolve_opt fs "/t" = None);
  check_raises "unlink missing" (Kernel_model.Tmpfs.Not_found_path "/t") (fun () ->
      Kernel_model.Tmpfs.unlink fs "/t")

(* ------------------------------ Pipe ------------------------------ *)

let test_pipe_roundtrip () =
  let p = Kernel_model.Pipe.create ~capacity:8 (Hw.Clock.create ()) in
  let read n =
    let buf = Bytes.create n in
    Result.map (fun k -> Bytes.sub_string buf 0 k) (Kernel_model.Pipe.read_into p buf)
  in
  check_bool "empty would block" true (read 1 = Error `Would_block);
  check_bool "write" true (Kernel_model.Pipe.write p (Bytes.of_string "abcdef") = Ok 6);
  (* capacity 8: only 2 more bytes fit *)
  check_bool "partial write" true (Kernel_model.Pipe.write p (Bytes.of_string "xyz") = Ok 2);
  check_bool "full would block" true (Kernel_model.Pipe.write p (Bytes.of_string "q") = Error `Would_block);
  check_bool "read" true (read 6 = Ok "abcdef");
  (* the ring wraps: 6 bytes free again, 2 of them at its end *)
  check_bool "wrapping write" true (Kernel_model.Pipe.write p (Bytes.of_string "123456") = Ok 6);
  check_bool "full again" true (Kernel_model.Pipe.write p (Bytes.of_string "q") = Error `Would_block);
  check_bool "read across the wrap" true (read 5 = Ok "xy123");
  Kernel_model.Pipe.close_write p;
  check_bool "drain" true (read 10 = Ok "456");
  check_bool "eof" true (read 10 = Ok "");
  Kernel_model.Pipe.close_read p;
  check_bool "epipe" true (Kernel_model.Pipe.write p (Bytes.of_string "z") = Error `Epipe)

(* ----------------------------- Virtio ----------------------------- *)

let virtio_on ?(size = 4) ?(window = 1) (p : Kernel_model.Platform.t) =
  let access =
    {
      Kernel_model.Virtio.mem = p.Kernel_model.Platform.mem;
      frame = p.Kernel_model.Platform.guest_frame;
      alloc_frame = p.Kernel_model.Platform.alloc_frame;
    }
  in
  Kernel_model.Virtio.create ~size ~window ~name:"test" access p.Kernel_model.Platform.clock

let mk_virtio ?size ?window () = virtio_on ?size ?window (bare_platform ())

let test_virtio_queue () =
  let q = mk_virtio () in
  check_bool "post a" true (Kernel_model.Virtio.post q ~data:(Bytes.make 100 'a') ~len:100 = `Posted);
  check_bool "post b" true (Kernel_model.Virtio.post q ~data:(Bytes.make 200 'b') ~len:200 = `Posted);
  check_int "in flight" 2 (Kernel_model.Virtio.in_flight q);
  let kicked = ref 0 in
  check_bool "kick rang" true (Kernel_model.Virtio.kick q ~doorbell:(fun () -> incr kicked));
  check_int "kick delivered" 1 !kicked;
  (* Second kick with nothing new posted: suppressed, no doorbell. *)
  check_bool "kick suppressed" false (Kernel_model.Virtio.kick q ~doorbell:(fun () -> incr kicked));
  check_int "no second doorbell" 1 !kicked;
  (* Host services the chains, reading payloads out of guest memory. *)
  let seen = ref [] in
  check_int "serviced" 2
    (Kernel_model.Virtio.service q ~handle:(fun buf len -> seen := Bytes.sub buf 0 len :: !seen));
  check_bool "payload bytes" true
    (match List.rev !seen with
    | [ a; b ] -> Bytes.length a = 100 && Bytes.get a 0 = 'a' && Bytes.length b = 200 && Bytes.get b 7 = 'b'
    | _ -> false);
  check_int "drained" 0 (Kernel_model.Virtio.in_flight q);
  (* Completion interrupt covers the batch; then the guest reclaims. *)
  let irqs = ref 0 in
  check_bool "completion" true (Kernel_model.Virtio.complete q ~inject:(fun () -> incr irqs));
  check_int "one interrupt" 1 !irqs;
  check_bool "no double complete" false (Kernel_model.Virtio.complete q ~inject:(fun () -> incr irqs));
  ignore (Kernel_model.Virtio.reclaim q);
  check_int "all reclaimed" 0 (Kernel_model.Virtio.unreclaimed q)

(* [service] copies every chain into one reused host buffer: a short
   chain after a long one must see its own bytes and length, not the
   long chain's tail; [post ~len] publishes only a prefix. *)
let test_virtio_host_buffer_reuse () =
  let q = mk_virtio ~size:4 () in
  let long = Bytes.make 5000 'L' and short = Bytes.make 100 's' in
  let padded = Bytes.cat (Bytes.make 40 'p') (Bytes.make 60 'X') in
  check_bool "post long" true (Kernel_model.Virtio.post q ~data:long ~len:5000 = `Posted);
  check_bool "post short" true (Kernel_model.Virtio.post q ~data:short ~len:100 = `Posted);
  check_bool "post prefix" true (Kernel_model.Virtio.post q ~data:padded ~len:40 = `Posted);
  let seen = ref [] and bufs = ref [] in
  check_int "one pass, three chains" 3
    (Kernel_model.Virtio.service q ~handle:(fun buf len ->
         bufs := buf :: !bufs;
         seen := Bytes.sub buf 0 len :: !seen));
  check_bool "each handler sees its own bytes" true
    (List.rev !seen = [ long; short; Bytes.make 40 'p' ]);
  check_bool "one host buffer for the pass" true
    (match !bufs with b :: rest -> List.for_all (fun b' -> b' == b) rest | [] -> false);
  check_raises "len past the data" (Invalid_argument "Virtio.post: len outside the buffer")
    (fun () -> ignore (Kernel_model.Virtio.post q ~data:short ~len:101))

let test_virtio_backpressure () =
  (* A full ring is `Full (graceful backpressure), never an exception;
     a host service pass plus guest reclaim makes room again. *)
  let q = mk_virtio ~size:4 () in
  for i = 1 to 4 do
    check_bool (Printf.sprintf "post %d" i) true
      (Kernel_model.Virtio.post q ~data:(Bytes.make 8 'x') ~len:8 = `Posted)
  done;
  check_bool "ring full" true (Kernel_model.Virtio.post q ~data:(Bytes.make 8 'y') ~len:8 = `Full);
  ignore (Kernel_model.Virtio.kick q ~doorbell:ignore);
  ignore (Kernel_model.Virtio.service q ~handle:(fun _ _ -> ()));
  (* The used entries are published: post's opportunistic reclaim frees
     the descriptors even before the completion interrupt. *)
  check_bool "room after service" true
    (Kernel_model.Virtio.post q ~data:(Bytes.make 8 'z') ~len:8 = `Posted)

let test_virtio_event_idx () =
  (* window=4: after the host re-arms, kicks 1-3 are suppressed and the
     4th rings the doorbell. *)
  let q = mk_virtio ~size:16 ~window:4 () in
  let rings = ref 0 in
  let post_kick () =
    ignore (Kernel_model.Virtio.post q ~data:(Bytes.make 8 'k') ~len:8);
    ignore (Kernel_model.Virtio.kick q ~doorbell:(fun () -> incr rings))
  in
  post_kick ();
  check_int "first kick rings" 1 !rings;
  ignore (Kernel_model.Virtio.service q ~handle:(fun _ _ -> ()));
  for _ = 1 to 3 do post_kick () done;
  check_int "suppressed inside window" 1 !rings;
  post_kick ();
  check_int "window boundary rings" 2 !rings;
  (* Naive mode (window=0) rings on every kick. *)
  let q0 = mk_virtio ~size:16 ~window:0 () in
  let rings0 = ref 0 in
  for _ = 1 to 3 do
    ignore (Kernel_model.Virtio.post q0 ~data:(Bytes.make 8 'n') ~len:8);
    ignore (Kernel_model.Virtio.kick q0 ~doorbell:(fun () -> incr rings0))
  done;
  check_int "naive rings every time" 3 !rings0

(* The batch window only suppresses kicks: every completion that
   covers serviced entries injects, one interrupt per service pass. *)
let test_virtio_window_never_suppresses_irqs () =
  let q = mk_virtio ~size:16 ~window:8 () in
  let irqs = ref 0 in
  for pass = 1 to 10 do
    ignore (Kernel_model.Virtio.post q ~data:(Bytes.make 8 'w') ~len:8);
    ignore (Kernel_model.Virtio.kick q ~doorbell:ignore);
    ignore (Kernel_model.Virtio.service q ~handle:(fun _ _ -> ()));
    check_bool (Printf.sprintf "pass %d injects" pass) true
      (Kernel_model.Virtio.complete q ~inject:(fun () -> incr irqs));
    ignore (Kernel_model.Virtio.reclaim q)
  done;
  check_int "one interrupt per pass" 10 !irqs;
  check_int "counted" 10 (Kernel_model.Virtio.interrupts q)

let test_virtio_roundtrip_backends () =
  (* Payloads cross page boundaries (4095/4097) and fill a 9-page chain
     (32769) on every platform, so each [guest_frame] translation --
     identity (bare, CKI), EPT (HVM), gPA->hPA map (PVM) -- carries
     real bytes both ways. *)
  let platforms =
    [
      ("bare", bare_platform ());
      ( "cki",
        (Cki.Container.backend (Cki.Container.create_standalone ~mem_mib:128 ()))
          .Virt.Backend.platform );
      ("hvm", (Virt.Hvm.create (Hw.Machine.create ~mem_mib:64 ())).Virt.Backend.platform);
      ("pvm", (Virt.Pvm.create (Hw.Machine.create ~mem_mib:64 ())).Virt.Backend.platform);
    ]
  in
  List.iter
    (fun (name, p) ->
      let q = virtio_on ~size:16 p in
      List.iter
        (fun n ->
          let label what = Printf.sprintf "%s %s %d B" name what n in
          let data = Bytes.init n (fun i -> Char.chr (((i * 131) + n) land 0xFF)) in
          check_bool (label "tx post") true
            (Kernel_model.Virtio.post q ~data ~len:n = `Posted);
          let seen = ref [] in
          check_int (label "tx serviced") 1
            (Kernel_model.Virtio.service q ~handle:(fun buf len ->
                 seen := Bytes.sub buf 0 len :: !seen));
          check_bool (label "tx bytes") true (!seen = [ data ]);
          check_bool (label "tx reclaim") true (Kernel_model.Virtio.reclaim q = []);
          check_bool (label "rx post") true
            (Kernel_model.Virtio.post_buffer q ~capacity:n = `Posted);
          check_bool (label "rx fill") true (Kernel_model.Virtio.fill q ~data);
          check_bool (label "rx bytes") true (Kernel_model.Virtio.reclaim q = [ data ]);
          check_int (label "descriptors back") 16 (Kernel_model.Virtio.free_descs q))
        [ 1; 9; 4095; 4097; 32769 ])
    platforms

(* ------------------------------- Net ------------------------------ *)

let test_net_endpoints () =
  let w = Kernel_model.Net.create (Hw.Clock.create ()) in
  let a = Kernel_model.Net.endpoint w in
  let b = Kernel_model.Net.endpoint w in
  check_bool "unconnected" true (Kernel_model.Net.send w a (Bytes.of_string "x") = Error `Not_connected);
  Kernel_model.Net.connect w a b;
  check_bool "send" true (Kernel_model.Net.send w a (Bytes.of_string "ping") = Ok 4);
  check_int "pending" 1 (Kernel_model.Net.pending b);
  check_bool "recv" true (Kernel_model.Net.recv b = Ok (Bytes.of_string "ping"));
  check_bool "empty" true (Kernel_model.Net.recv b = Error `Would_block)

(* --------------------- Kernel syscalls end-to-end ------------------ *)

let mk_kernel () = Kernel_model.Kernel.create (bare_platform ())

let test_kernel_file_syscalls () =
  let k = mk_kernel () in
  let t = Kernel_model.Kernel.spawn k in
  let fd =
    match Kernel_model.Kernel.syscall_exn k t (Kernel_model.Syscall.Open { path = "/f"; create = true }) with
    | Kernel_model.Syscall.Rint fd -> fd
    | _ -> fail "open"
  in
  (match Kernel_model.Kernel.syscall_exn k t (Kernel_model.Syscall.Write { fd; data = Bytes.of_string "hello" }) with
  | Kernel_model.Syscall.Rint 5 -> ()
  | _ -> fail "write");
  ignore (Kernel_model.Kernel.syscall_exn k t (Kernel_model.Syscall.Lseek { fd; pos = 0 }));
  (* a buffer shorter than the file gets the prefix *)
  let buf = Bytes.create 3 in
  (match Kernel_model.Kernel.syscall_exn k t (Kernel_model.Syscall.Read { fd; buf }) with
  | Kernel_model.Syscall.Rint n ->
      check_int "short read count" 3 n;
      check_bool "read prefix" true (buf = Bytes.of_string "hel")
  | _ -> fail "read");
  let buf = Bytes.make 8 '.' in
  (match Kernel_model.Kernel.syscall_exn k t (Kernel_model.Syscall.Read { fd; buf }) with
  | Kernel_model.Syscall.Rint n ->
      check_int "rest of the file" 2 n;
      check_bool "rest at the front" true (Bytes.sub_string buf 0 n = "lo")
  | _ -> fail "read");
  (match Kernel_model.Kernel.syscall_exn k t (Kernel_model.Syscall.Stat "/f") with
  | Kernel_model.Syscall.Rstat { size; is_dir; _ } ->
      check_int "stat size" 5 size;
      check_bool "not dir" false is_dir
  | _ -> fail "stat");
  (match Kernel_model.Kernel.syscall k t (Kernel_model.Syscall.Stat "/missing") with
  | Kernel_model.Syscall.Rerr "ENOENT" -> ()
  | _ -> fail "stat missing");
  ignore (Kernel_model.Kernel.syscall_exn k t (Kernel_model.Syscall.Unlink "/f"));
  match Kernel_model.Kernel.syscall k t (Kernel_model.Syscall.Open { path = "/f"; create = false }) with
  | Kernel_model.Syscall.Rerr "ENOENT" -> ()
  | _ -> fail "open after unlink"

(* Every variant, once: [ordinal] is an exhaustive match, so a new
   variant fails to compile here until it joins [all_syscalls]. *)
let all_syscalls =
  let b = Bytes.empty and va = 0x1000 and prot = Kernel_model.Vma.prot_rw in
  Kernel_model.Syscall.
    [
      Getpid; Read { fd = 0; buf = b }; Write { fd = 0; data = b }; Open { path = "/"; create = false };
      Close 0; Stat "/"; Fstat 0; Lseek { fd = 0; pos = 0 }; Fsync 0; Unlink "/"; Mkdir "/";
      Mmap { pages = 1; prot }; Munmap { addr = va; pages = 1 }; Mprotect { addr = va; pages = 1; prot };
      Brk { delta_pages = 1 }; Fork; Execve; Exit 0; Pipe; Socket; Send { fd = 0; data = b };
      Recv { fd = 0; buf = b }; Sched_yield; Nanosleep 1.0;
    ]

let ordinal : Kernel_model.Syscall.t -> int = function
  | Getpid -> 0 | Read _ -> 1 | Write _ -> 2 | Open _ -> 3 | Close _ -> 4 | Stat _ -> 5
  | Fstat _ -> 6 | Lseek _ -> 7 | Fsync _ -> 8 | Unlink _ -> 9 | Mkdir _ -> 10 | Mmap _ -> 11
  | Munmap _ -> 12 | Mprotect _ -> 13 | Brk _ -> 14 | Fork -> 15 | Execve -> 16 | Exit _ -> 17
  | Pipe -> 18 | Socket -> 19 | Send _ -> 20 | Recv _ -> 21 | Sched_yield -> 22 | Nanosleep _ -> 23

let test_syscall_event_names () =
  check (list int) "every variant listed once" (List.init 24 Fun.id) (List.map ordinal all_syscalls);
  List.iter
    (fun sc ->
      let name = Kernel_model.Syscall.name sc in
      check string name ("sys_" ^ name) (Hw.Cost.name (Kernel_model.Syscall.cost sc)))
    all_syscalls;
  (* one event per variant, each the variant's own *)
  check (list string) "names"
    [ "getpid"; "read"; "write"; "open"; "close"; "stat"; "fstat"; "lseek"; "fsync"; "unlink";
      "mkdir"; "mmap"; "munmap"; "mprotect"; "brk"; "fork"; "execve"; "exit"; "pipe"; "socket";
      "send"; "recv"; "sched_yield"; "nanosleep" ]
    (List.map Kernel_model.Syscall.name all_syscalls);
  (* dispatch charges the event *)
  let k = mk_kernel () in
  let t = Kernel_model.Kernel.spawn k in
  ignore (Kernel_model.Kernel.syscall_exn k t Kernel_model.Syscall.Getpid);
  check_int "sys_getpid charged" 1 (Hw.Clock.occurrences (Kernel_model.Kernel.clock k) "sys_getpid")

let test_kernel_fork_exit () =
  let k = mk_kernel () in
  let t = Kernel_model.Kernel.spawn k in
  let base =
    match Kernel_model.Kernel.syscall_exn k t (Kernel_model.Syscall.Mmap { pages = 4; prot = Kernel_model.Vma.prot_rw }) with
    | Kernel_model.Syscall.Rint v -> v
    | _ -> fail "mmap"
  in
  ignore (Kernel_model.Kernel.touch_range k t ~start:base ~pages:4 ~write:true);
  let child_pid =
    match Kernel_model.Kernel.syscall_exn k t Kernel_model.Syscall.Fork with
    | Kernel_model.Syscall.Rint pid -> pid
    | _ -> fail "fork"
  in
  check_bool "child exists" true (Kernel_model.Kernel.task k child_pid <> None);
  (match Kernel_model.Kernel.task k child_pid with
  | Some child ->
      check_int "fds inherited" (Kernel_model.Task.fd_count t) (Kernel_model.Task.fd_count child);
      ignore (Kernel_model.Kernel.syscall_exn k child (Kernel_model.Syscall.Exit 0))
  | None -> fail "child");
  check_bool "child reaped" true (Kernel_model.Kernel.task k child_pid = None)

let test_kernel_pipe_syscalls () =
  let k = mk_kernel () in
  let t = Kernel_model.Kernel.spawn k in
  let rfd, wfd =
    match Kernel_model.Kernel.syscall_exn k t Kernel_model.Syscall.Pipe with
    | Kernel_model.Syscall.Rpair (r, w) -> (r, w)
    | _ -> fail "pipe"
  in
  ignore (Kernel_model.Kernel.syscall_exn k t (Kernel_model.Syscall.Write { fd = wfd; data = Bytes.of_string "abc" }));
  let buf = Bytes.create 2 in
  (match Kernel_model.Kernel.syscall_exn k t (Kernel_model.Syscall.Read { fd = rfd; buf }) with
  | Kernel_model.Syscall.Rint n ->
      check_int "pipe prefix count" 2 n;
      check_bool "pipe data" true (buf = Bytes.of_string "ab")
  | _ -> fail "pipe read");
  match Kernel_model.Kernel.syscall_exn k t (Kernel_model.Syscall.Read { fd = rfd; buf }) with
  | Kernel_model.Syscall.Rint n ->
      check_int "pipe remainder count" 1 n;
      check_bool "pipe remainder" true (Bytes.get buf 0 = 'c')
  | _ -> fail "pipe read"

let test_kernel_net_path () =
  let k = mk_kernel () in
  let t = Kernel_model.Kernel.spawn k in
  let fd =
    match Kernel_model.Kernel.syscall_exn k t Kernel_model.Syscall.Socket with
    | Kernel_model.Syscall.Rint fd -> fd
    | _ -> fail "socket"
  in
  let sid =
    match Kernel_model.Task.fd t fd with
    | Some (Kernel_model.Task.Socket id) -> id
    | _ -> fail "sid"
  in
  (* deliver a packet, then recv it *)
  (match Kernel_model.Kernel.deliver_packet k ~sid (Bytes.of_string "req") with
  | Ok () -> ()
  | Error `No_socket -> fail "deliver");
  let buf = Bytes.make 16 '.' in
  (match Kernel_model.Kernel.syscall_exn k t (Kernel_model.Syscall.Recv { fd; buf }) with
  | Kernel_model.Syscall.Rint n ->
      check_int "recv count" 3 n;
      check_bool "recv" true (Bytes.sub_string buf 0 n = "req")
  | _ -> fail "recv");
  check_int "irq delivered" 1 (Kernel_model.Kernel.irq_count k);
  (* a frame longer than the buffer is cut to it; the rest is gone *)
  (match Kernel_model.Kernel.deliver_packet k ~sid (Bytes.of_string "longframe") with
  | Ok () -> ()
  | Error `No_socket -> fail "deliver");
  let buf = Bytes.create 4 in
  (match Kernel_model.Kernel.syscall_exn k t (Kernel_model.Syscall.Recv { fd; buf }) with
  | Kernel_model.Syscall.Rint n ->
      check_int "truncated count" 4 n;
      check_bool "frame prefix" true (buf = Bytes.of_string "long")
  | _ -> fail "recv");
  match Kernel_model.Kernel.syscall k t (Kernel_model.Syscall.Recv { fd; buf }) with
  | Kernel_model.Syscall.Rerr "EAGAIN" -> ()
  | _ -> fail "the truncated frame's tail must not be read again"

let test_kernel_ctx_switch_counts () =
  let k = mk_kernel () in
  let t1 = Kernel_model.Kernel.spawn k in
  let t2 = Kernel_model.Kernel.spawn k in
  let clock = Kernel_model.Kernel.clock k in
  let switches () = Hw.Clock.occurrences clock "ctx_switch" in
  let cr3_loads () = Hw.Clock.occurrences clock "cr3_switch" in
  let before = switches () and cr3_before = cr3_loads () in
  let pid1 = t1.Kernel_model.Task.pid and pid2 = t2.Kernel_model.Task.pid in
  Kernel_model.Kernel.context_switch k ~from_pid:pid1 ~to_pid:pid2;
  Kernel_model.Kernel.context_switch k ~from_pid:pid2 ~to_pid:pid1;
  check_int "two switches" (before + 2) (switches ());
  check_int "two CR3 loads" (cr3_before + 2) (cr3_loads ());
  (* Switching to the task already running is free. *)
  let now = Hw.Clock.now clock in
  Kernel_model.Kernel.context_switch k ~from_pid:pid1 ~to_pid:pid1;
  check_int "no switch to current" (before + 2) (switches ());
  check_int "no CR3 load to current" (cr3_before + 2) (cr3_loads ());
  check_bool "no time charged" true (Hw.Clock.now clock = now)

let suite =
  [
    ( "kernel/buddy",
      [
        test_case "alloc/free" `Quick test_buddy_basic;
        test_case "coalescing" `Quick test_buddy_coalesce;
        test_case "huge alignment" `Quick test_buddy_huge_alignment;
        test_case "double free" `Quick test_buddy_double_free;
        QCheck_alcotest.to_alcotest prop_buddy_no_overlap;
        QCheck_alcotest.to_alcotest prop_buddy_allocated_blocks;
      ] );
    ( "kernel/vma",
      [
        test_case "add/find/overlap" `Quick test_vma_add_find_overlap;
        test_case "remove splits" `Quick test_vma_remove_splits;
        test_case "protect splits" `Quick test_vma_protect_splits;
        test_case "find_gap" `Quick test_vma_find_gap;
      ] );
    ( "kernel/mm",
      [
        test_case "demand paging" `Quick test_mm_demand_paging;
        test_case "munmap frees" `Quick test_mm_munmap_frees;
        test_case "mprotect + segfault" `Quick test_mm_mprotect_segfault;
        test_case "brk" `Quick test_mm_brk;
        test_case "fork copies" `Quick test_mm_fork_copies;
        test_case "iter_pages ascending" `Quick test_mm_iter_pages_ascending;
        test_case "map/unmap cycles free their leaves" `Quick test_mm_cycles_free_leaves;
      ] );
    ( "kernel/page_map",
      [
        QCheck_alcotest.to_alcotest prop_page_map_model;
        test_case "negative keys and values" `Quick test_page_map_bad_args;
      ] );
    ( "kernel/tmpfs",
      [
        test_case "create/resolve/readdir" `Quick test_tmpfs_create_resolve;
        test_case "read/write/extend" `Quick test_tmpfs_read_write;
        test_case "unlink/truncate" `Quick test_tmpfs_unlink_truncate;
      ] );
    ("kernel/pipe", [ test_case "roundtrip + blocking" `Quick test_pipe_roundtrip ]);
    ( "kernel/virtio",
      [
        test_case "post/kick/service/complete" `Quick test_virtio_queue;
        test_case "full ring backpressure" `Quick test_virtio_backpressure;
        test_case "EVENT_IDX suppression" `Quick test_virtio_event_idx;
        test_case "payload round trip on every backend" `Quick test_virtio_roundtrip_backends;
        test_case "window never suppresses interrupts" `Quick test_virtio_window_never_suppresses_irqs;
        test_case "reused host buffer has no stale tail" `Quick test_virtio_host_buffer_reuse;
      ] );
    ("kernel/net", [ test_case "endpoints" `Quick test_net_endpoints ]);
    ( "kernel/syscalls",
      [
        test_case "file syscalls end-to-end" `Quick test_kernel_file_syscalls;
        test_case "event names are sys_ ^ name" `Quick test_syscall_event_names;
        test_case "fork/exit" `Quick test_kernel_fork_exit;
        test_case "pipe syscalls" `Quick test_kernel_pipe_syscalls;
        test_case "net delivery + recv" `Quick test_kernel_net_path;
        test_case "context switch accounting" `Quick test_kernel_ctx_switch_counts;
      ] );
  ]
