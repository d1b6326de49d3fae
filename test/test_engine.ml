(* The raw-speed engine overhaul: representation changes that must be
   observationally invisible.

   The anchor test is the golden snapshot fixture: an image captured
   with the pre-overhaul boxed-record [Phys_mem] (frame metadata in a
   record array, PTEs in per-frame [int64 array]s) checked in at
   test/fixtures/golden_v2.ckisnap.  A fresh capture with today's
   packed-array + Bigarray-arena representation must be byte-for-byte
   identical, proving the swap changed raw speed only.  Around it:
   allocator free-count bookkeeping, allocation-order preservation,
   arena slot recycling, the per-owner frame index against a brute-force
   scan, and [Cpu.access] under invlpg/invpcid pinned to exact TLB
   statistics. *)

open Alcotest

let golden_path = "fixtures/golden_v2.ckisnap"

(* Same workload the fixture generator ran (kept in sync by the bytes
   comparison itself: any drift shows up as a mismatch). *)
let init_workload (c : Cki.Container.t) =
  let b = Cki.Container.backend c in
  let task = Virt.Backend.spawn b in
  (match
     Virt.Backend.syscall_exn b task
       (Kernel_model.Syscall.Mmap { pages = 256; prot = Kernel_model.Vma.prot_rw })
   with
  | Kernel_model.Syscall.Rint base ->
      ignore
        (Kernel_model.Mm.touch_range task.Kernel_model.Task.mm ~start:base ~pages:256 ~write:true)
  | _ -> fail "mmap");
  match
    Virt.Backend.syscall_exn b task (Kernel_model.Syscall.Open { path = "/app.conf"; create = true })
  with
  | Kernel_model.Syscall.Rint fd ->
      ignore
        (Virt.Backend.syscall_exn b task
           (Kernel_model.Syscall.Write { fd; data = Bytes.of_string "threads=4\n" }))
  | _ -> fail "open"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let capture_exn c =
  match Snapshot.Capture.capture c with
  | Ok image -> image
  | Error e -> fail ("capture: " ^ Snapshot.Capture.show_error e)

(* A capture under the packed representation must reproduce the
   fixture captured under the boxed representation, byte for byte. *)
let test_golden_capture_identical () =
  let c = Cki.Container.create_standalone ~mem_mib:256 () in
  init_workload c;
  let image = capture_exn c in
  let fresh = Snapshot.Image.encode image in
  let golden = read_file golden_path in
  check int "image length" (String.length golden) (String.length fresh);
  check bool "capture is byte-identical to the pre-overhaul fixture" true (golden = fresh)

(* The fixture itself must decode, restore into a fresh host, and
   re-capture to the identical bytes (capture -> restore -> capture
   determinism across the representation swap). *)
let test_golden_restore_recapture () =
  let golden = read_file golden_path in
  let image =
    match Snapshot.Image.decode golden with
    | Ok i -> i
    | Error e -> fail ("decode: " ^ Snapshot.Image.show_decode_error e)
  in
  let host = Cki.Host.create (Hw.Machine.create ~mem_mib:256 ()) in
  let c =
    match Snapshot.Restore.restore host image with
    | Ok c -> c
    | Error e -> fail ("restore: " ^ Snapshot.Restore.show_error e)
  in
  let again = Snapshot.Image.encode (capture_exn c) in
  check bool "restore -> recapture is byte-identical" true (golden = again)

(* ------------------------------------------------------------------ *)
(* Allocator                                                           *)
(* ------------------------------------------------------------------ *)

(* free_frames is a maintained counter now; it must agree with the
   O(n) ownership scan through arbitrary alloc/free churn. *)
let test_free_count_agrees_with_scan () =
  let m = Hw.Phys_mem.create ~frames:500 in
  let rng = ref 123456789 in
  let rand n =
    rng := (!rng * 1103515245) + 12345;
    (!rng lsr 7) mod n
  in
  let live = ref [] in
  for _ = 1 to 2000 do
    if rand 3 > 0 || !live = [] then begin
      match Hw.Phys_mem.alloc m ~owner:Hw.Phys_mem.Host ~kind:Hw.Phys_mem.Data with
      | pfn -> live := pfn :: !live
      | exception Hw.Phys_mem.Out_of_memory -> ()
    end
    else begin
      match !live with
      | pfn :: rest ->
          Hw.Phys_mem.free m pfn;
          live := rest
      | [] -> ()
    end;
    let scanned = Hw.Phys_mem.count_owned m (fun o -> o = Hw.Phys_mem.Free) in
    if Hw.Phys_mem.free_frames m <> scanned then
      failf "free_frames drifted: counter=%d scan=%d" (Hw.Phys_mem.free_frames m) scanned
  done

(* The bitmap allocator must preserve the old next-fit order: alloc
   rotates a hint; free does not move it; contiguous runs are first-fit
   from frame 0. *)
let test_allocation_order_preserved () =
  let m = Hw.Phys_mem.create ~frames:200 in
  let a () = Hw.Phys_mem.alloc m ~owner:Hw.Phys_mem.Host ~kind:Hw.Phys_mem.Data in
  check int "first" 0 (a ());
  check int "second" 1 (a ());
  check int "third" 2 (a ());
  Hw.Phys_mem.free m 0;
  (* next-fit: the hint is past 0, so the hole is NOT reused yet *)
  check int "hole skipped" 3 (a ());
  (* contiguous is first-fit from 0 and must skip the single hole *)
  let base =
    Hw.Phys_mem.alloc_contiguous m ~owner:Hw.Phys_mem.Host ~kind:Hw.Phys_mem.Data ~count:4
  in
  check int "contiguous first-fit" 4 base;
  (* exhaust, then wrap back to the hole at 0 *)
  for _ = 8 to 199 do
    ignore (a ())
  done;
  check int "wraps to the hole" 0 (a ());
  check_raises "oom" Hw.Phys_mem.Out_of_memory (fun () -> ignore (a ()))

(* Crossing word boundaries (62 frames/word): a contiguous run that
   spans several bitmap words, with scattered holes, lands on the first
   window exactly like the per-frame scan did. *)
let test_contiguous_across_words () =
  let m = Hw.Phys_mem.create ~frames:1000 in
  let base =
    Hw.Phys_mem.alloc_contiguous m ~owner:Hw.Phys_mem.Host ~kind:Hw.Phys_mem.Data ~count:1000
  in
  check int "full span" 0 base;
  (* punch a 130-frame hole crossing word boundaries at 61..190 *)
  Hw.Phys_mem.free_range m ~base:61 ~count:130;
  check_raises "131 does not fit" Hw.Phys_mem.Out_of_memory (fun () ->
      ignore
        (Hw.Phys_mem.alloc_contiguous m ~owner:Hw.Phys_mem.Host ~kind:Hw.Phys_mem.Data ~count:131));
  let b =
    Hw.Phys_mem.alloc_contiguous m ~owner:Hw.Phys_mem.Host ~kind:Hw.Phys_mem.Data ~count:130
  in
  check int "refills the exact hole" 61 b

(* A freed table frame's arena slot is recycled: churn through many
   table-frame lifetimes and confirm reads stay isolated (a recycled
   slot must come back zeroed, never leaking the previous tenant's
   PTEs). *)
let test_arena_slot_recycling () =
  let m = Hw.Phys_mem.create ~frames:64 in
  for round = 1 to 50 do
    let f = Hw.Phys_mem.alloc m ~owner:Hw.Phys_mem.Host ~kind:(Hw.Phys_mem.Page_table 1) in
    check bool "fresh table reads zero" true (Hw.Phys_mem.read_entry m ~pfn:f ~index:7 = 0L);
    Hw.Phys_mem.write_entry m ~pfn:f ~index:7 (Int64.of_int round);
    check bool "read back" true (Hw.Phys_mem.read_entry m ~pfn:f ~index:7 = Int64.of_int round);
    Hw.Phys_mem.free m f
  done

(* iter_entries visits what was written, and stops seeing an entry
   once it is overwritten with zero or the table is cleared. *)
let test_iter_entries_sees_writes () =
  let m = Hw.Phys_mem.create ~frames:8 in
  let f = Hw.Phys_mem.alloc m ~owner:Hw.Phys_mem.Host ~kind:(Hw.Phys_mem.Page_table 1) in
  let seen () =
    let acc = ref [] in
    Hw.Phys_mem.iter_entries m ~pfn:f (fun i e -> acc := (i, e) :: !acc);
    List.rev !acc
  in
  check bool "a fresh table visits nothing" true (seen () = []);
  Hw.Phys_mem.write_entry m ~pfn:f ~index:3 99L;
  Hw.Phys_mem.write_entry m ~pfn:f ~index:511 7L;
  check bool "both entries, ascending" true (seen () = [ (3, 99L); (511, 7L) ]);
  Hw.Phys_mem.write_entry m ~pfn:f ~index:3 0L;
  check bool "a zeroed entry is skipped" true (seen () = [ (511, 7L) ]);
  Hw.Phys_mem.clear_table m f;
  check bool "a cleared table visits nothing" true (seen () = [])

(* ------------------------------------------------------------------ *)
(* Owner index                                                         *)
(* ------------------------------------------------------------------ *)

(* Container 40 encodes past the index's initial table, so runs also
   exercise its growth. *)
let index_owners =
  Hw.Phys_mem.[| Host; Container 1; Ksm 1; Container 2; Ksm 2; Container 40; Ksm 40 |]

let delegated_ids = [| 1; 2; 40 |]

type owner_op =
  | Alloc of int  (** owner index *)
  | Alloc_contiguous of int * int  (** owner index, count *)
  | Free of int  (** index into the owned frames, modulo *)
  | Set_owner of int * int  (** owned-frame index, owner index *)
  | Delegate of int * int  (** delegated-id index, frames (scatter; may roll back) *)
  | Reclaim of int  (** delegated-id index *)
  | Free_sub of int * int * int
      (** a [free_range] over part of a contiguous run: run index, then
          offset and length, both modulo what the run has left *)
  | Share of int * bool
      (** owned-frame index: CoW-share it, with one reference or none
          (a referenced shared frame refuses to be freed) *)

let show_owner_op = function
  | Alloc o -> Printf.sprintf "alloc %d" o
  | Alloc_contiguous (o, n) -> Printf.sprintf "alloc_contiguous %d x%d" o n
  | Free i -> Printf.sprintf "free #%d" i
  | Set_owner (i, o) -> Printf.sprintf "set_owner #%d %d" i o
  | Delegate (c, n) -> Printf.sprintf "delegate %d x%d" delegated_ids.(c) n
  | Reclaim c -> Printf.sprintf "reclaim %d" delegated_ids.(c)
  | Free_sub (r, o, n) -> Printf.sprintf "free_sub run#%d +%d x%d" r o n
  | Share (i, r) -> Printf.sprintf "share #%d%s" i (if r then " +ref" else "")

let owner_ops =
  let open QCheck.Gen in
  let o = int_bound (Array.length index_owners - 1) in
  let c = int_bound (Array.length delegated_ids - 1) in
  let op =
    frequency
      [
        (4, map (fun o -> Alloc o) o);
        (2, map2 (fun o n -> Alloc_contiguous (o, n)) o (int_range 1 40));
        (4, map (fun i -> Free i) nat);
        (2, map2 (fun i o -> Set_owner (i, o)) nat o);
        (1, map2 (fun c n -> Delegate (c, n)) c (int_range 64 200));
        (1, map (fun c -> Reclaim c) c);
        (2, map3 (fun r o n -> Free_sub (r, o, n)) nat nat nat);
        (1, map2 (fun i r -> Share (i, r)) nat bool);
      ]
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_owner_op ops))
    (list_size (int_range 1 120) op)

(* After every step, for every owner: [iter_owned] yields exactly the
   frames a brute-force scan finds, each once, and [owned_count] and
   [count_owned] agree with it.  Its order is that of a reference list
   model: a claim pushes the frame on the front of its owner's list (a
   contiguous run in ascending pfn order), and a frame that leaves an
   owner drops out of that owner's list, the rest keeping their order.
   [free_range] over a whole run or a sub-run of one takes the one-step
   unlink; over a run with a re-owned, freed or shared frame in it, the
   per-frame path, which stops at a referenced shared frame.  A free
   frame never reads as shared, and [shared_count] is the number of an
   owner's frames that do. *)
let prop_owner_index =
  QCheck.Test.make ~name:"iter_owned/owned_count match a brute-force scan" ~count:200 owner_ops
    (fun ops ->
      (* 1 MiB = 256 frames: several bitmap words, small enough for
         scatter delegation to fail and roll back. *)
      let machine = Hw.Machine.create ~mem_mib:1 () in
      let host = Cki.Host.create ~policy:Cki.Host.Scatter machine in
      let m = Hw.Machine.mem machine in
      let frames = List.init (Hw.Phys_mem.total_frames m) Fun.id in
      let owned () = List.filter (fun pfn -> not (Hw.Phys_mem.is_free m pfn)) frames in
      let nth_owned i k = match owned () with [] -> () | l -> k (List.nth l (i mod List.length l)) in
      (* The reference model: each owner's frames, head first, from
         the frames the host's creation claimed. *)
      let model =
        Array.map
          (fun owner ->
            let l = ref [] in
            Hw.Phys_mem.iter_owned m owner (fun pfn -> l := pfn :: !l);
            List.rev !l)
          index_owners
      in
      let slot owner =
        let rec find i = if index_owners.(i) = owner then i else find (i + 1) in
        find 0
      in
      let push owner pfn = model.(slot owner) <- pfn :: model.(slot owner) in
      let push_run owner (base, count) =
        for pfn = base to base + count - 1 do
          push owner pfn
        done
      in
      let runs = ref [] in
      (* The model's claims; leaving an owner is found by comparing
         every frame's owner before and after the step. *)
      let step = function
        | Alloc o -> (
            try
              push index_owners.(o)
                (Hw.Phys_mem.alloc m ~owner:index_owners.(o) ~kind:Hw.Phys_mem.Data)
            with Hw.Phys_mem.Out_of_memory -> ())
        | Alloc_contiguous (o, count) -> (
            try
              let base =
                Hw.Phys_mem.alloc_contiguous m ~owner:index_owners.(o) ~kind:Hw.Phys_mem.Data ~count
              in
              push_run index_owners.(o) (base, count);
              runs := (base, count) :: !runs
            with Hw.Phys_mem.Out_of_memory -> ())
        | Free i ->
            nth_owned i (fun pfn -> try Hw.Phys_mem.free m pfn with Invalid_argument _ -> ())
        | Set_owner (i, o) ->
            nth_owned i (fun pfn ->
                let was = Hw.Phys_mem.owner m pfn in
                Hw.Phys_mem.set_owner m pfn index_owners.(o);
                if was <> index_owners.(o) then push index_owners.(o) pfn)
        | Delegate (c, frames) -> (
            let owner = Hw.Phys_mem.Container delegated_ids.(c) in
            try
              let segs = Cki.Host.delegate host ~container:delegated_ids.(c) ~frames in
              List.iter (push_run owner) segs;
              runs := segs @ !runs
            with Hw.Phys_mem.Out_of_memory -> ())
        | Reclaim c -> (
            try Cki.Host.reclaim_segment host ~container:delegated_ids.(c)
            with Invalid_argument _ -> ())
        | Free_sub (r, o, n) -> (
            match !runs with
            | [] -> ()
            | l ->
                let base, count = List.nth l (r mod List.length l) in
                let off = o mod count in
                try Hw.Phys_mem.free_range m ~base:(base + off) ~count:(1 + (n mod (count - off)))
                with Invalid_argument _ -> ())
        | Share (i, referenced) ->
            nth_owned i (fun pfn ->
                Hw.Phys_mem.set_shared_ro m pfn true;
                if referenced then Hw.Phys_mem.incr_ref m pfn)
      in
      let consistent op =
        Array.iteri
          (fun k owner ->
            let scan = List.filter (fun pfn -> Hw.Phys_mem.owner m pfn = owner) frames in
            let seen = ref [] in
            Hw.Phys_mem.iter_owned m owner (fun pfn -> seen := pfn :: !seen);
            let fail_on what =
              QCheck.Test.fail_reportf "after %s: %s for %s" (show_owner_op op) what
                (Hw.Phys_mem.show_owner owner)
            in
            if List.sort compare !seen <> scan then fail_on "iter_owned differs from the scan";
            if List.rev !seen <> model.(k) then
              fail_on "iter_owned order differs from the list model";
            if Hw.Phys_mem.owned_count m owner <> List.length scan then
              fail_on "owned_count differs from the scan";
            if Hw.Phys_mem.count_owned m (Hw.Phys_mem.equal_owner owner) <> List.length scan then
              fail_on "count_owned differs from the scan";
            if
              Hw.Phys_mem.shared_count m owner
              <> List.length (List.filter (Hw.Phys_mem.is_shared_ro m) scan)
            then fail_on "shared_count differs from the scan")
          index_owners;
        if Hw.Phys_mem.owned_count m Hw.Phys_mem.Free <> Hw.Phys_mem.free_frames m then
          QCheck.Test.fail_reportf "after %s: owned_count Free <> free_frames" (show_owner_op op);
        let shared_free pfn = Hw.Phys_mem.is_free m pfn && Hw.Phys_mem.is_shared_ro m pfn in
        if List.exists shared_free frames then
          QCheck.Test.fail_reportf "after %s: a free frame reads as shared" (show_owner_op op)
      in
      List.iter
        (fun op ->
          let before = List.map (Hw.Phys_mem.owner m) frames in
          step op;
          List.iter2
            (fun pfn was ->
              if was <> Hw.Phys_mem.Free && Hw.Phys_mem.owner m pfn <> was then
                model.(slot was) <- List.filter (fun p -> p <> pfn) model.(slot was))
            frames before;
          consistent op)
        ops;
      true)

(* Destroying a warm clone on a full-size (512 MiB) host leaves nothing
   in the owner index for its container or its KSM, and unpins the
   template. *)
let test_destroyed_clone_owns_nothing () =
  let host = Cki.Host.create (Hw.Machine.create ~mem_mib:512 ()) in
  let mem = Hw.Machine.mem (Cki.Host.machine host) in
  let c = Cki.Container.create host in
  init_workload c;
  let tpl =
    match Snapshot.Template.create c with
    | Ok t -> t
    | Error e -> fail ("template: " ^ Snapshot.Template.show_error e)
  in
  let clone =
    match Snapshot.Template.clone tpl with
    | Ok c -> c
    | Error e -> fail ("clone: " ^ Snapshot.Template.show_error e)
  in
  (* Break CoW on one page so the clone owns a private data frame. *)
  (match Kernel_model.Kernel.tasks clone.Cki.Container.backend.Virt.Backend.kernel with
  | task :: _ -> Kernel_model.Mm.touch task.Kernel_model.Task.mm Kernel_model.Mm.user_mmap_base ~write:true
  | [] -> fail "clone has no task");
  let id = clone.Cki.Container.container_id in
  check bool "template pinned by the clone" true (Snapshot.Template.in_use tpl);
  check bool "clone owns KSM frames" true (Hw.Phys_mem.owned_count mem (Hw.Phys_mem.Ksm id) > 0);
  check bool "clone owns data frames" true
    (Hw.Phys_mem.owned_count mem (Hw.Phys_mem.Container id) > 0);
  Cki.Container.destroy clone;
  check int "Container id owns nothing" 0 (Hw.Phys_mem.owned_count mem (Hw.Phys_mem.Container id));
  check int "Ksm id owns nothing" 0 (Hw.Phys_mem.owned_count mem (Hw.Phys_mem.Ksm id));
  check bool "template unpinned" false (Snapshot.Template.in_use tpl)

(* ------------------------------------------------------------------ *)
(* Translation under invalidation                                      *)
(* ------------------------------------------------------------------ *)

(* [Cpu.access] across TLB invalidation, pinned to exact values: 32
   mapped pages touched three times (32 walks, then 64 hits); half
   unmapped and invlpg'd, then all re-touched (the 16 dropped pages
   walk and fault Not_present, the other 16 hit); invpcid, then the
   mapped half re-touched (16 walks).  A TLB that keeps a dropped
   translation turns those faults into hits. *)
let test_tlb_invalidation () =
  let m = Hw.Phys_mem.create ~frames:4096 in
  let pt = Hw.Page_table.create m ~owner:Hw.Phys_mem.Host in
  let clock = Hw.Clock.create () in
  let cpu = Hw.Cpu.create clock in
  let page i = 0x400000 + (i * 4096) in
  let frames =
    Array.init 32 (fun i ->
        let data = Hw.Phys_mem.alloc m ~owner:Hw.Phys_mem.Host ~kind:Hw.Phys_mem.Data in
        ignore
          (Hw.Page_table.map pt ~va:(page i) ~pfn:data
             ~flags:{ Hw.Pte.default_flags with Hw.Pte.writable = true }
             ());
        data)
  in
  let faults = ref [] in
  let touch ?(write = false) i =
    let kind = if write then Hw.Pks.Write else Hw.Pks.Read in
    match Hw.Cpu.access cpu pt ~va:(page i) ~access_kind:kind () with
    | Ok pa -> check int "translated to the mapped frame" (Hw.Addr.pa_of_pfn frames.(i)) pa
    | Error (Hw.Cpu.Not_present va) when va = page i -> faults := i :: !faults
    | Error f -> fail ("unexpected fault: " ^ Hw.Cpu.show_fault f)
  in
  for _ = 1 to 3 do
    for i = 0 to 31 do
      touch ~write:(i mod 2 = 0) i
    done
  done;
  for i = 0 to 15 do
    ignore (Hw.Page_table.unmap pt (page i));
    Hw.Cpu.exec_priv_exn cpu (Hw.Priv.Invlpg (page i))
  done;
  for i = 0 to 31 do
    touch i
  done;
  Hw.Cpu.exec_priv_exn cpu Hw.Priv.Invpcid;
  for i = 16 to 31 do
    touch i
  done;
  check (list int) "exactly the unmapped pages fault Not_present" (List.init 16 Fun.id)
    (List.rev !faults);
  check int "tlb hits" 80 (Hw.Tlb.hits cpu.Hw.Cpu.tlb);
  check int "tlb misses" 64 (Hw.Tlb.misses cpu.Hw.Cpu.tlb);
  check int "tlb_miss_walk charges" 64 (Hw.Clock.occurrences clock "tlb_miss_walk")

(* ------------------------------------------------------------------ *)
(* JSON round-trip: the parser added for artifact validation must
   accept exactly what the emitter produces.                           *)
(* ------------------------------------------------------------------ *)

let rec json_equal (a : Report.Json.value) (b : Report.Json.value) =
  match (a, b) with
  | Report.Json.Null, Report.Json.Null -> true
  | Report.Json.Bool x, Report.Json.Bool y -> x = y
  | Report.Json.Int x, Report.Json.Int y -> x = y
  | Report.Json.Float x, Report.Json.Float y -> Float.equal x y
  | Report.Json.String x, Report.Json.String y -> String.equal x y
  | Report.Json.List xs, Report.Json.List ys ->
      List.length xs = List.length ys && List.for_all2 json_equal xs ys
  | Report.Json.Obj xs, Report.Json.Obj ys ->
      List.length xs = List.length ys
      && List.for_all2 (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && json_equal v1 v2) xs ys
  | _ -> false

let test_json_roundtrip () =
  let open Report.Json in
  let v =
    Obj
      [
        ("bench", String "engine");
        ("ratio", Float 11.5);
        ("events", Int 123456789);
        ("ok", Bool true);
        ("missing", Null);
        ("empty_list", List []);
        ("empty_obj", Obj []);
        ( "rows",
          List
            [
              Obj [ ("name", String "tlb \"hit\"\n\ttab"); ("us", Float 0.25) ];
              Obj [ ("name", String "walk"); ("us", Float 3.0) ];
              Int (-42);
            ] );
      ]
  in
  (match parse (to_string v) with
  | Ok v' -> check bool "round-trip equal" true (json_equal v v')
  | Error e -> fail ("parse failed: " ^ e));
  (* every checked-in artifact shape the emitter produces parses *)
  (match parse "  { \"a\" : [ 1 , 2.5 , \"x\\u0041\" ] }  " with
  | Ok (Obj [ ("a", List [ Int 1; Float 2.5; String "xA" ]) ]) -> ()
  | Ok _ -> fail "unexpected parse shape"
  | Error e -> fail ("parse failed: " ^ e));
  (* floats keep every bit through the file, in the fewest digits *)
  let tricky =
    [ 0.1 +. 0.2; 1.0 /. 3.0; 3942930.123456789; 1e-300; 2.5e20; 1234567890123456.0; -0.0 ]
  in
  let same_bits f = function
    | Float g -> Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float g)
    | _ -> false
  in
  (match parse (to_string (List (List.map (fun f -> Float f) tricky))) with
  | Ok (List vs) -> check bool "floats bit-identical" true (List.for_all2 same_bits tricky vs)
  | Ok _ -> fail "unexpected parse shape"
  | Error e -> fail ("parse failed: " ^ e));
  check string "short repr" "0.1" (float_repr 0.1);
  check string "integral repr" "3.0" (float_repr 3.0);
  check bool "member finds field" true
    (match member "ratio" v with Some (Float f) -> Float.equal f 11.5 | _ -> false);
  check bool "member on non-object" true (member "x" (Int 3) = None)

let test_json_rejects_malformed () =
  let open Report.Json in
  let bad s = match parse s with Error _ -> true | Ok _ -> false in
  check bool "empty input" true (bad "");
  check bool "trailing garbage" true (bad "{} x");
  check bool "unterminated string" true (bad "\"abc");
  check bool "unterminated object" true (bad "{\"a\": 1");
  check bool "missing colon" true (bad "{\"a\" 1}");
  check bool "NaN literal" true (bad "NaN");
  check bool "bare word" true (bad "nope");
  check bool "bad escape" true (bad "\"\\q\"");
  check bool "lone minus" true (bad "-")

let suite =
  [
    ( "engine-golden",
      [
        test_case "capture matches pre-overhaul fixture" `Quick test_golden_capture_identical;
        test_case "fixture restores and recaptures byte-identical" `Quick
          test_golden_restore_recapture;
      ] );
    ( "engine-allocator",
      [
        test_case "free count agrees with ownership scan" `Quick test_free_count_agrees_with_scan;
        test_case "allocation order preserved" `Quick test_allocation_order_preserved;
        test_case "contiguous runs across bitmap words" `Quick test_contiguous_across_words;
        test_case "arena slots are recycled zeroed" `Quick test_arena_slot_recycling;
        test_case "iter_entries sees writes" `Quick test_iter_entries_sees_writes;
      ] );
    ( "engine-owner-index",
      [
        QCheck_alcotest.to_alcotest prop_owner_index;
        test_case "destroyed clone owns no frames" `Quick test_destroyed_clone_owns_nothing;
      ] );
    ("engine-tlb", [ test_case "invlpg/invpcid pinned" `Quick test_tlb_invalidation ]);
    ( "engine-json",
      [
        test_case "emit/parse round-trip" `Quick test_json_roundtrip;
        test_case "malformed input rejected" `Quick test_json_rejects_malformed;
      ] );
  ]
