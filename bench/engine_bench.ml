(* Raw-speed engine benchmark (host wall-clock and host heap words).

   Every other bench in this directory measures *simulated* time; this
   one measures the simulator itself: host ns/op for each engine hot
   path, compared across runs through the checked-in artifact history
   rather than against in-process replicas.  The five [*_words]
   sections count heap words allocated by a fixed piece of work; each
   gives the same value on every invocation, so they are filed under
   the [heap] clock, which [compare] fails on a rise.

   - frame allocation: next-fit over the bitmap allocator on a
     fragmented, mostly-full host;
   - frame/PTE arena: packed int-array metadata + one int64 Bigarray
     PTE arena with slot recycling;
   - machine creation: a 2-vCPU 512 MiB host, as every migration
     fabric and fleet tenant builds, in host ns and heap words;
   - probe emission: guarded emits into a counting sink;
   - clock charging: [Clock.charge] of cost items;
   - translation: [Cpu.access] in the TLB-hit regime (TLB lookup and
     the [check_pte] rights check);
   - the primitives under every experiment: a page-table walk, a TLB
     lookup, a buddy alloc+free, a CKI getpid and a PKS rights check;
   - the VirtIO copy path: one 32 KiB chain posted and serviced on a
     CKI container, 8 payload pages copied in and out;
   - a fixed CKI web-static serve: host ns and words allocated straight
     on the major heap per request of the whole [Ioplane.Serve.run],
     boot and the latency statistics included;
   - the container cycle: restore a captured 64 MiB container, scan it
     with [Analysis.check_machine], destroy it -- the table walks over
     its 16,384-leaf direct map that a migration pays on the target --
     in host ns and heap words per cycle.  Gate: every restored copy is
     analysis-clean;
   - one dirty-tracking epoch over a 4,096-page heap: every page
     write-protected with its per-vCPU shootdown, then restored, in
     host ns and heap words per epoch;
   - one pre-copy migration of a 1,024-page app: dirty tracking, two
     captures, restore, scan and the source's teardown, in host ns and
     heap words per migration. *)

let now_ns () = Int64.to_float (Monotonic_clock.now ())

(* Host ns/op of [f], which performs [ops] operations. *)
let time name ~ops f =
  let t0 = now_ns () in
  f ();
  Artifact.wall ~n:ops name "ns/op" ((now_ns () -. t0) /. float_of_int ops)

(* Arena churn: allocate a table frame, write + read back a sparse
   cluster of PTEs (a partially-filled leaf table — the common case),
   free it. *)
let bench_arena ~ops =
  let mem = Hw.Phys_mem.create ~frames:4096 in
  let acc = ref 0L in
  let m =
    time "arena" ~ops (fun () ->
        for i = 1 to ops do
          let pfn = Hw.Phys_mem.alloc mem ~owner:Hw.Phys_mem.Host ~kind:(Hw.Phys_mem.Page_table 1) in
          let base = i land 0xff in
          for k = 0 to 7 do
            Hw.Phys_mem.write_entry mem ~pfn ~index:(base + k) (Int64.of_int ((i * 8) + k))
          done;
          for k = 0 to 7 do
            acc := Int64.add !acc (Hw.Phys_mem.read_entry mem ~pfn ~index:(base + k))
          done;
          Hw.Phys_mem.free mem pfn
        done)
  in
  Sys.opaque_identity !acc |> ignore;
  m

(* Frame allocation on a mostly-full, fragmented host — the paper's
   steady serving state.  One frame in [hole_stride] is free; each op
   allocates the next hole and frees it again, so next-fit must cross
   [hole_stride - 1] occupied frames per allocation. *)
let bench_alloc ~ops =
  let frames = 65536 in
  let hole_stride = 256 in
  let mem = Hw.Phys_mem.create ~frames in
  for pfn = 0 to frames - 1 do
    let p = Hw.Phys_mem.alloc mem ~owner:Hw.Phys_mem.Host ~kind:Hw.Phys_mem.Data in
    assert (p = pfn);
    if pfn mod hole_stride = 0 then Hw.Phys_mem.free mem pfn
  done;
  time "alloc" ~ops (fun () ->
      for _ = 1 to ops do
        let pfn = Hw.Phys_mem.alloc mem ~owner:Hw.Phys_mem.Host ~kind:Hw.Phys_mem.Data in
        Hw.Phys_mem.free mem pfn
      done)

(* Building a fabric or fleet host, [Machine.create ~cpus:2
   ~mem_mib:512] (131,072 frames), in host ns and heap words per
   machine.  The words are deterministic: frame metadata is built per
   chunk on first write, so a fresh machine pays for its free bitmap and
   chunk directory, not for its frames. *)
let heap_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* Heap words allocated by [f], counted between two full collections:
   the runtime adds words allocated straight on the major heap to its
   count only at a major slice, so without them the figure depends on
   where the last slice fell, and so on whatever ran before. *)
let words_of f =
  Gc.full_major ();
  let w0 = heap_words () in
  let r = f () in
  Gc.full_major ();
  (r, heap_words () -. w0)

let bench_machine_create ~ops =
  let m, words =
    words_of (fun () ->
        time "machine_create" ~ops (fun () ->
            for _ = 1 to ops do
              ignore (Sys.opaque_identity (Hw.Machine.create ~cpus:2 ~mem_mib:512 ()))
            done))
  in
  [ m; Artifact.heap ~n:ops "machine_create_words" "words/op" (words /. float_of_int ops) ]

(* Probe emission into an installed sink, each site guarded by
   [active] as in the engine.  The sink counts what it receives, and
   the section fails unless it received every event: it cannot time
   an inactive sink. *)
let bench_probe ~ops =
  let ops = ops / 3 * 3 in
  let seen = ref 0 in
  Hw.Probe.set_sink (fun _ -> incr seen);
  let m =
    Fun.protect ~finally:Hw.Probe.clear_sink (fun () ->
        time "probe" ~ops (fun () ->
            for i = 1 to ops / 3 do
              if Hw.Probe.active () then
                Hw.Probe.emit
                  (Hw.Probe.Tlb_fill { cpu = 0; pcid = 1; vpn = i land 0xffff; level = 1; pfn = i });
              if Hw.Probe.active () then
                Hw.Probe.emit (Hw.Probe.Io_doorbell { queue = "net-tx"; avail_idx = i; in_flight = 1 });
              if Hw.Probe.active () then
                Hw.Probe.emit (Hw.Probe.Io_completion { queue = "net-tx"; used_idx = i; serviced = 1 })
            done))
  in
  if !seen <> ops then
    failwith (Printf.sprintf "engine bench: probe sink saw %d of %d events" !seen ops);
  m

(* Clock charging: two of the engine's hottest cost items. *)
let bench_clock ~ops =
  let clk = Hw.Clock.create () in
  time "clock" ~ops:(ops / 2 * 2) (fun () ->
      for _ = 1 to ops / 2 do
        Hw.Clock.charge clk Hw.Cost.tlb_hit;
        Hw.Clock.charge clk Hw.Cost.virtio_backend_service
      done)

(* Translation in the TLB-hit regime. *)
let bench_translate ~ops =
  let clk = Hw.Clock.create () in
  let cpu = Hw.Cpu.create clk in
  let mem = Hw.Phys_mem.create ~frames:4096 in
  let pt = Hw.Page_table.create mem ~owner:Hw.Phys_mem.Host in
  let pages = 64 in
  for i = 0 to pages - 1 do
    ignore (Hw.Page_table.map pt ~va:(0x4000_0000 + (i * 4096)) ~pfn:(100 + i) ~flags:Hw.Pte.default_flags ())
  done;
  let touch () =
    for i = 0 to ops - 1 do
      let va = 0x4000_0000 + (i land (pages - 1)) * 4096 in
      match Hw.Cpu.access cpu pt ~va ~access_kind:Hw.Pks.Read () with
      | Ok _ -> ()
      | Error _ -> failwith "engine bench: unexpected fault"
    done
  in
  (* warm the TLB so the timed run sits in the hit regime *)
  touch ();
  time "translate" ~ops touch

(* The simulator primitives an experiment leans on: a 4-level
   page-table walk, a TLB lookup, a buddy alloc+free, a CKI getpid
   (gate entry, dispatch and exit) and a PKS rights check. *)
let bench_primitives () =
  let mem = Hw.Phys_mem.create ~frames:65536 in
  let pt = Hw.Page_table.create mem ~owner:Hw.Phys_mem.Host in
  for i = 0 to 511 do
    ignore (Hw.Page_table.map pt ~va:(0x1000_0000 + (i * 4096)) ~pfn:(i + 100) ~flags:Hw.Pte.default_flags ())
  done;
  let walk =
    time "pt_walk" ~ops:500_000 (fun () ->
        for i = 1 to 500_000 do
          ignore (Sys.opaque_identity (Hw.Page_table.walk pt (0x1000_0000 + ((i land 511) * 4096))))
        done)
  in
  let tlb = Hw.Tlb.create () in
  Hw.Tlb.insert tlb ~pcid:1 ~va:0x5000 { Hw.Tlb.pfn = 5; flags = Hw.Pte.default_flags; level = 1 };
  let tlb_lookup =
    time "tlb_lookup" ~ops:2_000_000 (fun () ->
        for _ = 1 to 2_000_000 do
          ignore (Sys.opaque_identity (Hw.Tlb.lookup tlb ~pcid:1 0x5000))
        done)
  in
  let buddy = Kernel_model.Buddy.create ~base:0 ~frames:4096 in
  let buddy_cycle =
    time "buddy_alloc_free" ~ops:1_000_000 (fun () ->
        for _ = 1 to 1_000_000 do
          Kernel_model.Buddy.free buddy (Kernel_model.Buddy.alloc buddy)
        done)
  in
  let b = Cki.Container.backend (Cki.Container.create_standalone ~mem_mib:256 ()) in
  let task = Virt.Backend.spawn b in
  let getpid =
    time "cki_getpid" ~ops:200_000 (fun () ->
        for _ = 1 to 200_000 do
          ignore (Virt.Backend.syscall_exn b task Kernel_model.Syscall.Getpid)
        done)
  in
  let pks =
    time "pks_allows" ~ops:5_000_000 (fun () ->
        for _ = 1 to 5_000_000 do
          ignore (Sys.opaque_identity (Hw.Pks.allows Hw.Pks.pkrs_guest ~key:Hw.Pks.pkey_ptp Hw.Pks.Write))
        done)
  in
  [ walk; tlb_lookup; buddy_cycle; getpid; pks ]

(* The VirtIO copy path on a CKI container: each op posts one 32 KiB
   TX chain (8 page copies in), services it (8 page copies out) and
   reclaims its descriptors. *)
let bench_virtio_copy ~ops =
  let p = (Cki.Container.backend (Cki.Container.create_standalone ~mem_mib:128 ())).Virt.Backend.platform in
  let q =
    Kernel_model.Virtio.create ~size:16 ~name:"bench"
      {
        Kernel_model.Virtio.mem = p.Kernel_model.Platform.mem;
        frame = p.Kernel_model.Platform.guest_frame;
        alloc_frame = p.Kernel_model.Platform.alloc_frame;
      }
      p.Kernel_model.Platform.clock
  in
  let data = Bytes.init 32768 (fun i -> Char.chr (i land 0xFF)) in
  time "virtio_copy_32k" ~ops (fun () ->
      for _ = 1 to ops do
        if Kernel_model.Virtio.post q ~data ~len:(Bytes.length data) <> `Posted then
          failwith "engine bench: ring full";
        ignore (Kernel_model.Virtio.service q ~handle:(fun _ _ -> ()));
        ignore (Kernel_model.Virtio.reclaim q)
      done)

(* Web-static on 4 CKI containers, 2,500 requests each.  A request
   reads an 8 KiB file: a path that allocates payloads per operation
   adds about a thousand major-heap words per request here.  Boot and
   the run's latency statistics are in both numbers; the steady-state
   serving loop alone is held under 64 words per request by
   test_ioplane. *)
let bench_serve () =
  let cfg =
    {
      Ioplane.Serve.default_config with
      Ioplane.Serve.workload = Ioplane.Serve.Web_static;
      containers = 4;
      requests_per_container = 2500;
      window = 4;
    }
  in
  let requests = cfg.Ioplane.Serve.containers * cfg.Ioplane.Serve.requests_per_container in
  (* Words allocated straight on the major heap, counted between two
     full collections as in [words_of].  Promoted words are left out:
     how many survive a minor collection depends on where the major
     slices fall, so one binary promoted 95.6 and then 111.2 words per
     request on two consecutive runs in one process. *)
  let direct () =
    let s = Gc.quick_stat () in
    s.Gc.major_words -. s.Gc.promoted_words
  in
  Gc.full_major ();
  let words0 = direct () in
  let m = time "serve_web_static" ~ops:requests (fun () -> ignore (Ioplane.Serve.run cfg)) in
  Gc.full_major ();
  let words = direct () -. words0 in
  [ m; Artifact.heap ~n:requests "serve_major_words" "words/op" (words /. float_of_int requests) ]

(* One op: restore the image, scan the copy, destroy it.  Returns the
   two metrics and the findings summed over every copy.  The heap words
   are counted by [words_of], so they are deterministic. *)
let bench_container_cycle ~ops =
  let host = Cki.Host.create (Hw.Machine.create ~mem_mib:256 ()) in
  let c = Cki.Container.create host in
  let image =
    match Snapshot.Capture.capture c with
    | Ok i -> i
    | Error e -> failwith ("engine bench: capture: " ^ Snapshot.Capture.show_error e)
  in
  let findings = ref 0 in
  let m, words =
    words_of (fun () ->
        time "container_cycle_64m" ~ops (fun () ->
            for _ = 1 to ops do
              match Snapshot.Restore.restore ~verify:false host image with
              | Ok copy ->
                  findings := !findings + List.length (Analysis.check_machine ~containers:[ copy ]);
                  Cki.Container.destroy copy
              | Error e -> failwith ("engine bench: restore: " ^ Snapshot.Restore.show_error e)
            done))
  in
  (m, Artifact.heap ~n:ops "container_cycle_64m_words" "words/op" (words /. float_of_int ops), !findings)

(* One dirty-tracking epoch over a 4,096-page [Chaos.boot_app] heap:
   [Mm.dirty_track_start] write-protects every resident page through
   the KSM's protect-by-runs call with the engine's per-vCPU shootdown,
   and [Mm.dirty_track_finish] restores them, with no write in between.
   Booting the app is outside the timer; the heap words are counted by
   [words_of], so they are deterministic. *)
let bench_dirty_track ~ops =
  let fab = Migrate.Fabric.create ~hosts:1 () in
  let app = Migrate.Chaos.boot_app ~heap_pages:4096 fab ~hid:0 in
  let mm = app.Migrate.Chaos.task.Kernel_model.Task.mm in
  let shootdown = Migrate.Engine.shootdown app.Migrate.Chaos.container in
  let m, words =
    words_of (fun () ->
        time "dirty_track_4096" ~ops (fun () ->
            for _ = 1 to ops do
              if Kernel_model.Mm.dirty_track_start mm ~shootdown < 4096 then
                failwith "engine bench: the epoch left heap pages unprotected";
              ignore (Kernel_model.Mm.dirty_track_finish mm)
            done))
  in
  [ m; Artifact.heap ~n:ops "dirty_track_4096_words" "words/op" (words /. float_of_int ops) ]

(* One [Migrate.Engine.migrate] of a 1,024-page [Chaos.boot_app] at
   the default dirty rate (about 40 pages per wire millisecond, so it
   converges in a few rounds), each on a fresh 2-host fabric.  Building
   the fabric and booting the app are outside the timer.  The heap
   words (minor plus major, as allocated, counted by [words_of]) are
   deterministic, so they track the host work without the host's
   noise. *)
let bench_migrate ~ops =
  let ns = ref 0. and words = ref 0. in
  for _ = 1 to ops do
    let fab = Migrate.Fabric.create ~hosts:2 () in
    let app = Migrate.Chaos.boot_app ~heap_pages:1024 fab ~hid:0 in
    ignore (Migrate.Fabric.expose fab ~name:"svc" ~home:0);
    let work = Migrate.Chaos.work_of app in
    let elapsed, w =
      words_of (fun () ->
          let t0 = now_ns () in
          (match
             Migrate.Engine.migrate fab ~src:0 ~dst:1 ~name:"svc" app.Migrate.Chaos.container ~work
               Migrate.Engine.default_opts
           with
          | Ok { Migrate.Engine.outcome = Migrate.Engine.Completed; _ } -> ()
          | Ok _ -> failwith "engine bench: migration did not complete"
          | Error e -> failwith ("engine bench: migrate: " ^ Migrate.Engine.show_error e));
          now_ns () -. t0)
    in
    ns := !ns +. elapsed;
    words := !words +. w
  done;
  [
    Artifact.wall ~n:ops "migrate_1024" "ns/op" (!ns /. float_of_int ops);
    Artifact.heap ~n:ops "migrate_1024_words" "words/op" (!words /. float_of_int ops);
  ]

let run () =
  let alloc = bench_alloc ~ops:400_000 in
  let arena = bench_arena ~ops:100_000 in
  let machine = bench_machine_create ~ops:100 in
  let translate = bench_translate ~ops:200_000 in
  let probe = bench_probe ~ops:1_200_000 in
  let clock = bench_clock ~ops:3_000_000 in
  let primitives = bench_primitives () in
  let virtio_copy = bench_virtio_copy ~ops:20_000 in
  let serve = bench_serve () in
  let cycle, cycle_words, cycle_findings = bench_container_cycle ~ops:100 in
  let dirty_track = bench_dirty_track ~ops:60 in
  let migrate = bench_migrate ~ops:60 in
  {
    Artifact.bench = "engine";
    metrics =
      ((alloc :: arena :: machine) @ [ translate; probe; clock ])
      @ primitives @ (virtio_copy :: serve) @ (cycle :: cycle_words :: dirty_track) @ migrate;
    gates =
      [
        Artifact.gate "restored 64 MiB copies analysis-clean" (cycle_findings = 0)
          (Printf.sprintf "%d findings over %d copies" cycle_findings cycle.Artifact.n);
      ];
  }
