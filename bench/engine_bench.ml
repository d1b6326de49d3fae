(* Raw-speed engine benchmark (host wall-clock).

   Every other bench in this directory measures *simulated* time; this
   one measures the simulator itself: host ns/op for each engine hot
   path, compared across runs through the checked-in artifact history
   rather than against in-process replicas.

   - frame allocation: next-fit over the bitmap allocator on a
     fragmented, mostly-full host;
   - frame/PTE arena: packed int-array metadata + one int64 Bigarray
     PTE arena with slot recycling;
   - probe recording: specialized int-encoding emitters into a flat
     int ring;
   - clock charging: [Clock.charge] of named events;
   - translation: the memoized per-CPU fast path, also timed with
     [Cpu.set_tcache] off (the TLB-hashtable front end) — both are the
     real engine.

   The sharding section reports the [Serve.run ~domains:{1,4}]
   simulated-makespan ratio: on a single-CPU host the lanes do not run
   in parallel, so it measures the deterministic merge of per-lane
   simulated time, not host speed.

   --json writes BENCH_engine.json. *)

let section title = Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')
let now_ns () = Int64.to_float (Monotonic_clock.now ())

type measure = { ops : int; ns : float }

let ns_per_op m = m.ns /. float_of_int m.ops

let time ~ops f =
  let t0 = now_ns () in
  f ();
  { ops; ns = now_ns () -. t0 }

(* Arena churn: allocate a table frame, write + read back a sparse
   cluster of PTEs (a partially-filled leaf table — the common case),
   free it. *)
let bench_arena ~ops =
  let mem = Hw.Phys_mem.create ~frames:4096 in
  let acc = ref 0L in
  let m =
    time ~ops (fun () ->
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
  time ~ops (fun () ->
      for _ = 1 to ops do
        let pfn = Hw.Phys_mem.alloc mem ~owner:Hw.Phys_mem.Host ~kind:Hw.Phys_mem.Data in
        Hw.Phys_mem.free mem pfn
      done)

(* Probe recording under an active trace recorder. *)
let bench_probe ~ops =
  let ring = Hw.Probe.ring_create ~capacity:4096 () in
  Hw.Probe.set_ring ring;
  let m =
    time ~ops:(ops / 3 * 3) (fun () ->
        for i = 1 to ops / 3 do
          Hw.Probe.emit_tlb_fill ~cpu:0 ~pcid:1 ~vpn:(i land 0xffff) ~level:1 ~pfn:i;
          Hw.Probe.emit_io_doorbell ~queue:"net-tx" ~avail_idx:i ~in_flight:1;
          Hw.Probe.emit_io_completion ~queue:"net-tx" ~used_idx:i ~serviced:1
        done)
  in
  Hw.Probe.clear_sink ();
  m

(* Clock charging: two of the engine's hottest named events. *)
let bench_clock ~ops =
  let clk = Hw.Clock.create () in
  time ~ops:(ops / 2 * 2) (fun () ->
      for _ = 1 to ops / 2 do
        Hw.Clock.charge clk "tlb_hit" 1.0;
        Hw.Clock.charge clk "virtio_service" 2.0
      done)

(* Translation in the TLB-hit regime, with the per-CPU translation
   cache on and off. *)
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
  (* warm the TLB (and cache) so both runs sit in the hit regime *)
  let run tcache =
    Hw.Cpu.set_tcache cpu tcache;
    touch ();
    time ~ops touch
  in
  let on = run true in
  let off = run false in
  Hw.Cpu.set_tcache cpu true;
  (on, off)

let measure_json ?(extra = []) name m =
  ( name,
    Report.Json.Obj
      ([ ("ops", Report.Json.Int m.ops); ("ns_per_op", Report.Json.Float (ns_per_op m)) ] @ extra)
  )

let serve_json (r : Ioplane.Serve.result) =
  Report.Json.Obj
    [
      ("domains", Report.Json.Int r.r_domains);
      ("wall_ns", Report.Json.Float r.r_wall_ns);
      ("throughput_rps", Report.Json.Float r.r_throughput_rps);
      ("requests", Report.Json.Int r.r_requests);
      ("p99_us", Report.Json.Float r.r_p99_us);
    ]

let run ?(json = false) () =
  section "Engine hot paths (host wall-clock)";
  let alloc = bench_alloc ~ops:400_000 in
  let arena = bench_arena ~ops:100_000 in
  let translate, translate_off = bench_translate ~ops:200_000 in
  let probe = bench_probe ~ops:1_200_000 in
  let clock = bench_clock ~ops:3_000_000 in
  List.iter
    (fun (name, m) -> Printf.printf "  %-12s %8.1f ns/op\n" name (ns_per_op m))
    [ ("alloc", alloc); ("arena", arena); ("translate", translate); ("probe", probe); ("clock", clock) ];
  Printf.printf "  %-12s %8.1f ns/op (tcache off)\n" "translate" (ns_per_op translate_off);

  section "Domain-sharded serve (simulated makespan, single-CPU host)";
  let cfg =
    {
      Ioplane.Serve.default_config with
      Ioplane.Serve.backend = "cki";
      containers = 4;
      requests_per_container = 50;
      window = 4;
    }
  in
  let serve domains =
    let r, containers = Ioplane.Serve.run ~domains cfg in
    (match Analysis.check_machine ~containers with
    | [] -> ()
    | vs -> Printf.printf "  !! domains=%d: %d invariant findings\n" domains (List.length vs));
    Printf.printf "  domains=%d  makespan %10.0f ns  throughput %10.1f req/s\n" domains
      r.Ioplane.Serve.r_wall_ns r.Ioplane.Serve.r_throughput_rps;
    r
  in
  let r1 = serve 1 in
  let r4 = serve 4 in
  let ratio = r1.Ioplane.Serve.r_wall_ns /. r4.Ioplane.Serve.r_wall_ns in
  let ratio_ok = ratio > 2.0 in
  Printf.printf "\nsimulated-makespan ratio 1 -> 4 domains: %.2fx  %s\n" ratio
    (if ratio_ok then "OK (> 2x)" else "VIOLATED (<= 2x)");

  if json then begin
    Report.Json.write_file "BENCH_engine.json"
      (Report.Json.Obj
         [
           ("bench", Report.Json.String "engine");
           ( "note",
             Report.Json.String
               "section timings are host wall-clock ns/op on a single-CPU host, compared across \
                runs through the checked-in artifact history; translate also reports the real \
                engine with its translation cache off; the sharding ratio is over the \
                simulated parallel makespan, not host speed" );
           ( "sections",
             Report.Json.Obj
               [
                 measure_json "alloc" alloc;
                 measure_json "arena" arena;
                 measure_json "translate" translate
                   ~extra:[ ("tcache_off_ns_per_op", Report.Json.Float (ns_per_op translate_off)) ];
                 measure_json "probe" probe;
                 measure_json "clock" clock;
               ] );
           ( "sharding",
             Report.Json.Obj
               [
                 ("domains_1", serve_json r1);
                 ("domains_4", serve_json r4);
                 ("sim_makespan_ratio", Report.Json.Float ratio);
                 ("sim_makespan_ratio_target", Report.Json.Float 2.0);
                 ("sim_makespan_ratio_ok", Report.Json.Bool ratio_ok);
               ] );
         ]);
    Printf.printf "wrote BENCH_engine.json\n"
  end
