(* Shared workload plumbing: deterministic RNG, run records, and the
   helpers for charging compute time and touching memory. *)

type run = {
  label : string;  (** backend label *)
  workload : string;
  latency_ns : float;  (** total simulated latency of the run *)
  throughput : float;  (** ops per simulated second (0 for latency runs) *)
  faults : int;
  syscalls : int;
}

let pp_run fmt r =
  Format.fprintf fmt "%s/%s: %.0f ns, %.0f ops/s, %d faults, %d syscalls" r.workload r.label
    r.latency_ns r.throughput r.faults r.syscalls

(* Deterministic xorshift64* PRNG so runs are reproducible. *)
module Rng = struct
  type t = { mutable s : int64 }

  let create ?(seed = 0x9E3779B97F4A7C15L) () = { s = seed }

  let next t =
    let s = t.s in
    let s = Int64.logxor s (Int64.shift_left s 13) in
    let s = Int64.logxor s (Int64.shift_right_logical s 7) in
    let s = Int64.logxor s (Int64.shift_left s 17) in
    t.s <- s;
    s

  let int t bound =
    if bound <= 0 then invalid_arg "Rng.int";
    Int64.to_int (Int64.rem (Int64.logand (next t) Int64.max_int) (Int64.of_int bound))

  let float t = float_of_int (int t 1_000_000) /. 1_000_000.0
end

(* Charge [ns] of pure application compute on the container clock. *)
let compute (b : Virt.Backend.t) ns = Hw.Clock.advance b.Virt.Backend.clock ns

(* Measure the simulated time of [f]. *)
let timed (b : Virt.Backend.t) f = snd (Hw.Clock.timed b.Virt.Backend.clock f)

(* An allocation arena that converts a byte-allocation stream into
   demand-faulted page touches — how the workload models exercise the
   page-fault path with realistic densities. *)
module Arena = struct
  type t = {
    backend : Virt.Backend.t;
    task : Kernel_model.Task.t;
    mutable chunk_base : Hw.Addr.va;
    mutable chunk_used_pages : int;
    mutable chunk_pages : int;
    mutable offset_in_page : int;
    mutable allocated_bytes : int;
  }

  (* pages per arena chunk (one mmap each) *)
  let chunk_alloc_pages = 512

  let create backend task =
    {
      backend;
      task;
      chunk_base = 0;
      chunk_used_pages = 0;
      chunk_pages = 0;
      offset_in_page = 0;
      allocated_bytes = 0;
    }

  let grow t =
    let pages = chunk_alloc_pages in
    let base =
      match
        Virt.Backend.syscall_exn t.backend t.task
          (Kernel_model.Syscall.Mmap { pages; prot = Kernel_model.Vma.prot_rw })
      with
      | Kernel_model.Syscall.Rint v -> v
      | _ -> failwith "Arena.grow: unexpected mmap result"
    in
    t.chunk_base <- base;
    t.chunk_pages <- pages;
    t.chunk_used_pages <- 0;
    t.offset_in_page <- 0

  (* Allocate [bytes]; touches (demand-faults) each new page crossed. *)
  let alloc t bytes =
    if bytes <= 0 then invalid_arg "Arena.alloc";
    t.allocated_bytes <- t.allocated_bytes + bytes;
    let remaining = ref bytes in
    while !remaining > 0 do
      if t.chunk_used_pages >= t.chunk_pages then grow t;
      if t.offset_in_page = 0 then
        Kernel_model.Mm.touch t.task.Kernel_model.Task.mm
          (t.chunk_base + (t.chunk_used_pages * Hw.Addr.page_size))
          ~write:true;
      let room = Hw.Addr.page_size - t.offset_in_page in
      let take = min room !remaining in
      t.offset_in_page <- t.offset_in_page + take;
      remaining := !remaining - take;
      if t.offset_in_page >= Hw.Addr.page_size then begin
        t.offset_in_page <- 0;
        t.chunk_used_pages <- t.chunk_used_pages + 1
      end
    done

  let allocated_bytes t = t.allocated_bytes
end
