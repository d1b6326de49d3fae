(** The model kernel: tasks + context switches + VFS + pipes + sockets
    + VirtIO frontends, over a {!Platform.t}.

    Instantiated once per container guest kernel (and once natively for
    RunC). Syscall dispatch charges the platform's syscall round trip,
    then performs real work against the in-memory structures. *)

type t

val create : Platform.t -> t
val platform : t -> Platform.t
val clock : t -> Hw.Clock.t
val fs : t -> Tmpfs.t
val syscall_count : t -> int

val spawn : t -> Task.t
(** New runnable task with a fresh address space. *)

val task : t -> int -> Task.t option

val tasks : t -> Task.t list
(** Live tasks sorted by pid (snapshot capture). *)

val next_pid : t -> int
val set_next_pid : t -> int -> unit

val restore_task : t -> Task.t -> unit
(** Snapshot restore: adopt an already-reconstructed task at its
    captured pid and keep [next_pid] above it. *)

val touch : t -> Task.t -> Hw.Addr.va -> write:bool -> unit
(** Touch user memory (demand paging) outside any syscall. *)

val touch_range : t -> Task.t -> start:Hw.Addr.va -> pages:int -> write:bool -> int

val context_switch : t -> from_pid:int -> to_pid:int -> unit
(** Switch between two tasks; charges switch work + the platform's
    address-space switch (a hypercall under PVM, a KSM CR3 load under
    CKI), or nothing when [to_pid] is already current. *)

val syscall : t -> Task.t -> Syscall.t -> Syscall.result
(** Execute one syscall on behalf of a task. *)

val syscall_exn : t -> Task.t -> Syscall.t -> Syscall.result
(** Like {!syscall} but turns [Rerr] into [Failure]. *)

val flush_net : t -> unit
(** Drain the TX queue: the host backend services posted descriptors
    and raises one completion interrupt for the batch. Callers choose
    the batching granularity (per request, or per event-loop
    iteration for pipelined servers). *)

val deliver_packets : t -> sid:int -> Bytes.t list -> (unit, [ `No_socket ]) result
(** A batch of packets arrives for a socket: one RX service + one
    interrupt for the whole batch. *)

val deliver_packet : t -> sid:int -> Bytes.t -> (unit, [ `No_socket ]) result
(** Single-packet delivery (service + interrupt per packet). *)

val socket_endpoint : t -> int -> Net.endpoint option
val wire : t -> Net.t
val irq_count : t -> int

(** {2 I/O plane} *)

type kick_target = [ `Blk | `Net_rx | `Net_tx ]

type io_backend = {
  kicked : kick_target -> unit;  (** a doorbell of this kernel rang *)
  service_now : unit -> unit;
      (** synchronous host service pass — backpressure and [flush_net]
          drain through the plane instead of the self-service stub *)
}
(** With a backend attached on a virtualized platform, fsync posts the
    file's first 32 KiB on the blk queue, copied through one writeback
    buffer per kernel. *)

val configure_io : ?queue_size:int -> ?window:int -> t -> unit
(** Set ring geometry (before first use) and the EVENT_IDX coalescing
    window (any time; 0 = naive). *)

val set_io_backend : t -> io_backend option -> unit
(** Attach/detach the host I/O plane hooks. *)

val virtualized_io : t -> bool
(** Whether this kernel's platform routes socket/blk I/O through the
    virtio rings (false for runc: I/O goes straight to the shared host
    kernel, no doorbells, no rings). *)

val io_devices : t -> (Virtio.t * Virtio.t * Virtio.t) option
(** The (net-tx, net-rx, blk) queue triple — [None] until the kernel's
    first virtualized I/O creates them. *)

val io_window : t -> int
(** The configured EVENT_IDX window (0 = naive). *)

val io_unreclaimed : t -> (string * int) list
(** Queues with outstanding descriptor chains (in flight, or completed
    but unreclaimed) — the quiescence check for snapshot capture. *)

val tx_stalls : t -> int
(** Times a guest blocked on a full ring until a host service pass made
    room (graceful backpressure). *)

val host_service_net_tx : t -> handle:(Bytes.t -> int -> unit) -> int
(** Host: service the TX queue, calling [handle buf len] per payload
    ({!Virtio.service}: [buf] is the queue's reused host buffer, valid
    only during the call); inject the completion interrupt (always,
    which bounds batch latency) and run the guest reclaim. Returns
    chains serviced. *)

val host_service_blk : t -> handle:(Bytes.t -> int -> unit) -> int
(** Host: service the blk queue into [handle] like
    {!host_service_net_tx}, charging per-sector I/O cost. *)
