(* The model kernel: tasks + context switches + VFS + pipes + sockets +
   VirtIO frontends, all running over a [Platform.t].

   Instantiated once per container guest kernel (and once natively for
   RunC).  Syscall dispatch charges the platform's syscall round trip —
   native for RunC/HVM/CKI, redirected for PVM — then performs real
   work against the in-memory structures. *)

(* The VirtIO queue triple, created lazily on first virtualized I/O so
   freshly assembled (or snapshot-restored) containers that never did
   I/O own no ring frames — which keeps snapshot re-capture
   byte-identical. *)
type io = { tx : Virtio.t; rx : Virtio.t; blk : Virtio.t }

type kick_target = [ `Net_tx | `Net_rx | `Blk ]

(* Host-side I/O plane hooks (installed by Ioplane.Loop).  When absent
   the kernel self-services its queues synchronously, preserving the
   standalone workload semantics. *)
type io_backend = {
  kicked : kick_target -> unit;  (** a doorbell of this kernel rang *)
  service_now : unit -> unit;
      (** synchronous host service pass — the backpressure path and
          [flush_net] delegate here so a full ring drains through the
          plane (switch routing, block store) rather than a stub *)
}

(* Fsync posts at most this much of the file: the dirty window one
   flush carries over virtio-blk. *)
let writeback_bytes = 8 * 4096

type t = {
  id : int;  (** per-process unique, for queue naming *)
  platform : Platform.t;
  fs : Tmpfs.t;
  mutable current_pid : int option;
      (** the task last switched to; switching to it again is free *)
  tasks : (int, Task.t) Hashtbl.t;
  sockets : (int, Net.endpoint) Hashtbl.t;
  wire : Net.t;
  mutable io : io option;
  mutable io_queue_size : int;
  mutable io_window : int;
  mutable io_backend : io_backend option;
  writeback : Bytes.t Lazy.t;
      (** fsync copies the file's window here and posts it from here:
          one buffer per kernel, made on the first flush *)
  mutable next_pid : int;
  mutable syscall_count : int;
  mutable irq_count : int;
  mutable tx_stalls : int;
      (** times the guest blocked on a full ring until a host service
          pass made room (graceful backpressure, not an error) *)
}

(* Process-wide id allocator (names the kernel's virtio queues). *)
let next_kernel_id = ref 0

let create platform =
  let clock = platform.Platform.clock in
  {
    id = (incr next_kernel_id; !next_kernel_id);
    platform;
    fs = Tmpfs.create clock;
    current_pid = None;
    tasks = Hashtbl.create 16;
    sockets = Hashtbl.create 16;
    wire = Net.create clock;
    io = None;
    io_queue_size = 64;
    io_window = 1;
    io_backend = None;
    writeback = lazy (Bytes.create writeback_bytes);
    next_pid = 1;
    syscall_count = 0;
    irq_count = 0;
    tx_stalls = 0;
  }

let platform t = t.platform
let clock t = t.platform.Platform.clock
let fs t = t.fs
let syscall_count t = t.syscall_count

(* ------------------------------------------------------------------ *)
(* VirtIO data path                                                    *)
(* ------------------------------------------------------------------ *)

let ensure_io t =
  match t.io with
  | Some io -> io
  | None ->
      let access =
        {
          Virtio.mem = t.platform.Platform.mem;
          frame = t.platform.Platform.guest_frame;
          alloc_frame = t.platform.Platform.alloc_frame;
        }
      in
      let q suffix =
        Virtio.create ~size:t.io_queue_size ~window:t.io_window
          ~name:(Printf.sprintf "%s%d-%s" t.platform.Platform.name t.id suffix)
          access (clock t)
      in
      let io = { tx = q "net-tx"; rx = q "net-rx"; blk = q "blk" } in
      t.io <- Some io;
      io

let configure_io ?queue_size ?window t =
  (match queue_size with
  | None -> ()
  | Some s ->
      if t.io <> None then invalid_arg "Kernel.configure_io: queues already created";
      t.io_queue_size <- s);
  match window with
  | None -> ()
  | Some w ->
      t.io_window <- w;
      Option.iter
        (fun io ->
          Virtio.set_window io.tx w;
          Virtio.set_window io.rx w;
          Virtio.set_window io.blk w)
        t.io

let set_io_backend t backend = t.io_backend <- backend
let virtualized_io t = t.platform.Platform.virtualized_io
let io_devices t = Option.map (fun io -> (io.tx, io.rx, io.blk)) t.io
let io_window t = t.io_window

let io_unreclaimed t =
  match t.io with
  | None -> []
  | Some io ->
      List.filter_map
        (fun q ->
          let n = Virtio.unreclaimed q in
          if n > 0 then Some (Virtio.name q, n) else None)
        [ io.tx; io.rx; io.blk ]

let tx_stalls t = t.tx_stalls

(* Host side: service a device-readable queue (TX or blk), inject one
   completion interrupt for the pass, then run the guest's reclaim as
   its interrupt handler. *)
let host_service_queue t q ~handle =
  let n = Virtio.service q ~handle in
  let injected =
    Virtio.complete q ~inject:(fun () ->
        t.irq_count <- t.irq_count + 1;
        t.platform.Platform.deliver_irq ())
  in
  if injected then ignore (Virtio.reclaim q);
  n

let host_service_net_tx t ~handle =
  match t.io with None -> 0 | Some io -> host_service_queue t io.tx ~handle

let host_service_blk t ~handle =
  match t.io with
  | None -> 0
  | Some io ->
      host_service_queue t io.blk ~handle:(fun buf len ->
          handle buf len;
          Hw.Clock.charge_n (clock t) Hw.Cost.blk_sector (max 1 ((len + 511) / 512)))

(* The self-service stub's handler: no host plane takes the payloads. *)
let discard _ _ = ()

(* Guest blocked on a full ring: run one synchronous host service pass
   to make room.  Through the plane when attached, self-serviced when
   standalone. *)
let host_service_pass t =
  match t.io_backend with
  | Some b -> b.service_now ()
  | None ->
      ignore (host_service_net_tx t ~handle:discard);
      ignore (host_service_blk t ~handle:discard)

(* Guest: post [data]'s first [len] bytes with graceful backpressure,
   then ring-or-not. *)
let guest_post_kick t q ~data ~len ~(kind : Platform.io_kind) ~(target : kick_target) =
  let rec post attempts =
    match Virtio.post q ~data ~len with
    | `Posted -> ()
    | `Full ->
        if attempts > 3 * Virtio.size q then
          failwith (Printf.sprintf "virtio %s: ring wedged under backpressure" (Virtio.name q));
        t.tx_stalls <- t.tx_stalls + 1;
        Hw.Clock.charge (clock t) Hw.Cost.virtio_tx_stall;
        host_service_pass t;
        post (attempts + 1)
  in
  post 0;
  ignore
    (Virtio.kick q ~doorbell:(fun () ->
         t.platform.Platform.hypercall kind;
         match t.io_backend with Some b -> b.kicked target | None -> ()))

let spawn t =
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  let mm = Mm.create t.platform in
  let task = Task.create ~pid ~parent:0 mm in
  Hashtbl.replace t.tasks pid task;
  task

let task t pid = Hashtbl.find_opt t.tasks pid

(* Live tasks sorted by pid — the kernel's task-table state for
   snapshot capture. *)
let tasks t =
  Hashtbl.fold (fun _ task acc -> task :: acc) t.tasks []
  |> List.sort (fun (a : Task.t) b -> compare a.Task.pid b.Task.pid)

let next_pid t = t.next_pid
let set_next_pid t pid = t.next_pid <- pid

(* Snapshot restore: adopt an already-reconstructed task at its
   captured pid. *)
let restore_task t (task : Task.t) =
  Hashtbl.replace t.tasks task.Task.pid task;
  if task.Task.pid >= t.next_pid then t.next_pid <- task.Task.pid + 1

(* Touch user memory (demand paging) outside any syscall. *)
let touch t (task : Task.t) va ~write =
  ignore t;
  Mm.touch task.Task.mm va ~write

let touch_range t (task : Task.t) ~start ~pages ~write =
  ignore t;
  Mm.touch_range task.Task.mm ~start ~pages ~write

(* Context-switch between two tasks of this kernel: switch work plus
   the platform's address-space switch (where PVM's hypercall per CR3
   load shows up), unless [to_pid] is already current. *)
let context_switch t ~from_pid ~to_pid =
  ignore from_pid;
  match Hashtbl.find_opt t.tasks to_pid with
  | None -> invalid_arg "Kernel.context_switch: unknown pid"
  | Some target ->
      if t.current_pid <> Some to_pid then begin
        Hw.Clock.charge (clock t) Hw.Cost.ctx_switch_work;
        t.platform.Platform.as_switch (Mm.aspace target.Task.mm);
        t.current_pid <- Some to_pid
      end

(* ------------------------------------------------------------------ *)
(* Syscall implementation                                              *)
(* ------------------------------------------------------------------ *)

let file_obj (task : Task.t) fd =
  match Task.fd task fd with
  | Some (Task.File f) -> Some f
  | Some (Task.Pipe_read _ | Task.Pipe_write _ | Task.Socket _) | None -> None

(* Fill the caller's [buf] from the front, as read(2) does. *)
let do_read t task fd buf : Syscall.result =
  match Task.fd task fd with
  | Some (Task.File f) ->
      let n = Tmpfs.read_into t.fs f.Task.inode ~off:f.Task.pos buf in
      f.Task.pos <- f.Task.pos + n;
      Syscall.Rint n
  | Some (Task.Pipe_read p) -> (
      match Pipe.read_into p buf with
      | Ok n -> Syscall.Rint n
      | Error `Would_block -> Syscall.Rerr "EAGAIN")
  | Some (Task.Socket sid) -> (
      match Hashtbl.find_opt t.sockets sid with
      | None -> Syscall.Rerr "EBADF"
      | Some ep -> (
          match Net.recv ep with
          | Ok frame ->
              (* a datagram: what does not fit the buffer is dropped *)
              let n = min (Bytes.length frame) (Bytes.length buf) in
              Bytes.blit frame 0 buf 0 n;
              Syscall.Rint n
          | Error `Would_block -> Syscall.Rerr "EAGAIN"))
  | Some (Task.Pipe_write _) -> Syscall.Rerr "EBADF"
  | None -> Syscall.Rerr "EBADF"

let do_write t task fd data : Syscall.result =
  match Task.fd task fd with
  | Some (Task.File f) ->
      let n = Tmpfs.write t.fs f.Task.inode ~off:f.Task.pos data in
      f.Task.pos <- f.Task.pos + n;
      Syscall.Rint n
  | Some (Task.Pipe_write p) -> (
      match Pipe.write p data with
      | Ok n -> Syscall.Rint n
      | Error `Would_block -> Syscall.Rerr "EAGAIN"
      | Error `Epipe -> Syscall.Rerr "EPIPE")
  | Some (Task.Socket sid) -> (
      match Hashtbl.find_opt t.sockets sid with
      | None -> Syscall.Rerr "EBADF"
      | Some ep ->
          (* TX goes through the virtio-net frontend (post + doorbell +
             backend service) on virtualized platforms; OS-level
             containers hit the host NIC natively.  A full ring blocks
             the guest until a host service pass makes room. *)
          if t.platform.Platform.virtualized_io then begin
            let io = ensure_io t in
            guest_post_kick t io.tx ~data ~len:(Bytes.length data) ~kind:Platform.Net_tx
              ~target:`Net_tx
          end;
          (match Net.send t.wire ep data with
          | Ok n -> Syscall.Rint n
          | Error `Not_connected -> Syscall.Rerr "ENOTCONN"))
  | Some (Task.Pipe_read _) -> Syscall.Rerr "EBADF"
  | None -> Syscall.Rerr "EBADF"

let do_fork t (task : Task.t) =
  let child_mm = Mm.fork task.Task.mm in
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  let child = Task.create ~pid ~parent:task.Task.pid child_mm in
  (* Share the fd table contents (re-register same objects). *)
  Hashtbl.iter (fun fd obj -> Hashtbl.replace child.Task.fds fd obj) task.Task.fds;
  child.Task.next_fd <- task.Task.next_fd;
  Hashtbl.replace t.tasks pid child;
  pid

let do_exit t (task : Task.t) =
  task.Task.state <- Task.Zombie;
  Mm.destroy task.Task.mm;
  Hashtbl.remove t.tasks task.Task.pid

(* Execute one syscall on behalf of [task].  Charges the platform's
   syscall round trip + the call's own work; returns the result. *)
let syscall t (task : Task.t) (sc : Syscall.t) : Syscall.result =
  t.syscall_count <- t.syscall_count + 1;
  t.platform.Platform.syscall_round_trip ();
  Hw.Clock.charge (clock t) (Syscall.cost sc);
  match sc with
  | Syscall.Getpid -> Syscall.Rint task.Task.pid
  | Syscall.Read { fd; buf } -> do_read t task fd buf
  | Syscall.Write { fd; data } -> do_write t task fd data
  | Syscall.Open { path; create } -> (
      let inode =
        if create then Some (Tmpfs.open_or_create t.fs path) else Tmpfs.resolve_opt t.fs path
      in
      match inode with
      | None -> Syscall.Rerr "ENOENT"
      | Some inode -> Syscall.Rint (Task.install_fd task (Task.File { inode; pos = 0 })))
  | Syscall.Close fd ->
      Task.close_fd task fd;
      Syscall.Runit
  | Syscall.Stat path -> (
      match Tmpfs.resolve_opt t.fs path with
      | None -> Syscall.Rerr "ENOENT"
      | Some i -> Syscall.Rstat { size = Tmpfs.size i; ino = Tmpfs.ino i; is_dir = Tmpfs.is_dir i })
  | Syscall.Fstat fd -> (
      match file_obj task fd with
      | None -> Syscall.Rerr "EBADF"
      | Some f ->
          Syscall.Rstat
            {
              size = Tmpfs.size f.Task.inode;
              ino = Tmpfs.ino f.Task.inode;
              is_dir = Tmpfs.is_dir f.Task.inode;
            })
  | Syscall.Lseek { fd; pos } -> (
      match file_obj task fd with
      | None -> Syscall.Rerr "EBADF"
      | Some f ->
          f.Task.pos <- pos;
          Syscall.Rint pos)
  | Syscall.Fsync fd -> (
      (* tmpfs fsync is a no-op beyond its base work; with a host block
         store attached (I/O plane), the dirty bytes ride virtio-blk. *)
      match file_obj task fd with
      | None -> Syscall.Rerr "EBADF"
      | Some f ->
          (match t.io_backend with
          | Some _ when t.platform.Platform.virtualized_io ->
              let data = Lazy.force t.writeback in
              let len = Tmpfs.read_into t.fs f.Task.inode ~off:0 data in
              let io = ensure_io t in
              guest_post_kick t io.blk ~data ~len ~kind:Platform.Blk_write ~target:`Blk
          | _ -> ());
          Syscall.Runit)
  | Syscall.Unlink path -> (
      match Tmpfs.unlink t.fs path with
      | () -> Syscall.Runit
      | exception Tmpfs.Not_found_path _ -> Syscall.Rerr "ENOENT")
  | Syscall.Mkdir path -> (
      match Tmpfs.mkdir t.fs path with
      | _ -> Syscall.Runit
      | exception Tmpfs.Exists _ -> Syscall.Rerr "EEXIST")
  | Syscall.Mmap { pages; prot } ->
      Syscall.Rint (Mm.mmap task.Task.mm ~pages ~prot ~backing:Vma.Anon)
  | Syscall.Munmap { addr; pages } ->
      Mm.munmap task.Task.mm ~start:addr ~pages;
      Syscall.Runit
  | Syscall.Mprotect { addr; pages; prot } ->
      Mm.mprotect task.Task.mm ~start:addr ~pages ~prot;
      Syscall.Runit
  | Syscall.Brk { delta_pages } -> Syscall.Rint (Mm.brk task.Task.mm ~delta_pages)
  | Syscall.Fork -> Syscall.Rint (do_fork t task)
  | Syscall.Execve ->
      (* Replace the address space: tear down and rebuild text/heap. *)
      let mm = task.Task.mm in
      let pages = Mm.resident_pages mm in
      Hw.Clock.charge_n (clock t) Hw.Cost.execve_teardown pages;
      Syscall.Runit
  | Syscall.Exit _ ->
      do_exit t task;
      Syscall.Runit
  | Syscall.Pipe ->
      let p = Pipe.create (clock t) in
      let rfd = Task.install_fd task (Task.Pipe_read p) in
      let wfd = Task.install_fd task (Task.Pipe_write p) in
      Syscall.Rpair (rfd, wfd)
  | Syscall.Socket ->
      let ep = Net.endpoint t.wire in
      Hashtbl.replace t.sockets ep.Net.id ep;
      Syscall.Rint (Task.install_fd task (Task.Socket ep.Net.id))
  | Syscall.Send { fd; data } -> do_write t task fd data
  | Syscall.Recv { fd; buf } -> do_read t task fd buf
  | Syscall.Sched_yield -> Syscall.Runit
  | Syscall.Nanosleep ns ->
      Hw.Clock.advance (clock t) ns;
      Syscall.Runit

let syscall_exn t task sc =
  match syscall t task sc with
  | Syscall.Rerr e -> failwith (Printf.sprintf "syscall %s failed: %s" (Syscall.name sc) e)
  | r -> r

(* ------------------------------------------------------------------ *)
(* Device-side entry points (called by the host / client models)       *)
(* ------------------------------------------------------------------ *)

(* Drain the TX queue: host backend services posted descriptors and
   raises one completion interrupt for the batch.  Callers decide the
   batching granularity (per request for unpipelined servers, per
   event-loop iteration for pipelined ones).  Through the plane's
   service pass when one is attached. *)
let flush_net t =
  if t.platform.Platform.virtualized_io then
    match t.io_backend with
    | Some b -> b.service_now ()
    | None -> ignore (host_service_net_tx t ~handle:discard)

(* A batch of packets arrives from outside for socket [sid]: the guest
   replenishes RX buffer credit (kicking through EVENT_IDX), the host
   DMAs the payloads into the posted buffers and injects one interrupt
   for the batch; the guest's handler reclaims them into the socket
   queue. *)
let deliver_packets t ~sid payloads =
  match Hashtbl.find_opt t.sockets sid with
  | None -> Error `No_socket
  | Some ep ->
      let enqueue payload =
        Queue.add (-1, payload) ep.Net.rx;
        ep.Net.rx_packets <- ep.Net.rx_packets + 1
      in
      if t.platform.Platform.virtualized_io && payloads <> [] then begin
        let io = ensure_io t in
        List.iter
          (fun p ->
            match Virtio.post_buffer io.rx ~capacity:(max 64 (Bytes.length p)) with
            | `Posted | `Full -> ())
          payloads;
        ignore
          (Virtio.kick io.rx ~doorbell:(fun () ->
               t.platform.Platform.hypercall Platform.Net_rx_ack;
               match t.io_backend with Some b -> b.kicked `Net_rx | None -> ()));
        Hw.Clock.charge (clock t) Hw.Cost.virtio_backend_service;
        let missed = List.filter (fun p -> not (Virtio.fill io.rx ~data:p)) payloads in
        let injected =
          Virtio.complete io.rx ~inject:(fun () ->
              t.irq_count <- t.irq_count + 1;
              t.platform.Platform.deliver_irq ())
        in
        let received = if injected then Virtio.reclaim io.rx else [] in
        List.iter enqueue received;
        (* Ring credit exhausted (undersized test queues): deliver the
           overflow directly so no packet is lost, with the legacy
           per-batch interrupt if the ring path injected nothing. *)
        List.iter enqueue missed;
        if not injected then begin
          t.irq_count <- t.irq_count + 1;
          t.platform.Platform.deliver_irq ()
        end
      end
      else begin
        List.iter enqueue payloads;
        t.irq_count <- t.irq_count + 1;
        t.platform.Platform.deliver_irq ()
      end;
      Ok ()

(* A single packet arrives from outside for socket [sid]. *)
let deliver_packet t ~sid payload = deliver_packets t ~sid [ payload ]

let socket_endpoint t sid = Hashtbl.find_opt t.sockets sid
let wire t = t.wire
let irq_count t = t.irq_count
