(* The lmbench microbenchmark suite of Figure 11: ten OS-operation
   latencies.  Each returns the mean latency in ns on the given
   backend. *)

type op =
  | Read
  | Write
  | Stat
  | Prot_fault
  | Page_fault
  | Fork_exit
  | Fork_execve
  | Ctx_switch_2p_0k
  | Pipe
  | Af_unix
[@@deriving show { with_path = false }, eq]

let all_ops =
  [ Read; Write; Stat; Prot_fault; Page_fault; Fork_exit; Fork_execve; Ctx_switch_2p_0k; Pipe; Af_unix ]

let op_name = function
  | Read -> "read"
  | Write -> "write"
  | Stat -> "stat"
  | Prot_fault -> "protfault"
  | Page_fault -> "pagefault"
  | Fork_exit -> "fork/exit"
  | Fork_execve -> "fork/execve"
  | Ctx_switch_2p_0k -> "ctxsw 2p/0k"
  | Pipe -> "pipe"
  | Af_unix -> "AF_UNIX"

let fd_of = function
  | Kernel_model.Syscall.Rint fd -> fd
  | _ -> failwith "lmbench: expected fd"

let pair_of = function
  | Kernel_model.Syscall.Rpair (a, b) -> (a, b)
  | _ -> failwith "lmbench: expected pair"

(* Resident pages a child of the fork benchmarks carries. *)
let fork_resident_pages = 48

let measure (b : Virt.Backend.t) (op : op) ~iters =
  let k = b.Virt.Backend.kernel in
  let task = Virt.Backend.spawn b in
  let sys sc = Virt.Backend.syscall_exn b task sc in
  match op with
  | Read ->
      let fd = fd_of (sys (Kernel_model.Syscall.Open { path = "/lm_read"; create = true })) in
      ignore (sys (Kernel_model.Syscall.Write { fd; data = Bytes.create 4096 }));
      let buf = Bytes.create 1 in
      Virt.Backend.mean_latency b ~n:iters (fun () ->
          ignore (sys (Kernel_model.Syscall.Lseek { fd; pos = 0 }));
          ignore (sys (Kernel_model.Syscall.Read { fd; buf })))
  | Write ->
      let fd = fd_of (sys (Kernel_model.Syscall.Open { path = "/lm_write"; create = true })) in
      let one = Bytes.create 1 in
      Virt.Backend.mean_latency b ~n:iters (fun () ->
          ignore (sys (Kernel_model.Syscall.Lseek { fd; pos = 0 }));
          ignore (sys (Kernel_model.Syscall.Write { fd; data = one })))
  | Stat ->
      ignore (sys (Kernel_model.Syscall.Open { path = "/lm_stat"; create = true }));
      Virt.Backend.mean_latency b ~n:iters (fun () ->
          ignore (sys (Kernel_model.Syscall.Stat "/lm_stat")))
  | Prot_fault ->
      (* Write to a read-only page: fault delivery + SIGSEGV dispatch +
         mprotect to recover, as lmbench's prot benchmark does. *)
      let addr =
        match sys (Kernel_model.Syscall.Mmap { pages = 1; prot = Kernel_model.Vma.prot_rw }) with
        | Kernel_model.Syscall.Rint v -> v
        | _ -> failwith "mmap"
      in
      Kernel_model.Mm.touch task.Kernel_model.Task.mm addr ~write:true;
      Virt.Backend.mean_latency b ~n:iters (fun () ->
          ignore
            (sys (Kernel_model.Syscall.Mprotect { addr; pages = 1; prot = Kernel_model.Vma.prot_ro }));
          (* the faulting access: platform fault path + signal dispatch *)
          b.Virt.Backend.platform.Kernel_model.Platform.fault_round_trip ();
          Hw.Clock.charge b.Virt.Backend.clock Hw.Cost.signal_dispatch;
          ignore
            (sys (Kernel_model.Syscall.Mprotect { addr; pages = 1; prot = Kernel_model.Vma.prot_rw })))
  | Page_fault ->
      let pages = 64 in
      Virt.Backend.mean_latency b ~n:iters (fun () ->
          let addr =
            match sys (Kernel_model.Syscall.Mmap { pages; prot = Kernel_model.Vma.prot_rw }) with
            | Kernel_model.Syscall.Rint v -> v
            | _ -> failwith "mmap"
          in
          ignore (Kernel_model.Mm.touch_range task.Kernel_model.Task.mm ~start:addr ~pages ~write:true);
          ignore (sys (Kernel_model.Syscall.Munmap { addr; pages })))
      /. float_of_int pages
  | Fork_exit ->
      (* Parent with a small resident set; child exits immediately. *)
      let addr =
        match
          sys (Kernel_model.Syscall.Mmap { pages = fork_resident_pages; prot = Kernel_model.Vma.prot_rw })
        with
        | Kernel_model.Syscall.Rint v -> v
        | _ -> failwith "mmap"
      in
      ignore
        (Kernel_model.Mm.touch_range task.Kernel_model.Task.mm ~start:addr ~pages:fork_resident_pages
           ~write:true);
      Virt.Backend.mean_latency b ~n:iters (fun () ->
          match sys Kernel_model.Syscall.Fork with
          | Kernel_model.Syscall.Rint child_pid -> (
              match Kernel_model.Kernel.task k child_pid with
              | Some child -> ignore (Kernel_model.Kernel.syscall k child (Kernel_model.Syscall.Exit 0))
              | None -> failwith "fork: child vanished")
          | _ -> failwith "fork")
  | Fork_execve ->
      let addr =
        match
          sys (Kernel_model.Syscall.Mmap { pages = fork_resident_pages; prot = Kernel_model.Vma.prot_rw })
        with
        | Kernel_model.Syscall.Rint v -> v
        | _ -> failwith "mmap"
      in
      ignore
        (Kernel_model.Mm.touch_range task.Kernel_model.Task.mm ~start:addr ~pages:fork_resident_pages
           ~write:true);
      Virt.Backend.mean_latency b ~n:iters (fun () ->
          match sys Kernel_model.Syscall.Fork with
          | Kernel_model.Syscall.Rint child_pid -> (
              match Kernel_model.Kernel.task k child_pid with
              | Some child ->
                  ignore (Kernel_model.Kernel.syscall k child Kernel_model.Syscall.Execve);
                  ignore (Kernel_model.Kernel.syscall k child (Kernel_model.Syscall.Exit 0))
              | None -> failwith "fork: child vanished")
          | _ -> failwith "fork")
  | Ctx_switch_2p_0k ->
      let peer = Virt.Backend.spawn b in
      Virt.Backend.mean_latency b ~n:iters (fun () ->
          Kernel_model.Kernel.context_switch k ~from_pid:task.Kernel_model.Task.pid
            ~to_pid:peer.Kernel_model.Task.pid;
          Kernel_model.Kernel.context_switch k ~from_pid:peer.Kernel_model.Task.pid
            ~to_pid:task.Kernel_model.Task.pid)
      /. 2.0
  | Pipe ->
      let peer = Virt.Backend.spawn b in
      let rfd, wfd = pair_of (sys Kernel_model.Syscall.Pipe) in
      (* Register the same pipe ends with the peer. *)
      Hashtbl.iter (fun fd obj -> Hashtbl.replace peer.Kernel_model.Task.fds fd obj)
        task.Kernel_model.Task.fds;
      let one = Bytes.create 1 and buf = Bytes.create 1 in
      Virt.Backend.mean_latency b ~n:iters (fun () ->
          ignore (sys (Kernel_model.Syscall.Write { fd = wfd; data = one }));
          Kernel_model.Kernel.context_switch k ~from_pid:task.Kernel_model.Task.pid
            ~to_pid:peer.Kernel_model.Task.pid;
          ignore (Kernel_model.Kernel.syscall k peer (Kernel_model.Syscall.Read { fd = rfd; buf }));
          Kernel_model.Kernel.context_switch k ~from_pid:peer.Kernel_model.Task.pid
            ~to_pid:task.Kernel_model.Task.pid)
  | Af_unix ->
      let peer = Virt.Backend.spawn b in
      let rfd, wfd = pair_of (sys Kernel_model.Syscall.Pipe) in
      Hashtbl.iter (fun fd obj -> Hashtbl.replace peer.Kernel_model.Task.fds fd obj)
        task.Kernel_model.Task.fds;
      let payload = Bytes.create 64 and buf = Bytes.create 64 in
      Virt.Backend.mean_latency b ~n:iters (fun () ->
          (* AF_UNIX: socket bookkeeping is heavier than a pipe. *)
          Hw.Clock.charge b.Virt.Backend.clock Hw.Cost.af_unix_overhead;
          ignore (sys (Kernel_model.Syscall.Write { fd = wfd; data = payload }));
          Kernel_model.Kernel.context_switch k ~from_pid:task.Kernel_model.Task.pid
            ~to_pid:peer.Kernel_model.Task.pid;
          ignore (Kernel_model.Kernel.syscall k peer (Kernel_model.Syscall.Read { fd = rfd; buf }));
          Kernel_model.Kernel.context_switch k ~from_pid:peer.Kernel_model.Task.pid
            ~to_pid:task.Kernel_model.Task.pid)

(* Run the full suite; returns (op, latency_ns) rows. *)
let run_suite ?(iters = 200) (b : Virt.Backend.t) =
  List.map (fun op -> (op, measure b op ~iters)) all_ops
