(* netperf TX (bulk stream) and RR (request/response) — Figure 5.

   TX: the container streams 16 KiB sends as fast as it can; cost per
   send = syscall + virtio post/kick; TX completions are coalesced.

   RR: 1-byte ping-pong transactions; each transaction is an RX
   interrupt + recv + send + kick — the worst case for exit-heavy
   backends. *)

let setup_socket (b : Virt.Backend.t) =
  let task = Virt.Backend.spawn b in
  let sock_fd =
    match Virt.Backend.syscall_exn b task Kernel_model.Syscall.Socket with
    | Kernel_model.Syscall.Rint fd -> fd
    | _ -> failwith "netperf: socket failed"
  in
  let sock_id =
    match Kernel_model.Task.fd task sock_fd with
    | Some (Kernel_model.Task.Socket id) -> id
    | _ -> failwith "netperf: no socket id"
  in
  let wire = Kernel_model.Kernel.wire b.Virt.Backend.kernel in
  let peer = Kernel_model.Net.endpoint wire in
  (match Kernel_model.Kernel.socket_endpoint b.Virt.Backend.kernel sock_id with
  | Some ep -> Kernel_model.Net.connect wire ep peer
  | None -> failwith "netperf: endpoint lookup failed");
  (task, sock_fd, sock_id, peer)

(* Bulk TX throughput in MB/s of simulated time. *)
let run_tx (b : Virt.Backend.t) ~sends =
  let task, sock_fd, _, peer = setup_socket b in
  let k = b.Virt.Backend.kernel in
  let chunk = Bytes.create 16384 in
  let total_ns =
    Profile.timed b (fun () ->
        for i = 1 to sends do
          ignore
            (Virt.Backend.syscall_exn b task (Kernel_model.Syscall.Send { fd = sock_fd; data = chunk }));
          (* completions coalesce every 8 sends *)
          if i land 7 = 0 then Kernel_model.Kernel.flush_net k;
          while Kernel_model.Net.pending peer > 0 do
            ignore (Kernel_model.Net.recv peer)
          done
        done;
        Kernel_model.Kernel.flush_net k)
  in
  float_of_int (sends * 16384) /. (total_ns /. 1e9) /. 1e6

(* RR transactions per second. *)
let run_rr (b : Virt.Backend.t) ~transactions =
  let task, sock_fd, sock_id, peer = setup_socket b in
  let k = b.Virt.Backend.kernel in
  let one = Bytes.create 1 and buf = Bytes.create 1 in
  let total_ns =
    Profile.timed b (fun () ->
        for _ = 1 to transactions do
          (match Kernel_model.Kernel.deliver_packets k ~sid:sock_id [ one ] with
          | Ok () -> ()
          | Error `No_socket -> failwith "netperf: delivery failed");
          ignore
            (Virt.Backend.syscall_exn b task (Kernel_model.Syscall.Recv { fd = sock_fd; buf }));
          ignore
            (Virt.Backend.syscall_exn b task (Kernel_model.Syscall.Send { fd = sock_fd; data = one }));
          Kernel_model.Kernel.flush_net k;
          while Kernel_model.Net.pending peer > 0 do
            ignore (Kernel_model.Net.recv peer)
          done
        done)
  in
  float_of_int transactions /. (total_ns /. 1e9)
