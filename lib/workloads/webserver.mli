(** Web-server workloads of Figure 5: nginx static files, nginx as a
    reverse proxy (double virtio traffic), and Apache httpd (heavier
    per-request syscall footprint). *)

type kind = Nginx_static | Nginx_proxy | Httpd

val pp_kind : Format.formatter -> kind -> unit
val show_kind : kind -> string
val equal_kind : kind -> kind -> bool
val kind_name : kind -> string
val file_bytes : int

val request_bytes : int
(** Size of a request on the wire. *)

val rx_batch : int
val request_compute : kind -> float

type server = {
  backend : Virt.Backend.t;
  task : Kernel_model.Task.t;
  sock_fd : int;
  sock_id : int;
  upstream_fd : int;
  upstream_id : int;
  file_path : string;
  kind : kind;
  file_buf : Bytes.t;
      (** the [file_bytes] buffer the file (and the proxy's upstream
          reply) is read into, allocated once per server *)
  recv_buf : Bytes.t;  (** the [request_bytes] buffer requests are received into *)
  upstream_reply : Bytes.t;
      (** the [file_bytes] reply the proxy's upstream delivers on every
          request, allocated once per server *)
}

val create : Virt.Backend.t -> kind -> server

val serve_one : server -> unit
(** Handle one already-delivered request (recv + file work + send);
    the reply rides the TX queue, flushed by the caller. *)

val run : Virt.Backend.t -> kind -> requests:int -> float
(** Requests per simulated second. *)
