(* Inter-container software switch: the host-side L2 fabric of the I/O
   plane.  Each container's virtio-net backend owns a port; the load
   generator owns the peer ports.  Forwarding a frame costs host CPU
   (table lookup + copy), charged on the shared clock like every other
   host-side expense. *)

type port = {
  id : int;
  name : string;
  inbox : Bytes.t Queue.t;
  mutable link : int option;  (** connected peer port *)
  mutable tx_packets : int;
  mutable tx_bytes : int;
  mutable rx_packets : int;
  mutable rx_bytes : int;
}

type t = {
  clock : Hw.Clock.t;
  ports : (int, port) Hashtbl.t;
  mutable next_id : int;
  mutable forwarded : int;
  mutable dropped : int;  (** frames forwarded out an unlinked port *)
}

let create clock = { clock; ports = Hashtbl.create 16; next_id = 0; forwarded = 0; dropped = 0 }

let port t ~name =
  let id = t.next_id in
  t.next_id <- id + 1;
  let p =
    {
      id;
      name;
      inbox = Queue.create ();
      link = None;
      tx_packets = 0;
      tx_bytes = 0;
      rx_packets = 0;
      rx_bytes = 0;
    }
  in
  Hashtbl.replace t.ports id p;
  p

let connect _t a b =
  a.link <- Some b.id;
  b.link <- Some a.id

(* Forward one frame out of [src] to its linked peer: lookup + copy on
   the host CPU, then the frame sits in the peer's inbox until that
   side's service pass (or the load generator) drains it. *)
let forward t ~(src : port) payload =
  src.tx_packets <- src.tx_packets + 1;
  src.tx_bytes <- src.tx_bytes + Bytes.length payload;
  Hw.Clock.charge_sized t.clock Hw.Cost.switch_forward (Bytes.length payload);
  match src.link with
  | None -> t.dropped <- t.dropped + 1
  | Some peer_id ->
      let dst = Hashtbl.find t.ports peer_id in
      Queue.add payload dst.inbox;
      dst.rx_packets <- dst.rx_packets + 1;
      dst.rx_bytes <- dst.rx_bytes + Bytes.length payload;
      t.forwarded <- t.forwarded + 1

let pending (p : port) = Queue.length p.inbox

let drain (p : port) =
  let rec go acc =
    match Queue.take_opt p.inbox with None -> List.rev acc | Some x -> go (x :: acc)
  in
  go []

let forwarded t = t.forwarded
let dropped t = t.dropped
