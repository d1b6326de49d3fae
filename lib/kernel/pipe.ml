(* Pipes and AF_UNIX-style stream sockets: bounded byte queues with
   blocking semantics surfaced as [`Would_block].

   The queue is a byte ring of [capacity] bytes, so a write copies its
   bytes in once and a read copies them out once. *)

type t = {
  ring : Bytes.t;
  mutable head : int;  (** ring offset of the oldest unread byte *)
  mutable len : int;  (** unread bytes *)
  mutable read_closed : bool;
  mutable write_closed : bool;
  clock : Hw.Clock.t;
}

let create ?(capacity = 65536) clock =
  { ring = Bytes.create capacity; head = 0; len = 0; read_closed = false; write_closed = false; clock }

let available t = t.len
let room t = Bytes.length t.ring - t.len

let write t src =
  if t.read_closed then Error `Epipe
  else if room t <= 0 then Error `Would_block
  else begin
    let n = min (Bytes.length src) (room t) in
    let size = Bytes.length t.ring in
    let tail = (t.head + t.len) mod size in
    let first = min n (size - tail) in
    Bytes.blit src 0 t.ring tail first;
    Bytes.blit src first t.ring 0 (n - first);
    t.len <- t.len + n;
    Hw.Clock.charge_n t.clock Hw.Cost.pipe_copy n;
    Ok n
  end

let read_into t buf =
  if t.len = 0 then if t.write_closed then Ok 0 else Error `Would_block
  else begin
    let n = min (Bytes.length buf) t.len in
    let size = Bytes.length t.ring in
    let first = min n (size - t.head) in
    Bytes.blit t.ring t.head buf 0 first;
    Bytes.blit t.ring 0 buf first (n - first);
    t.head <- (t.head + n) mod size;
    t.len <- t.len - n;
    Hw.Clock.charge_n t.clock Hw.Cost.pipe_copy n;
    Ok n
  end

let close_read t = t.read_closed <- true
let close_write t = t.write_closed <- true
