(* Host block store behind the virtio-blk backends: an append-only
   write sink modelling the host's image files.  Per-sector media cost
   is charged by the queue service path (Kernel.host_service_blk); this
   module is the accounting endpoint. *)

type t = {
  mutable writes : int;
  mutable bytes : int;
  mutable sectors : int;
}

let create () = { writes = 0; bytes = 0; sectors = 0 }

let write t ~len =
  t.writes <- t.writes + 1;
  t.bytes <- t.bytes + len;
  t.sectors <- t.sectors + max 1 ((len + 511) / 512)

let writes t = t.writes
let bytes t = t.bytes
let sectors t = t.sectors
