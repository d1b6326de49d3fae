(** VirtIO split queue, laid out as real bytes in guest memory.

    Descriptor table, avail/used rings and payload buffers are words of
    frames obtained from the platform allocator — under CKI they live
    inside the delegated hPA segment where the Analysis sanitizer can
    audit them like any other guest page.  Payloads larger than a page
    ride descriptor chains.

    Kick suppression is EVENT_IDX-style: [window = 0] models the naive
    path (every post kicks); [window >= 1] suppresses kicks until the
    avail idx crosses the host-written avail_event.  Interrupts
    coalesce by batch: one {!complete} per host service pass.  A full
    ring is graceful backpressure ([`Full]), never an exception. *)

type access = {
  mem : Hw.Phys_mem.t;
  frame : Hw.Addr.pfn -> Hw.Addr.pfn;
      (** allocator pfn -> the host frame behind it *)
  alloc_frame : unit -> Hw.Addr.pfn;
}
(** Guest-memory access: frames come from [alloc_frame] in the
    allocator's own pfn namespace and are reached through [frame].
    Ring words go through {!Hw.Phys_mem.read_entry}/[write_entry];
    payloads move a page per {!Hw.Phys_mem.read_bytes}/[write_bytes]
    call. *)

type t

val create : ?size:int -> ?window:int -> name:string -> access -> Hw.Clock.t -> t
(** [size] descriptors (2..256, default 64); [window] the EVENT_IDX
    batch window for kicks (default 1; 0 = naive, no suppression). *)

val size : t -> int
val window : t -> int
val set_window : t -> int -> unit

val in_flight : t -> int
(** Avail entries the host has not serviced yet. *)

val unreclaimed : t -> int
(** Chains the guest has not freed yet (in flight + completed but not
    yet reclaimed) — the quiescence measure for snapshot capture. *)

val free_descs : t -> int

val post : t -> data:Bytes.t -> len:int -> [ `Posted | `Full ]
(** Guest: copy the first [len] bytes of [data] into DMA buffers and
    publish a device-readable chain (TX).  [`Full] after an
    opportunistic reclaim failed to make room — the caller applies
    backpressure and retries.
    @raise Invalid_argument if [len] is outside [data]. *)

val post_buffer : t -> capacity:int -> [ `Posted | `Full ]
(** Guest: publish an empty device-writable chain (RX buffer credit). *)

val kick : t -> doorbell:(unit -> unit) -> bool
(** Guest: notify-or-not.  Rings [doorbell] (the platform's exit
    mechanism) unless EVENT_IDX suppresses it; returns whether it
    rang.  Emits an [Io_doorbell] probe when it does. *)

val reclaim : t -> Bytes.t list
(** Guest: consume published used entries, freeing their descriptors;
    returns the payloads of device-written (RX) chains, oldest first. *)

val service : t -> handle:(Bytes.t -> int -> unit) -> int
(** Host: service pending device-readable chains — copy each payload
    out of guest memory into the queue's reused host buffer, call
    [handle buf len] with the payload in [buf]'s first [len] bytes,
    publish the used entry.  [buf] is valid only during the call: a
    handler that keeps the payload copies it.  Returns the chain count;
    re-arms avail_event for kick suppression. *)

val fill : t -> data:Bytes.t -> bool
(** Host: write [data] into the oldest posted device-writable buffer
    and publish its used entry; false when no buffer credit is
    posted. *)

val complete : t -> inject:(unit -> unit) -> bool
(** Host: inject the completion interrupt covering the used entries
    published since the last injection.  Never injects with nothing
    serviced.  Emits an [Io_completion] probe when it injects; returns
    whether it did. *)

val kicks : t -> int
val suppressed_kicks : t -> int
val interrupts : t -> int
val serviced_total : t -> int
val name : t -> string

