(** Simulated physical memory.

    Frames carry ownership + kind metadata (consulted by the KSM and
    the virtualization backends for their security checks) and, for
    page-table frames, real 512-entry runs of 64-bit PTEs, so the
    page-table walker operates on genuine in-memory structures.

    Representation: metadata lives in packed int arrays, in chunks of
    4096 frames built by the first write into them (an unbuilt chunk
    reads as free frames, so a machine pays for the frames it uses,
    not for its size), and all PTEs in one flat [int64] Bigarray
    arena ([slot * 512 + index]); free
    frames are tracked in a bitmap with a rotating next-fit hint and a
    running count, making {!alloc} and {!free_frames} effectively
    O(1). Allocation order is identical to the earlier per-frame
    scans, so snapshot images remain byte-for-byte reproducible.

    Ownership is indexed per owner (a frame list maintained by
    {!alloc}, {!alloc_contiguous}, {!free} and {!set_owner}), so
    {!iter_owned} and {!owned_count} cost O(frames owned) and O(1)
    rather than a sweep of the whole machine; {!shared_count} keeps,
    per owner, how many of its frames are CoW-shared. *)

type owner =
  | Free
  | Host  (** host kernel / hypervisor *)
  | Container of int  (** delegated to container [id] *)
  | Ksm of int  (** KSM code/data of container [id] *)

val pp_owner : Format.formatter -> owner -> unit
val show_owner : owner -> string
val equal_owner : owner -> owner -> bool

type kind =
  | Unused
  | Data
  | Page_table of int  (** page-table page at level 1..4 *)
  | Ept_table of int  (** EPT table page at level 1..4 *)
  | Ksm_code
  | Ksm_data
  | Kernel_code
  | Device

val pp_kind : Format.formatter -> kind -> unit
val show_kind : kind -> string
val equal_kind : kind -> kind -> bool

type t

exception Out_of_memory

val create : frames:int -> t
val total_frames : t -> int

val owner : t -> Addr.pfn -> owner
val kind : t -> Addr.pfn -> kind
val is_free : t -> Addr.pfn -> bool

val alloc : t -> owner:owner -> kind:kind -> Addr.pfn
(** Allocate one frame anywhere. @raise Out_of_memory when full. *)

val alloc_contiguous : t -> owner:owner -> kind:kind -> count:int -> Addr.pfn
(** First-fit allocation of [count] physically-contiguous frames — the
    hPA-segment delegation primitive, and the source of CKI's
    acknowledged fragmentation limitation.  The run is claimed in one
    step: its fields are written a chunk at a time, and it joins the
    owner's list exactly as [count] single {!alloc}-style claims in
    ascending pfn order would leave it (last frame first, down to the
    base, then the previous head), so {!iter_owned} order is the same.
    @raise Out_of_memory when no sufficient run exists. *)

val free : t -> Addr.pfn -> unit
(** @raise Invalid_argument on double free. *)

val free_range : t -> base:Addr.pfn -> count:int -> unit
(** [free_range t ~base ~count] frees every allocated frame of
    [base .. base+count-1], as {!free} would one by one; frames already
    free are skipped. The owner index stays exact.  A range that is one
    piece of a single owner's list as {!alloc_contiguous} left it (a
    whole run or a sub-run, no frame re-owned, freed or CoW-shared
    since) is unlinked in one step and reset a chunk at a time; any
    other range takes the per-frame path.  The result is the same
    either way.
    @raise Invalid_argument when the range leaves memory, or on a
    shared frame still referenced (earlier frames stay freed). *)

val set_kind : t -> Addr.pfn -> kind -> unit
val set_owner : t -> Addr.pfn -> owner -> unit
val incr_ref : t -> Addr.pfn -> unit
val decr_ref : t -> Addr.pfn -> unit
val refcount : t -> Addr.pfn -> int

val set_shared_ro : t -> Addr.pfn -> bool -> unit
(** Mark/unmark a frame as CoW-shared read-only. {!free} refuses to
    release a shared frame whose refcount is still positive. *)

val is_shared_ro : t -> Addr.pfn -> bool

val shared_count : t -> owner -> int
(** Frames [owner] holds that are CoW-shared read-only, in O(1): kept
    where a frame's shared tag or its owner changes.
    @raise Invalid_argument for [Free], whose frames are not indexed. *)

(** {1 Table-frame accessors}

    The frame's 512-entry slot in the shared PTE arena is acquired
    lazily the first time the frame is used as a page-table (or EPT)
    page; a slot-less frame reads as all zeros. *)

val iter_entries : t -> pfn:Addr.pfn -> (int -> int64 -> unit) -> unit
(** [iter_entries t ~pfn f] calls [f index entry] on every nonzero
    entry of the frame, in ascending [index] order: the one pass over a
    table that replaces 512 {!read_entry} calls. It pays one range check
    and one slot lookup per table, and visits only the
    slot's written range; a slot-less frame visits nothing.

    [f] must not write, clear or free the frame being visited (other
    frames are fine). *)

val iter_unlike_run : t -> pfn:Addr.pfn -> first:int64 -> step:int64 -> (int -> int64 -> unit) -> unit
(** [iter_unlike_run t ~pfn ~first ~step f] calls [f index entry] on
    every nonzero entry of the frame that is not [first + index * step],
    in ascending [index] order: the scan twin of {!write_run}, one pass
    over the slot's written range with [f] only on the entries off the
    progression. A slot-less frame visits nothing. [f] must not write,
    clear or free the frame being visited. *)

val read_entry : t -> pfn:Addr.pfn -> index:int -> int64
val write_entry : t -> pfn:Addr.pfn -> index:int -> int64 -> unit
val clear_table : t -> Addr.pfn -> unit

type entry_state = Absent | Read_only | Writable

val set_entry_writable : t -> pfn:Addr.pfn -> index:int -> bool -> entry_state
(** [set_entry_writable t ~pfn ~index w] reads one entry and, when it
    is present ({!Pte.is_present}), sets its writable bit to [w] in
    place, leaving every other bit; it returns what it found: [Absent]
    (nothing written), or the entry's [Read_only] or [Writable] state
    before the write.  What [read_entry] then [write_entry] of
    [Pte.with_writable e w] would do, with no [int64] boxed.
    @raise Invalid_argument unless [0 <= index < 512]. *)

val write_run :
  t -> pfn:Addr.pfn -> index:int -> count:int -> first:int64 -> step:int64 -> unit
(** [write_run t ~pfn ~index ~count ~first ~step] stores [first + k * step]
    at entry [index + k] for [0 <= k < count]: what [count] {!write_entry}
    calls would store (a run of leaves over consecutive frames is [step]
    apart), with one range check and one dirty-range update. [count = 0] touches nothing.
    @raise Invalid_argument unless [0 <= index] and
    [index + count <= 512]. *)

val read_bytes : t -> pfn:Addr.pfn -> Bytes.t -> off:int -> len:int -> unit
(** [read_bytes t ~pfn dst ~off ~len] copies the frame's first [len]
    bytes (its words, little-endian) into [dst] at [off]; a slot-less
    frame reads as zeros; [len = 0] touches nothing.
    @raise Invalid_argument unless [0 <= len <= 4096] and the range
    fits [dst]. *)

val write_bytes : t -> pfn:Addr.pfn -> Bytes.t -> off:int -> len:int -> unit
(** [write_bytes t ~pfn src ~off ~len] stores [src.[off .. off+len-1]]
    as the frame's first [len] bytes, zero-padding the last partial
    word -- what one {!write_entry} per packed word would store. One
    dirty-range update per call; [len = 0] touches nothing (no slot is
    acquired).
    @raise Invalid_argument as {!read_bytes}. *)

val count_owned : t -> (owner -> bool) -> int
(** Brute-force count over every frame; for tests and statistics. Use
    {!owned_count} for a single owner. *)

val free_frames : t -> int

val table_slots : t -> int
(** Frames holding a slot in the entry arena (table pages and written
    payload pages), in O(1); for tests and statistics. *)

val owned_count : t -> owner -> int
(** Frames currently owned by [owner], in O(1). [owned_count t Free]
    is {!free_frames}. *)

val iter_not_owned : t -> base:Addr.pfn -> count:int -> owner -> (Addr.pfn -> unit) -> unit
(** [iter_not_owned t ~base ~count owner f] calls [f] on every frame of
    [base .. base+count-1] not held by [owner], in ascending pfn order:
    one pass over the range's owner codes, a chunk at a time, with [f]
    called only on the exceptions.  The scanner's segment-owner rule
    and capture's closure check use it.
    @raise Invalid_argument when the range leaves memory. *)

val iter_not_exclusive :
  t -> base:Addr.pfn -> count:int -> owner -> (Addr.pfn -> unit) -> unit
(** As {!iter_not_owned}, and also calls [f] on the frames of the range
    that [owner] holds but that are CoW-shared: one pass over the owner
    codes and shared tags, [f] only on the frames [owner] does not hold
    alone. The scanner's direct-map check uses it.
    @raise Invalid_argument when the range leaves memory. *)

val iter_owned : t -> owner -> (Addr.pfn -> unit) -> unit
(** [iter_owned t owner f] calls [f] on every frame [owner] holds, in
    O(frames owned), most recently claimed first: each claim or re-own
    pushes its frame on the front of the owner's list, and a frame
    leaving it leaves the rest in order. [f] may free or re-own the
    frame it is visiting but no other frame of [owner].
    @raise Invalid_argument for [Free], whose frames are not indexed. *)
