(* Simulated physical memory.

   Frames carry ownership + kind metadata (which the KSM and the virt
   backends consult for their security checks) and, for page-table
   frames, real 512-entry runs of 64-bit PTEs, so the page-table
   walker operates on genuine in-"memory" structures.

   Raw-speed representation: frame metadata lives in packed int arrays
   (one int per frame per field) instead of an array of mutable
   records.  The arrays come in chunks of 4096 frames (16 MiB of
   simulated memory, ~132 KiB of metadata), indexed by [pfn lsr 12]
   and [pfn land 4095].  A chunk is built by the first write that lands
   in it and then stays; until then its directory entry points at one
   shared zero chunk, never written, that holds a free frame's values.
   Readers stay branch-free, and a machine pays for the chunks its
   segments and KSM frames touch, not for its size.

   All PTEs live in one flat [int64] Bigarray arena addressed as
   [slot * 512 + index].  Table slots are acquired lazily
   the first time a frame is used as a (EPT/)page-table page and
   recycled when the frame is freed or reallocated, so the arena stays
   proportional to the number of live table pages, not to physical
   memory size.  Each slot tracks the index range actually written, so
   recycling scrubs only the dirty span — sparse tables (the common
   case) never pay a 4 KiB wipe.  Free frames are tracked in a bitmap
   (32 frames per word, so every index computation is a shift or mask)
   with a rotating next-fit hint plus a running free count, which
   makes [alloc]/[free_frames] effectively O(1) and lets
   [alloc_contiguous] skip fully-allocated or fully-free words a whole
   word at a time — while reproducing the exact allocation order of
   the previous per-frame scans, so snapshot images stay byte-for-byte
   reproducible.

   Ownership is also indexed: every non-[Free] owner has a doubly-linked
   list of its frames, threaded through one [int32] Bigarray of
   2 x frames ([2*pfn] = prev, [2*pfn+1] = next) plus a head and a count
   per encoded owner.  The lists change only where ownership changes
   ([claim], [free], [set_owner]), so [iter_owned] and [owned_count]
   cost O(frames owned) and O(1) instead of a sweep of the machine.  A
   delegated segment joins its owner's list in one splice
   ([claim_run]) and leaves it in one unlink ([free_range] over an
   intact run), in the order single claims would give it.  Beside each
   owner's count sits the number of its frames that are CoW-shared,
   kept where a frame's shared byte or owner changes, so "does this
   owner hold a shared frame" is O(1).
   The link array is never initialised: a pair is written only when its
   frame is linked, so pages of it covering never-allocated frames are
   never faulted in (eager arrays cost every fresh 512 MiB host 2 MiB). *)

type owner =
  | Free
  | Host  (** host kernel / hypervisor *)
  | Container of int  (** delegated to container [id] *)
  | Ksm of int  (** KSM code/data of container [id] *)
[@@deriving show { with_path = false }, eq]

type kind =
  | Unused
  | Data
  | Page_table of int  (** page-table page at level 1..4 *)
  | Ept_table of int  (** EPT table page at level 1..4 *)
  | Ksm_code
  | Ksm_data
  | Kernel_code
  | Device
[@@deriving show { with_path = false }, eq]

(* Packed encodings: [Free] and [Unused] must map to 0 so a zeroed
   chunk means "all free". *)
let encode_owner = function
  | Free -> 0
  | Host -> 1
  | Container id -> 2 lor (id lsl 2)
  | Ksm id -> 3 lor (id lsl 2)

let decode_owner c =
  match c land 3 with
  | 0 -> Free
  | 1 -> Host
  | 2 -> Container (c lsr 2)
  | _ -> Ksm (c lsr 2)

let encode_kind = function
  | Unused -> 0
  | Data -> 1
  | Ksm_code -> 2
  | Ksm_data -> 3
  | Kernel_code -> 4
  | Device -> 5
  | Page_table l -> 6 lor (l lsl 3)
  | Ept_table l -> 7 lor (l lsl 3)

let decode_kind c =
  match c land 7 with
  | 0 -> Unused
  | 1 -> Data
  | 2 -> Ksm_code
  | 3 -> Ksm_data
  | 4 -> Kernel_code
  | 5 -> Device
  | 6 -> Page_table (c lsr 3)
  | _ -> Ept_table (c lsr 3)

(* Free bitmap: 32 frames per word.  A power-of-two width keeps every
   word/bit index computation a shift or mask (no integer division on
   the allocation path); 32 rather than 62 usable bits costs one extra
   word per 1984 frames and nothing else — scanning is in pfn order
   either way, so allocation order (and with it snapshot byte
   reproducibility) is identical. *)
let bits_per_word = 32
let word_shift = 5
let bit_mask = 31
let full_word = 0xFFFFFFFF

type arena = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t
type links = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Frame metadata chunks: [chunk_frames] frames each, one int (or
   byte) per frame per field, indexed by [pfn land chunk_mask]. *)
let chunk_shift = 12
let chunk_frames = 1 lsl chunk_shift
let chunk_mask = chunk_frames - 1

type chunk = {
  owner_of : int array;  (** encoded owner per frame *)
  kind_of : int array;  (** encoded kind per frame *)
  refcnt : int array;
  shared : Bytes.t;  (** 1 = CoW-shared read-only *)
  table_slot : int array;  (** frame -> arena slot, -1 = no table *)
}

let make_chunk n =
  {
    owner_of = Array.make n 0;
    kind_of = Array.make n 0;
    refcnt = Array.make n 0;
    shared = Bytes.make n '\000';
    table_slot = Array.make n (-1);
  }

(* Every unbuilt chunk of every machine: free-frame values, never
   written (writers go through [wchunk]). *)
let zero_chunk = make_chunk chunk_frames

type t = {
  total_frames : int;
  chunks : chunk array;  (** [pfn lsr chunk_shift] -> chunk; [zero_chunk] = unbuilt *)
  mutable arena : arena;  (** all table pages: [slot * 512 + index] *)
  mutable arena_slots : int;  (** arena capacity, in 512-entry slots *)
  mutable used_slots : int;  (** next never-used slot *)
  mutable free_slots : int array;  (** recycled-slot stack *)
  mutable n_free_slots : int;
  mutable dirty_lo : int array;  (** per-slot written range; [entries] = clean *)
  mutable dirty_hi : int array;  (** per-slot written range; [-1] = clean *)
  free_bits : int array;  (** bit set = frame free *)
  mutable free_count : int;
  mutable next_free : int;  (** rotating hint for the next-fit [alloc] *)
  links : links;  (** owner lists: [2*pfn] = prev, [2*pfn+1] = next; uninitialised *)
  mutable owner_head : int array;  (** encoded owner -> first frame, [nil] = none *)
  mutable owner_count : int array;  (** encoded owner -> frames owned *)
  mutable shared_count : int array;  (** encoded owner -> CoW-shared frames owned *)
  mutable decoded : owner array;  (** encoded owner -> its value; [Free] = not yet decoded *)
}

exception Out_of_memory

let entries = Addr.entries_per_table

let word_mask t w =
  let base = w lsl word_shift in
  let valid = min bits_per_word (t.total_frames - base) in
  if valid = bits_per_word then full_word else (1 lsl valid) - 1

let create ~frames:n =
  if n <= 0 then invalid_arg "Phys_mem.create";
  let nwords = (n + bits_per_word - 1) / bits_per_word in
  let t =
    {
      total_frames = n;
      chunks = Array.make ((n + chunk_mask) lsr chunk_shift) zero_chunk;
      arena = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout (64 * entries);
      arena_slots = 64;
      used_slots = 0;
      free_slots = Array.make 64 0;
      n_free_slots = 0;
      dirty_lo = Array.make 64 entries;
      dirty_hi = Array.make 64 (-1);
      free_bits = Array.make nwords 0;
      free_count = n;
      next_free = 0;
      links = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout (2 * n);
      owner_head = Array.make 64 (-1);
      owner_count = Array.make 64 0;
      shared_count = Array.make 64 0;
      decoded = Array.make 64 Free;
    }
  in
  (* Invariant: unattached slots are fully zero, and attached slots
     are zero outside their recorded dirty range — so slot acquisition
     never has to wipe 4 KiB, only releases wipe (just) what was
     written.  A fresh Bigarray is uninitialized; establish the
     invariant here. *)
  Bigarray.Array1.fill t.arena 0L;
  for w = 0 to nwords - 1 do
    t.free_bits.(w) <- word_mask t w
  done;
  t

let total_frames t = t.total_frames

(* The chunk holding [pfn], for reading: possibly [zero_chunk].  Every
   caller has range-checked [pfn] (or took it from the free bitmap), so
   its directory index is in bounds. *)
let[@inline] chunk t pfn = Array.unsafe_get t.chunks (pfn lsr chunk_shift)

(* The last chunk of a machine covers only the frames it has. *)
let build_chunk t i =
  let c = make_chunk (min chunk_frames (t.total_frames - (i lsl chunk_shift))) in
  t.chunks.(i) <- c;
  c

(* The chunk holding [pfn], for writing: built on first use. *)
let[@inline] wchunk t pfn =
  let c = chunk t pfn in
  if c != zero_chunk then c else build_chunk t (pfn lsr chunk_shift)

let check_pfn t pfn =
  if pfn < 0 || pfn >= t.total_frames then invalid_arg "Phys_mem.frame: pfn out of range"

(* Decoding [Container k] or [Ksm k] builds a block, and the scans ask
   for the owner of every leaf they meet, so each code is decoded once
   per machine and the value kept.  [decoded] grows with the owner
   index ([link]), so it covers the code of every owned frame. *)
let owner t pfn =
  check_pfn t pfn;
  let code = (chunk t pfn).owner_of.(pfn land chunk_mask) in
  match t.decoded.(code) with
  | Free when code <> 0 ->
      let o = decode_owner code in
      t.decoded.(code) <- o;
      o
  | o -> o

let kind t pfn =
  check_pfn t pfn;
  decode_kind (chunk t pfn).kind_of.(pfn land chunk_mask)

let is_free t pfn =
  check_pfn t pfn;
  (chunk t pfn).owner_of.(pfn land chunk_mask) = 0

(* ------------------------------------------------------------------ *)
(* PTE arena                                                           *)
(* ------------------------------------------------------------------ *)

(* Zero a slot's written range and mark it clean (see the invariant
   established in [create]). *)
let scrub_slot t s =
  let lo = t.dirty_lo.(s) and hi = t.dirty_hi.(s) in
  if hi >= lo then begin
    Bigarray.Array1.fill (Bigarray.Array1.sub t.arena ((s * entries) + lo) (hi - lo + 1)) 0L;
    t.dirty_lo.(s) <- entries;
    t.dirty_hi.(s) <- -1
  end

let release_slot t c i =
  let s = c.table_slot.(i) in
  if s >= 0 then begin
    c.table_slot.(i) <- -1;
    scrub_slot t s;
    if t.n_free_slots = Array.length t.free_slots then begin
      let bigger = Array.make (2 * t.n_free_slots) 0 in
      Array.blit t.free_slots 0 bigger 0 t.n_free_slots;
      t.free_slots <- bigger
    end;
    t.free_slots.(t.n_free_slots) <- s;
    t.n_free_slots <- t.n_free_slots + 1
  end

let grow_arena t =
  let cap = 2 * t.arena_slots in
  let bigger = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout (cap * entries) in
  Bigarray.Array1.blit t.arena (Bigarray.Array1.sub bigger 0 (t.arena_slots * entries));
  Bigarray.Array1.fill
    (Bigarray.Array1.sub bigger (t.arena_slots * entries) ((cap - t.arena_slots) * entries))
    0L;
  let lo = Array.make cap entries and hi = Array.make cap (-1) in
  Array.blit t.dirty_lo 0 lo 0 t.arena_slots;
  Array.blit t.dirty_hi 0 hi 0 t.arena_slots;
  t.dirty_lo <- lo;
  t.dirty_hi <- hi;
  t.arena <- bigger;
  t.arena_slots <- cap

(* Acquire (lazily) this frame's table slot; recycled and fresh slots
   are already zero (the invariant), so acquisition is O(1). *)
let ensure_slot t pfn =
  let c = wchunk t pfn and i = pfn land chunk_mask in
  let s = c.table_slot.(i) in
  if s >= 0 then s
  else begin
    let s =
      if t.n_free_slots > 0 then begin
        t.n_free_slots <- t.n_free_slots - 1;
        t.free_slots.(t.n_free_slots)
      end
      else begin
        if t.used_slots = t.arena_slots then grow_arena t;
        let s = t.used_slots in
        t.used_slots <- t.used_slots + 1;
        s
      end
    in
    c.table_slot.(i) <- s;
    s
  end

(* ------------------------------------------------------------------ *)
(* Owner index                                                         *)
(* ------------------------------------------------------------------ *)

let nil = -1
let[@inline] prev t pfn = Int32.to_int (Bigarray.Array1.get t.links (2 * pfn))
let[@inline] next t pfn = Int32.to_int (Bigarray.Array1.get t.links ((2 * pfn) + 1))
let[@inline] set_prev t pfn p = Bigarray.Array1.set t.links (2 * pfn) (Int32.of_int p)
let[@inline] set_next t pfn n = Bigarray.Array1.set t.links ((2 * pfn) + 1) (Int32.of_int n)

(* Make the per-owner arrays cover encoded owner [code]. *)
let ensure_code t code =
  let cap = Array.length t.owner_head in
  if code >= cap then begin
    let cap' = max (2 * cap) (code + 1) in
    let head = Array.make cap' nil and count = Array.make cap' 0 in
    let shared = Array.make cap' 0 and decoded = Array.make cap' Free in
    Array.blit t.owner_head 0 head 0 cap;
    Array.blit t.owner_count 0 count 0 cap;
    Array.blit t.shared_count 0 shared 0 cap;
    Array.blit t.decoded 0 decoded 0 cap;
    t.owner_head <- head;
    t.owner_count <- count;
    t.shared_count <- shared;
    t.decoded <- decoded
  end

(* Push [pfn] on the list of encoded owner [code] ([Free] has none). *)
let link t pfn code =
  if code <> 0 then begin
    ensure_code t code;
    let h = t.owner_head.(code) in
    set_prev t pfn nil;
    set_next t pfn h;
    if h <> nil then set_prev t h pfn;
    t.owner_head.(code) <- pfn;
    t.owner_count.(code) <- t.owner_count.(code) + 1
  end

let unlink t pfn code =
  if code <> 0 then begin
    let p = prev t pfn and n = next t pfn in
    if p = nil then t.owner_head.(code) <- n else set_next t p n;
    if n <> nil then set_prev t n p;
    t.owner_count.(code) <- t.owner_count.(code) - 1
  end

(* Move [pfn], held in built chunk [c], to encoded owner [code],
   keeping the index in step; a shared frame takes its share count
   along.  Free frames keep no share count. *)
let reown t c pfn code =
  let i = pfn land chunk_mask in
  let old = c.owner_of.(i) in
  if old <> code then begin
    unlink t pfn old;
    c.owner_of.(i) <- code;
    link t pfn code;
    if Bytes.get c.shared i <> '\000' then begin
      if old <> 0 then t.shared_count.(old) <- t.shared_count.(old) - 1;
      if code <> 0 then t.shared_count.(code) <- t.shared_count.(code) + 1
    end
  end

(* Set frame [i] of built chunk [c] shared or not, keeping its owner's
   share count in step. *)
let set_shared t c i v =
  let was = Bytes.get c.shared i <> '\000' in
  if was <> v then begin
    Bytes.set c.shared i (if v then '\001' else '\000');
    let code = c.owner_of.(i) in
    if code <> 0 then t.shared_count.(code) <- (t.shared_count.(code) + if v then 1 else -1)
  end

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)
(* ------------------------------------------------------------------ *)

let set_free_bit t pfn =
  let w = pfn lsr word_shift and b = pfn land bit_mask in
  t.free_bits.(w) <- t.free_bits.(w) lor (1 lsl b)

let clear_free_bit t pfn =
  let w = pfn lsr word_shift and b = pfn land bit_mask in
  t.free_bits.(w) <- t.free_bits.(w) land lnot (1 lsl b)

(* Index of the lowest set bit of a non-zero word: 5 branch-free
   narrowing steps instead of a per-bit scan. *)
let lowest_bit w =
  let i = if w land 0xFFFF <> 0 then 0 else 16 in
  let i = if (w lsr i) land 0xFF <> 0 then i else i + 8 in
  let i = if (w lsr i) land 0xF <> 0 then i else i + 4 in
  let i = if (w lsr i) land 0x3 <> 0 then i else i + 2 in
  if (w lsr i) land 1 <> 0 then i else i + 1

(* First free frame at or after [start], wrapping around — the same
   next-fit order the previous per-frame scan produced. *)
let find_free_from t start =
  if t.free_count = 0 then raise Out_of_memory;
  let nwords = Array.length t.free_bits in
  let ws = start lsr word_shift and bs = start land bit_mask in
  let m = t.free_bits.(ws) land (full_word lxor ((1 lsl bs) - 1)) in
  if m <> 0 then (ws lsl word_shift) + lowest_bit m
  else begin
    let rec scan i n =
      if n = 0 then
        (* free_count > 0, so the only remaining candidates are the
           pre-[start] bits of the starting word *)
        let m = t.free_bits.(ws) land ((1 lsl bs) - 1) in
        (ws lsl word_shift) + lowest_bit m
      else
        let w = t.free_bits.(i) in
        if w <> 0 then (i lsl word_shift) + lowest_bit w
        else scan (if i + 1 = nwords then 0 else i + 1) (n - 1)
    in
    scan (if ws + 1 = nwords then 0 else ws + 1) (nwords - 1)
  end

(* Claim one free frame for encoded [owner] and [kind]: metadata reset
   + bitmap/count update.  Any stale table slot from the frame's
   previous life is recycled. *)
let[@inline] claim t pfn ~owner ~kind =
  let c = wchunk t pfn and i = pfn land chunk_mask in
  reown t c pfn owner;
  c.kind_of.(i) <- kind;
  c.refcnt.(i) <- 0;
  set_shared t c i false;
  release_slot t c i;
  clear_free_bit t pfn;
  t.free_count <- t.free_count - 1

(* Allocate one frame anywhere (next-fit from the rotating hint). *)
let alloc t ~owner ~kind =
  let pfn = find_free_from t t.next_free in
  let nf = pfn + 1 in
  t.next_free <- (if nf = t.total_frames then 0 else nf);
  claim t pfn ~owner:(encode_owner owner) ~kind:(encode_kind kind);
  pfn

(* [release_slot] over indices [lo .. hi] of [c], in ascending order. *)
let release_slots t c lo hi =
  for i = lo to hi do
    if Array.unsafe_get c.table_slot i >= 0 then release_slot t c i
  done

(* Apply [f c first lo hi] to each chunk [c] that [base .. base+count-1]
   meets, with [lo .. hi] the range's indices inside it and [first] the
   pfn at index [lo]; [get] picks the chunk ([chunk] to read, [wchunk]
   to write). *)
let[@inline] iter_chunks t get base count f =
  let last = base + count - 1 in
  let pfn = ref base in
  while !pfn <= last do
    let p = !pfn in
    let stop = min last (p lor chunk_mask) in
    f (get t p) p (p land chunk_mask) (stop land chunk_mask);
    pfn := stop + 1
  done

(* Set or clear the free bits of [base .. base+count-1] a word at a
   time. *)
let set_free_bits t base count free =
  let last = base + count - 1 in
  let pfn = ref base in
  while !pfn <= last do
    let p = !pfn in
    let w = p lsr word_shift in
    let hi = min last (p lor bit_mask) in
    let lo_bit = p land bit_mask and hi_bit = hi land bit_mask in
    let m = ((1 lsl (hi_bit - lo_bit + 1)) - 1) lsl lo_bit in
    t.free_bits.(w) <- (if free then t.free_bits.(w) lor m else t.free_bits.(w) land lnot m);
    pfn := hi + 1
  done

(* [claim] of every frame of a free run, in one step: the fields are
   written chunk by chunk, and the run joins the owner list as [count]
   pushes in ascending order would leave it, [base + count - 1] first,
   then down to [base], then the previous head. *)
let claim_run t base count ~owner ~kind =
  iter_chunks t wchunk base count (fun c _ lo hi ->
      Array.fill c.owner_of lo (hi - lo + 1) owner;
      Array.fill c.kind_of lo (hi - lo + 1) kind;
      Array.fill c.refcnt lo (hi - lo + 1) 0;
      Bytes.fill c.shared lo (hi - lo + 1) '\000';
      release_slots t c lo hi);
  if owner <> 0 then begin
    ensure_code t owner;
    let last = base + count - 1 and h = t.owner_head.(owner) in
    for pfn = base to last do
      Bigarray.Array1.unsafe_set t.links (2 * pfn) (Int32.of_int (pfn + 1));
      Bigarray.Array1.unsafe_set t.links ((2 * pfn) + 1) (Int32.of_int (pfn - 1))
    done;
    set_prev t last nil;
    set_next t base h;
    if h <> nil then set_prev t h base;
    t.owner_head.(owner) <- last;
    t.owner_count.(owner) <- t.owner_count.(owner) + count
  end;
  set_free_bits t base count false;
  t.free_count <- t.free_count - count

(* Allocate [count] physically-contiguous frames; first-fit from frame
   0.  This is the delegation primitive CKI uses for hPA segments, and
   the source of the paper's acknowledged fragmentation limitation.
   The bitmap lets the scan skip fully-allocated and fully-free words
   62 frames at a time. *)
let alloc_contiguous t ~owner ~kind ~count =
  if count <= 0 then invalid_arg "Phys_mem.alloc_contiguous";
  let n = t.total_frames in
  let base = ref (-1) in
  let run_start = ref 0 in
  let run = ref 0 in
  let pfn = ref 0 in
  (try
     while !pfn < n do
       let w = !pfn lsr word_shift in
       let valid = min bits_per_word (n - !pfn) in
       let mask = word_mask t w in
       let word = t.free_bits.(w) in
       if word = 0 then run := 0
       else if word = mask && !run + valid < count then begin
         (* whole word free but the run still cannot complete here *)
         if !run = 0 then run_start := !pfn;
         run := !run + valid
       end
       else
         for i = 0 to valid - 1 do
           if word land (1 lsl i) <> 0 then begin
             if !run = 0 then run_start := !pfn + i;
             incr run;
             if !run = count then begin
               base := !run_start;
               raise Exit
             end
           end
           else run := 0
         done;
       pfn := !pfn + valid
     done
   with Exit -> ());
  if !base < 0 then raise Out_of_memory;
  claim_run t !base count ~owner:(encode_owner owner) ~kind:(encode_kind kind);
  !base

(* Return an allocated frame to the free pool.  An owned frame was
   claimed, so its chunk [c] is built and its fields reset in place. *)
let[@inline] release_frame t c pfn =
  let i = pfn land chunk_mask in
  if Bytes.get c.shared i <> '\000' && c.refcnt.(i) > 0 then
    invalid_arg "Phys_mem.free: shared frame still referenced";
  reown t c pfn 0;
  c.kind_of.(i) <- 0;
  c.refcnt.(i) <- 0;
  set_shared t c i false;
  release_slot t c i;
  set_free_bit t pfn;
  t.free_count <- t.free_count + 1

let free t pfn =
  check_pfn t pfn;
  let c = chunk t pfn in
  if c.owner_of.(pfn land chunk_mask) = 0 then invalid_arg "Phys_mem.free: double free";
  release_frame t c pfn

(* The owner code of [base .. base+count-1] if the run is one piece of
   that owner's list as [claim_run] leaves it ([base + count - 1]
   first, then down to [base]) and holds no CoW-shared frame; 0
   otherwise. *)
let intact_run t base count =
  let last = base + count - 1 in
  let code = (chunk t base).owner_of.(base land chunk_mask) in
  let ok = ref (code <> 0) and pfn = ref base in
  while !ok && !pfn <= last do
    let c = chunk t !pfn in
    let stop = min last (!pfn lor chunk_mask) in
    while !ok && !pfn <= stop do
      let p = !pfn in
      let i = p land chunk_mask in
      ok :=
        Array.unsafe_get c.owner_of i = code
        && Bytes.unsafe_get c.shared i = '\000'
        && (p = base || Int32.to_int (Bigarray.Array1.unsafe_get t.links ((2 * p) + 1)) = p - 1);
      incr pfn
    done
  done;
  if !ok then code else 0

(* [free] over a run, with one range check, skipping frames that are
   already free.  An intact run leaves its owner list in one unlink and
   has its fields reset chunk by chunk, slots released in ascending pfn
   order as the per-frame path releases them. *)
let free_range t ~base ~count =
  if count > 0 then begin
    check_pfn t base;
    check_pfn t (base + count - 1);
    let code = intact_run t base count in
    if code <> 0 then begin
      let last = base + count - 1 in
      let p = prev t last and n = next t base in
      if p = nil then t.owner_head.(code) <- n else set_next t p n;
      if n <> nil then set_prev t n p;
      t.owner_count.(code) <- t.owner_count.(code) - count;
      iter_chunks t chunk base count (fun c _ lo hi ->
          Array.fill c.owner_of lo (hi - lo + 1) 0;
          Array.fill c.kind_of lo (hi - lo + 1) 0;
          Array.fill c.refcnt lo (hi - lo + 1) 0;
          release_slots t c lo hi);
      set_free_bits t base count true;
      t.free_count <- t.free_count + count
    end
    else
      for pfn = base to base + count - 1 do
        let c = chunk t pfn in
        if c.owner_of.(pfn land chunk_mask) <> 0 then release_frame t c pfn
      done
  end

(* One pass over the owner codes of a range, a chunk at a time; [f]
   runs only on the exceptions. *)
let iter_not_owned t ~base ~count owner f =
  if count > 0 then begin
    check_pfn t base;
    check_pfn t (base + count - 1);
    let code = encode_owner owner in
    iter_chunks t chunk base count (fun c first lo hi ->
        for i = lo to hi do
          if Array.unsafe_get c.owner_of i <> code then f (first - lo + i)
        done)
  end

(* [iter_not_owned] that also stops at CoW-shared frames: one pass over
   the owner codes and shared bytes of a range. *)
let iter_not_exclusive t ~base ~count owner f =
  if count > 0 then begin
    check_pfn t base;
    check_pfn t (base + count - 1);
    let code = encode_owner owner in
    iter_chunks t chunk base count (fun c first lo hi ->
        for i = lo to hi do
          if Array.unsafe_get c.owner_of i <> code || Bytes.unsafe_get c.shared i <> '\000' then
            f (first - lo + i)
        done)
  end

let set_kind t pfn kind =
  check_pfn t pfn;
  (wchunk t pfn).kind_of.(pfn land chunk_mask) <- encode_kind kind

let set_owner t pfn owner =
  check_pfn t pfn;
  reown t (wchunk t pfn) pfn (encode_owner owner)

let incr_ref t pfn =
  check_pfn t pfn;
  let c = wchunk t pfn and i = pfn land chunk_mask in
  c.refcnt.(i) <- c.refcnt.(i) + 1

let decr_ref t pfn =
  check_pfn t pfn;
  let c = wchunk t pfn and i = pfn land chunk_mask in
  if c.refcnt.(i) <= 0 then invalid_arg "Phys_mem.decr_ref: refcount underflow";
  c.refcnt.(i) <- c.refcnt.(i) - 1

let refcount t pfn =
  check_pfn t pfn;
  (chunk t pfn).refcnt.(pfn land chunk_mask)

let set_shared_ro t pfn v =
  check_pfn t pfn;
  set_shared t (wchunk t pfn) (pfn land chunk_mask) v

let is_shared_ro t pfn =
  check_pfn t pfn;
  Bytes.get (chunk t pfn).shared (pfn land chunk_mask) <> '\000'

(* A frame's arena slot, -1 = none; never builds a chunk. *)
let[@inline] slot t pfn = (chunk t pfn).table_slot.(pfn land chunk_mask)

(* Table-frame accessors: the frame's 512-entry slot in the PTE arena
   is acquired lazily on first write (a slot-less frame reads as all
   zeros, exactly what a fresh slot would hold). *)
let read_entry t ~pfn ~index =
  check_pfn t pfn;
  if index < 0 || index >= entries then invalid_arg "Phys_mem.read_entry";
  let s = slot t pfn in
  if s < 0 then 0L else Bigarray.Array1.get t.arena ((s * entries) + index)

(* Entries outside the slot's written range are zero (the arena
   invariant), so only [dirty_lo .. dirty_hi] can hold one to visit.
   The arena and the range are read once: [f] may grow the arena by
   writing other frames, which copies this slot's unchanged contents. *)
let iter_entries t ~pfn f =
  check_pfn t pfn;
  let s = slot t pfn in
  if s >= 0 then begin
    let arena = t.arena and base = s * entries in
    for index = t.dirty_lo.(s) to t.dirty_hi.(s) do
      let e = Bigarray.Array1.unsafe_get arena (base + index) in
      if not (Int64.equal e 0L) then f index e
    done
  end

(* The scan twin of [write_run]: one pass over the slot's written range
   against the progression, [f] only on the entries off it. *)
let iter_unlike_run t ~pfn ~first ~step f =
  check_pfn t pfn;
  let s = slot t pfn in
  if s >= 0 then begin
    let arena = t.arena and base = s * entries in
    for index = t.dirty_lo.(s) to t.dirty_hi.(s) do
      let e = Bigarray.Array1.unsafe_get arena (base + index) in
      if
        (not (Int64.equal e 0L))
        && not (Int64.equal e (Int64.add first (Int64.mul (Int64.of_int index) step)))
      then f index e
    done
  end

let write_entry t ~pfn ~index value =
  check_pfn t pfn;
  if index < 0 || index >= entries then invalid_arg "Phys_mem.write_entry";
  let s = ensure_slot t pfn in
  Bigarray.Array1.set t.arena ((s * entries) + index) value;
  if index < t.dirty_lo.(s) then t.dirty_lo.(s) <- index;
  if index > t.dirty_hi.(s) then t.dirty_hi.(s) <- index

type entry_state = Absent | Read_only | Writable

(* The present (bit 0) and writable (bit 1) bits of [Pte]'s encoding,
   tested and set in the arena word itself, so no [int64] is boxed.  A
   present entry is nonzero, so its index already lies in the slot's
   written range. *)
let set_entry_writable t ~pfn ~index writable =
  check_pfn t pfn;
  if index < 0 || index >= entries then invalid_arg "Phys_mem.set_entry_writable";
  let s = slot t pfn in
  if s < 0 then Absent
  else begin
    let k = (s * entries) + index in
    let e = Bigarray.Array1.unsafe_get t.arena k in
    if Int64.equal (Int64.logand e 1L) 0L then Absent
    else begin
      Bigarray.Array1.unsafe_set t.arena k
        (if writable then Int64.logor e 2L else Int64.logand e (Int64.lognot 2L));
      if Int64.equal (Int64.logand e 2L) 0L then Read_only else Writable
    end
  end

(* A run of entries an arithmetic progression apart, one dirty-range
   update for the run. *)
let write_run t ~pfn ~index ~count ~first ~step =
  check_pfn t pfn;
  if index < 0 || count < 0 || index + count > entries then invalid_arg "Phys_mem.write_run";
  if count > 0 then begin
    let s = ensure_slot t pfn in
    let base = (s * entries) + index in
    for k = 0 to count - 1 do
      Bigarray.Array1.unsafe_set t.arena (base + k) (Int64.add first (Int64.mul (Int64.of_int k) step))
    done;
    if index < t.dirty_lo.(s) then t.dirty_lo.(s) <- index;
    if index + count - 1 > t.dirty_hi.(s) then t.dirty_hi.(s) <- index + count - 1
  end

(* Page copies: a frame's first [len] bytes are its words in
   little-endian order, the last partial word zero-padded above [len]
   -- exactly what packing the bytes one [write_entry] per word stores.
   One call is one dirty-range update; [len = 0] touches nothing. *)
let page_bytes = entries * 8

let check_copy name t pfn buf ~off ~len =
  check_pfn t pfn;
  if len < 0 || len > page_bytes || off < 0 || off > Bytes.length buf - len then invalid_arg name

let read_bytes t ~pfn dst ~off ~len =
  check_copy "Phys_mem.read_bytes" t pfn dst ~off ~len;
  if len > 0 then begin
    let s = slot t pfn in
    if s < 0 then Bytes.fill dst off len '\000'
    else begin
      let base = s * entries and full = len lsr 3 in
      for w = 0 to full - 1 do
        Bytes.set_int64_le dst (off + (w lsl 3)) (Bigarray.Array1.get t.arena (base + w))
      done;
      let tail = off + (full lsl 3) in
      if tail < off + len then begin
        let v = Int64.to_int (Bigarray.Array1.get t.arena (base + full)) in
        for i = tail to off + len - 1 do
          Bytes.set dst i (Char.chr ((v lsr (8 * (i - tail))) land 0xFF))
        done
      end
    end
  end

let write_bytes t ~pfn src ~off ~len =
  check_copy "Phys_mem.write_bytes" t pfn src ~off ~len;
  if len > 0 then begin
    let s = ensure_slot t pfn in
    let base = s * entries and full = len lsr 3 in
    for w = 0 to full - 1 do
      Bigarray.Array1.set t.arena (base + w) (Bytes.get_int64_le src (off + (w lsl 3)))
    done;
    let tail = off + (full lsl 3) in
    let last =
      if tail < off + len then begin
        let v = ref 0 in
        for i = off + len - 1 downto tail do
          v := (!v lsl 8) lor Char.code (Bytes.get src i)
        done;
        Bigarray.Array1.set t.arena (base + full) (Int64.of_int !v);
        full
      end
      else full - 1
    in
    t.dirty_lo.(s) <- 0;
    if last > t.dirty_hi.(s) then t.dirty_hi.(s) <- last
  end

let clear_table t pfn =
  check_pfn t pfn;
  let s = slot t pfn in
  if s >= 0 then scrub_slot t s

(* Statistics used by tests and the host memory accountant. *)
let count_owned t owner_pred =
  let c = ref 0 in
  for pfn = 0 to t.total_frames - 1 do
    if owner_pred (decode_owner (chunk t pfn).owner_of.(pfn land chunk_mask)) then incr c
  done;
  !c

let free_frames t = t.free_count
let table_slots t = t.used_slots - t.n_free_slots

let owned_count t owner =
  match encode_owner owner with
  | 0 -> t.free_count
  | code -> if code < Array.length t.owner_count then t.owner_count.(code) else 0

let shared_count t owner =
  match encode_owner owner with
  | 0 -> invalid_arg "Phys_mem.shared_count: Free frames are not indexed"
  | code -> if code < Array.length t.shared_count then t.shared_count.(code) else 0

(* The successor is read before [f] runs, so [f] may free or re-own the
   frame it is given. *)
let iter_owned t owner f =
  let code = encode_owner owner in
  if code = 0 then invalid_arg "Phys_mem.iter_owned: Free frames are not indexed";
  let pfn = ref (if code < Array.length t.owner_head then t.owner_head.(code) else nil) in
  while !pfn <> nil do
    let p = !pfn in
    pfn := next t p;
    f p
  done
