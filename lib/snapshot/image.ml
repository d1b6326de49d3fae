(* The snapshot image: a deterministic, versioned, checksummed record
   of one quiesced CKI container.

   Nothing in the image is an absolute frame number: every frame is
   named either by its offset inside a delegated segment ([Seg]) or by
   its position in the auxiliary-frame table ([Aux], for KSM-private
   and kernel-image frames allocated outside the segments).  Restore
   relocates by delegating fresh segments and allocating fresh
   auxiliary frames, then re-basing every reference — so an image can
   land at any hPA on any machine.

   The on-disk form is line-oriented text: a magic+version line, an
   FNV-1a-64 checksum of the payload, then the payload.  Encoding is a
   pure function of the logical container state (all unordered
   collections are sorted), so capture∘restore∘capture is
   byte-identical — the property the tests pin.  The image comes from
   outside the trusted base, so one codec table below spells every
   record for both directions, and decode takes only the text encode
   writes. *)

type fref = Seg of { seg : int; off : int } | Aux of int

(* Frames that exist outside the delegated segments.  [Pt] frames are
   KSM-owned page-table pages (the monitor's own trees, per-vCPU
   copies, direct-map interior nodes); [Kernel_code] is the guest
   kernel image, boot-allocated host-side. *)
type aux_kind = Pt of int | Ksm_code | Ksm_data | Kernel_code

(* One present PTE: [e_bits] is the raw 64-bit entry with the frame
   field zeroed (permission, pkey and A/D bits preserved verbatim);
   the frame is carried portably in [e_target]. *)
type entry = { e_index : int; e_bits : int64; e_target : fref }

type table = {
  t_frame : fref;
  t_level : int;
  t_va : Hw.Addr.va;  (** base VA the table's slot 0 translates *)
  t_entries : entry list;
}

type root = { r_frame : fref; r_copies : fref array }
type vcpu_area = { a_l3 : fref; a_frames : fref array }

type cpu_state = {
  c_kernel : bool;
  c_pkrs : int;
  c_if : bool;
  c_gs : int;
  c_kgs : int;
  c_cr3 : fref;
}

type vma_rec = {
  v_start : Hw.Addr.va;
  v_stop : Hw.Addr.va;
  v_prot : bool * bool * bool;  (** read, write, exec *)
  v_backing : Kernel_model.Vma.backing;
}

type fd_rec = { f_fd : int; f_pos : int; f_path : string }

type task_rec = {
  tk_pid : int;
  tk_parent : int;
  tk_next_fd : int;
  tk_aspace : int;
  tk_brk : Hw.Addr.va;
  tk_cursor : Hw.Addr.va;
  tk_vmas : vma_rec list;  (** sorted by start *)
  tk_pages : (Hw.Addr.vpn * fref) list;  (** sorted by vpn *)
  tk_fds : fd_rec list;  (** sorted by fd; regular files only *)
}

type t = {
  cfg : Cki.Config.t;
  segments : int array;  (** delegated segment sizes (frames) *)
  aux : aux_kind array;
  ptps : (fref * int) list;  (** declared PTPs with levels, sorted *)
  kernel_root : fref;
  template : (int * int64 * fref) list;  (** fixed L4 slots *)
  roots : root list;  (** kernel root first, then aspace roots by id *)
  tables : table list;  (** canonical traversal order *)
  pervcpu : vcpu_area array;
  cpus : cpu_state array;
  next_pid : int;
  next_as : int;
  buddy_blocks : (int * int) list;  (** (segment-0 offset, order), sorted *)
  aspaces : (int * fref) list;  (** aspace id -> root, sorted *)
  tasks : task_rec list;  (** sorted by pid *)
  dirs : string list;  (** tmpfs directories, parents first *)
  files : (string * string) list;  (** tmpfs regular files with contents *)
}

(* v2: the direct-map subtree (tables + template slot) left the image —
   its VA layout keys on physical addresses, so restore rebuilds it
   from the new segment bases instead of relocating stale keys. *)
let version = 2
let magic = "CKI-SNAPSHOT"

(* Frame field of a PTE: bits 12..50 (mirrors Hw.Pte's encoding). *)
let pfn_mask = Int64.shift_left (Int64.of_int ((1 lsl 39) - 1)) 12
let strip_pfn e = Int64.logand e (Int64.lognot pfn_mask)
let with_pfn bits pfn = Int64.logor (strip_pfn bits) (Int64.shift_left (Int64.of_int pfn) 12)

(* ------------------------------------------------------------------ *)
(* FNV-1a 64-bit checksum                                              *)
(* ------------------------------------------------------------------ *)

let fnv1a64 s =
  let h = ref (-3750763034362895579L) (* 0xcbf29ce484222325 *) in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 1099511628211L)
    s;
  !h

(* ------------------------------------------------------------------ *)
(* The codec: each record of the format is described once, and that   *)
(* description both prints it and reads it back                        *)
(* ------------------------------------------------------------------ *)

type decode_error =
  | Bad_magic
  | Bad_version of int
  | Bad_checksum
  | Truncated
  | Malformed of string

let show_decode_error = function
  | Bad_magic -> "bad magic (not a CKI snapshot)"
  | Bad_version v -> Printf.sprintf "unsupported image version %d (expected %d)" v version
  | Bad_checksum -> "checksum mismatch (corrupted image)"
  | Truncated -> "truncated image"
  | Malformed s -> "malformed image: " ^ s

exception Bad of decode_error

(* A word of a line that its field cannot read. *)
exception Reject

(* One codec type serves both levels of the format: a field prints to
   and reads from the words of a line, a record to and from the lines
   of the payload.  [get] returns the tokens it left.  ['k] differs
   from ['r] only while a [record] is being built. *)
type ('r, 'k) c = { put : 'r -> string list; get : string list -> 'k * string list }

(* A field of one word.  [read] need only be right on what [show]
   writes: [line] refuses every line that does not print back to
   itself, so leading zeros, signs and stray digits never get in. *)
let word show read =
  {
    put = (fun v -> [ show v ]);
    get =
      (function
      | w :: ws -> ( match read w with Some v -> (v, ws) | None -> raise Reject)
      | [] -> raise Reject);
  }

let int = word string_of_int int_of_string_opt

(* A count.  A negative one must be refused by its own line: [rep]
   would read on to the end of the payload. *)
let nat = word string_of_int (fun w -> match int_of_string_opt w with Some n when n >= 0 -> Some n | _ -> None)
let of_cases show cases = word show (fun w -> List.find_opt (fun v -> show v = w) cases)
let bool01 = of_cases (fun b -> if b then "1" else "0") [ false; true ]
let hex64 = word (Printf.sprintf "%Lx") (fun w -> Int64.of_string_opt ("0x" ^ w))

let fref =
  word
    (function Seg { seg; off } -> Printf.sprintf "S%d.%d" seg off | Aux i -> Printf.sprintf "A%d" i)
    (fun w ->
      match Scanf.sscanf_opt w "A%d%!" (fun i -> Aux i) with
      | None -> Scanf.sscanf_opt w "S%d.%d%!" (fun seg off -> Seg { seg; off })
      | r -> r)

let aux_kind =
  of_cases
    (function
      | Pt l -> "pt" ^ string_of_int l
      | Ksm_code -> "ksm_code"
      | Ksm_data -> "ksm_data"
      | Kernel_code -> "kernel_code")
    [ Pt 1; Pt 2; Pt 3; Pt 4; Ksm_code; Ksm_data; Kernel_code ]

let backing =
  let show = function
    | Kernel_model.Vma.Anon -> "anon"
    | Kernel_model.Vma.File { inode; offset } -> Printf.sprintf "file:%d:%d" inode offset
    | Kernel_model.Vma.Stack -> "stack"
    | Kernel_model.Vma.Heap -> "heap"
  in
  word show (fun w ->
      match List.find_opt (fun b -> show b = w) Kernel_model.Vma.[ Anon; Stack; Heap ] with
      | None ->
          Scanf.sscanf_opt w "file:%d:%d%!" (fun inode offset -> Kernel_model.Vma.File { inode; offset })
      | b -> b)

let rwx =
  word
    (fun (r, w, x) -> String.concat "" (List.concat_map bool01.put [ r; w; x ]))
    (fun s -> Scanf.sscanf_opt s "%c%c%c%!" (fun r w x -> (r = '1', w = '1', x = '1')))

let hex_string =
  word
    (fun s -> String.concat "" (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i]))))
    (fun h ->
      let byte i = Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)) in
      try Some (String.init (String.length h / 2) byte) with Failure _ -> None)

(* A record built field by field: [record k |+ (c1, proj1) |+ ...]
   prints [proj1 r], ... in turn and reads them back into [k]. *)
let record k = { put = (fun _ -> []); get = (fun s -> (k, s)) }

let ( |+ ) b (c, proj) =
  {
    put = (fun r -> b.put r @ c.put (proj r));
    get =
      (fun s ->
        let k, s = b.get s in
        let v, s = c.get s in
        (k v, s));
  }

let pair a b = record (fun x y -> (x, y)) |+ (a, fst) |+ (b, snd)

let map f g c =
  {
    put = (fun v -> c.put (g v));
    get =
      (fun s ->
        let v, s = c.get s in
        (f v, s));
  }

let array c = map Array.of_list Array.to_list c

(* [head] is read first and decides how the rest is read: a count
   says how many items follow it.  [back] recovers [head]'s value from
   the whole. *)
let dep head body back =
  {
    put =
      (fun r ->
        let h = back r in
        head.put h @ (body h).put r);
    get =
      (fun s ->
        let h, s = head.get s in
        (body h).get s);
  }

(* [n] items, the [i]th described by [item i]. *)
let rep n item =
  {
    put = (fun xs -> List.concat (List.mapi (fun i x -> (item i).put x) xs));
    get =
      (fun s ->
        let rec go i s acc =
          if i = n then (List.rev acc, s)
          else
            let x, s = (item i).get s in
            go (i + 1) s (x :: acc)
        in
        go 0 s []);
  }

let list count item = dep count (fun n -> rep n (fun _ -> item)) List.length

(* The word [i], then [c]: a position the line states and the value
   does not carry; the print-back check holds it to [i]. *)
let at i c =
  {
    put = (fun v -> string_of_int i :: c.put v);
    get = (function _ :: ws -> c.get ws | [] -> raise Reject);
  }

(* A line quoted in an error; file contents make long ones. *)
let clip l = if String.length l > 48 then String.sub l 0 48 ^ "..." else l

(* One line: [tag], then [f]'s words.  A line is accepted only if it
   prints back to itself, so decode takes exactly the text encode
   writes; a refusal names the record. *)
let line tag f =
  let print v = String.concat " " (tag :: f.put v) in
  {
    put = (fun v -> [ print v ]);
    get =
      (function
      | [] | [ "" ] (* what follows the final newline *) -> raise (Bad Truncated)
      | l :: ls -> (
          match f.get (List.tl (String.split_on_char ' ' l)) with
          | v, _ when print v = l -> (v, ls)
          | _ | (exception Reject) -> raise (Bad (Malformed (tag ^ " record: " ^ clip l)))));
  }

let counted tag item = list (line tag nat) item

(* ------------------------------------------------------------------ *)
(* The format: DESIGN.md §7.1's grammar, each record spelled once       *)
(* ------------------------------------------------------------------ *)

let config =
  record (fun opt2 opt3 hugepages pti_in_gates emulate_pvm_syscall design_pku vcpus segment_frames ->
      {
        Cki.Config.opt2;
        opt3;
        hugepages;
        pti_in_gates;
        emulate_pvm_syscall;
        design_pku;
        vcpus;
        segment_frames;
      })
  |+ (bool01, fun c -> c.Cki.Config.opt2)
  |+ (bool01, fun c -> c.Cki.Config.opt3)
  |+ (bool01, fun c -> c.Cki.Config.hugepages)
  |+ (bool01, fun c -> c.Cki.Config.pti_in_gates)
  |+ (bool01, fun c -> c.Cki.Config.emulate_pvm_syscall)
  |+ (bool01, fun c -> c.Cki.Config.design_pku)
  |+ (int, fun c -> c.Cki.Config.vcpus)
  |+ (int, fun c -> c.Cki.Config.segment_frames)

let frames = array (list nat fref)

let root =
  line "r"
    (record (fun r_frame r_copies -> { r_frame; r_copies })
    |+ (fref, fun r -> r.r_frame)
    |+ (frames, fun r -> r.r_copies))

let entry =
  line "e"
    (record (fun e_index e_bits e_target -> { e_index; e_bits; e_target })
    |+ (int, fun e -> e.e_index)
    |+ (hex64, fun e -> e.e_bits)
    |+ (fref, fun e -> e.e_target))

(* A table line ends in the number of entry lines below it. *)
let table =
  dep
    (line "t"
       (record (fun t_frame t_level t_va n -> ({ t_frame; t_level; t_va; t_entries = [] }, n))
       |+ (fref, fun (tb, _) -> tb.t_frame)
       |+ (int, fun (tb, _) -> tb.t_level)
       |+ (int, fun (tb, _) -> tb.t_va)
       |+ (nat, snd)))
    (fun (tb, n) ->
      map (fun t_entries -> { tb with t_entries }) (fun tb -> tb.t_entries) (rep n (fun _ -> entry)))
    (fun tb -> (tb, List.length tb.t_entries))

let vcpu_area =
  line "v"
    (record (fun a_l3 a_frames -> { a_l3; a_frames })
    |+ (fref, fun a -> a.a_l3)
    |+ (frames, fun a -> a.a_frames))

let cpu =
  line "c"
    (record (fun c_kernel c_pkrs c_if c_gs c_kgs c_cr3 -> { c_kernel; c_pkrs; c_if; c_gs; c_kgs; c_cr3 })
    |+ (bool01, fun c -> c.c_kernel)
    |+ (int, fun c -> c.c_pkrs)
    |+ (bool01, fun c -> c.c_if)
    |+ (int, fun c -> c.c_gs)
    |+ (int, fun c -> c.c_kgs)
    |+ (fref, fun c -> c.c_cr3))

let vma =
  line "m"
    (record (fun v_start v_stop v_prot v_backing -> { v_start; v_stop; v_prot; v_backing })
    |+ (int, fun v -> v.v_start)
    |+ (int, fun v -> v.v_stop)
    |+ (rwx, fun v -> v.v_prot)
    |+ (backing, fun v -> v.v_backing))

let fd =
  line "f"
    (record (fun f_fd f_pos f_path -> { f_fd; f_pos; f_path })
    |+ (int, fun f -> f.f_fd)
    |+ (int, fun f -> f.f_pos)
    |+ (hex_string, fun f -> f.f_path))

(* A task line ends in the numbers of its vma, page and fd lines. *)
let task =
  dep
    (line "task"
       (record (fun tk_pid tk_parent tk_next_fd tk_aspace tk_brk tk_cursor nv np nf ->
            ( {
                tk_pid;
                tk_parent;
                tk_next_fd;
                tk_aspace;
                tk_brk;
                tk_cursor;
                tk_vmas = [];
                tk_pages = [];
                tk_fds = [];
              },
              (nv, np, nf) ))
       |+ (int, fun (tk, _) -> tk.tk_pid)
       |+ (int, fun (tk, _) -> tk.tk_parent)
       |+ (int, fun (tk, _) -> tk.tk_next_fd)
       |+ (int, fun (tk, _) -> tk.tk_aspace)
       |+ (int, fun (tk, _) -> tk.tk_brk)
       |+ (int, fun (tk, _) -> tk.tk_cursor)
       |+ (nat, fun (_, (n, _, _)) -> n)
       |+ (nat, fun (_, (_, n, _)) -> n)
       |+ (nat, fun (_, (_, _, n)) -> n)))
    (fun (tk, (nv, np, nf)) ->
      record (fun tk_vmas tk_pages tk_fds -> { tk with tk_vmas; tk_pages; tk_fds })
      |+ (rep nv (fun _ -> vma), fun tk -> tk.tk_vmas)
      |+ (rep np (fun _ -> line "g" (pair int fref)), fun tk -> tk.tk_pages)
      |+ (rep nf (fun _ -> fd), fun tk -> tk.tk_fds))
    (fun tk -> (tk, (List.length tk.tk_vmas, List.length tk.tk_pages, List.length tk.tk_fds)))

let image =
  record
    (fun cfg segments aux ptps kernel_root template roots tables pervcpu cpus (next_pid, next_as)
         buddy_blocks aspaces tasks dirs files ->
      {
        cfg;
        segments;
        aux;
        ptps;
        kernel_root;
        template;
        roots;
        tables;
        pervcpu;
        cpus;
        next_pid;
        next_as;
        buddy_blocks;
        aspaces;
        tasks;
        dirs;
        files;
      })
  |+ (line "cfg" config, fun t -> t.cfg)
  |+ (line "segments" (array (list nat int)), fun t -> t.segments)
  |+ ( array (dep (line "aux" nat) (fun n -> rep n (fun i -> line "k" (at i aux_kind))) List.length),
       fun t -> t.aux )
  |+ (counted "ptps" (line "p" (pair fref int)), fun t -> t.ptps)
  |+ (line "kernel_root" fref, fun t -> t.kernel_root)
  |+ ( counted "template"
         (line "s"
            (record (fun slot bits r -> (slot, bits, r))
            |+ (int, fun (slot, _, _) -> slot)
            |+ (hex64, fun (_, bits, _) -> bits)
            |+ (fref, fun (_, _, r) -> r))),
       fun t -> t.template )
  |+ (counted "roots" root, fun t -> t.roots)
  |+ (counted "tables" table, fun t -> t.tables)
  |+ (array (counted "pervcpu" vcpu_area), fun t -> t.pervcpu)
  |+ (array (counted "cpus" cpu), fun t -> t.cpus)
  |+ (line "kernel" (pair int int), fun t -> (t.next_pid, t.next_as))
  |+ (counted "buddy" (line "b" (pair int int)), fun t -> t.buddy_blocks)
  |+ (counted "aspaces" (line "a" (pair int fref)), fun t -> t.aspaces)
  |+ (counted "tasks" task, fun t -> t.tasks)
  |+ (counted "dirs" (line "d" hex_string), fun t -> t.dirs)
  |+ (counted "files" (line "F" (pair hex_string hex_string)), fun t -> t.files)

let header = Printf.sprintf "%s v%d" magic version
let checksum = line "checksum" (word (Printf.sprintf "%016Lx") (fun w -> Int64.of_string_opt ("0x" ^ w)))

let encode t =
  let p = String.concat "\n" (image.put t @ [ "" ]) in
  String.concat "\n" ((header :: checksum.put (fnv1a64 p)) @ [ p ])

(* The payload after the checksum line must be whole lines, and the
   files record its last. *)
let decode s =
  match String.split_on_char '\n' s with
  | [ "" ] -> Error Truncated
  | first :: _ when first <> header -> (
      match Scanf.sscanf_opt first "%s v%u%!" (fun m n -> (m, n)) with
      | Some (m, n) when m = magic && n <> version -> Error (Bad_version n)
      | _ -> Error Bad_magic)
  | _ :: sum :: payload -> (
      try
        let claimed, _ = checksum.get [ sum ] in
        if not (Int64.equal (fnv1a64 (String.concat "\n" payload)) claimed) then
          raise (Bad Bad_checksum);
        match image.get payload with
        | t, [ "" ] -> Ok t
        | _, [] -> Error Truncated
        | _, l :: _ -> Error (Malformed ("line after the files record: " ^ clip l))
      with Bad e -> Error e)
  | _ -> Error Truncated

let write_file path t =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (encode t))

let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> decode s
  | exception Sys_error _ -> Error Truncated
