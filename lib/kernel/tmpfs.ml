(* An in-memory filesystem with real byte contents.

   Stores regular-file data in growable byte buffers; directories are
   hash tables.  The SQLite and web-server workloads do genuine reads
   and writes through this, so syscall counts and copy sizes are
   structural. *)

type inode = {
  ino : int;
  mutable kind : kind;
  mutable nlink : int;
  mutable size : int;
}

and kind = Reg of Bytes.t ref * int ref (* storage, length *) | Dir of (string, inode) Hashtbl.t

type t = {
  root : inode;
  mutable next_ino : int;
  clock : Hw.Clock.t;
}

exception Not_found_path of string
exception Not_a_directory of string
exception Exists of string
exception Is_directory of string

let create clock =
  let root = { ino = 1; kind = Dir (Hashtbl.create 16); nlink = 2; size = 0 } in
  { root; next_ino = 2; clock }

let fresh_ino t =
  let i = t.next_ino in
  t.next_ino <- i + 1;
  i

let components path = List.filter (fun s -> s <> "" && s <> ".") (String.split_on_char '/' path)

(* Resolve [path]; charges one lookup component per step (dcache-ish). *)
let resolve t path =
  let parts = components path in
  List.fold_left
    (fun node name ->
      Hw.Clock.charge t.clock Hw.Cost.vfs_lookup_component;
      match node.kind with
      | Dir entries -> (
          match Hashtbl.find_opt entries name with
          | Some child -> child
          | None -> raise (Not_found_path path))
      | Reg _ -> raise (Not_a_directory path))
    t.root parts

let resolve_opt t path = match resolve t path with i -> Some i | exception Not_found_path _ -> None

let dirname_basename path =
  match List.rev (components path) with
  | [] -> invalid_arg "Tmpfs: empty path"
  | base :: rev_dir -> (String.concat "/" (List.rev rev_dir), base)

let parent_dir t path =
  let dir, base = dirname_basename path in
  let node = if dir = "" then t.root else resolve t dir in
  match node.kind with
  | Dir entries -> (entries, base)
  | Reg _ -> raise (Not_a_directory dir)

let mkdir t path =
  let entries, base = parent_dir t path in
  if Hashtbl.mem entries base then raise (Exists path);
  let node = { ino = fresh_ino t; kind = Dir (Hashtbl.create 8); nlink = 2; size = 0 } in
  Hashtbl.replace entries base node;
  node

let create_file t path =
  let entries, base = parent_dir t path in
  if Hashtbl.mem entries base then raise (Exists path);
  let node = { ino = fresh_ino t; kind = Reg (ref (Bytes.create 256), ref 0); nlink = 1; size = 0 } in
  Hashtbl.replace entries base node;
  node

let open_or_create t path =
  match resolve_opt t path with Some i -> i | None -> create_file t path

let unlink t path =
  let entries, base = parent_dir t path in
  match Hashtbl.find_opt entries base with
  | None -> raise (Not_found_path path)
  | Some { kind = Dir _; _ } -> raise (Is_directory path)
  | Some node ->
      node.nlink <- node.nlink - 1;
      Hashtbl.remove entries base

let ensure_capacity storage len needed =
  if needed > Bytes.length !storage then begin
    let cap = max needed (2 * Bytes.length !storage) in
    let b = Bytes.create cap in
    Bytes.blit !storage 0 b 0 !len;
    storage := b
  end

(* Write [src] at [off]; extends the file.  Returns bytes written. *)
let write t inode ~off src =
  match inode.kind with
  | Dir _ -> raise (Is_directory "write")
  | Reg (storage, len) ->
      let n = Bytes.length src in
      ensure_capacity storage len (off + n);
      Bytes.blit src 0 !storage off n;
      if off + n > !len then len := off + n;
      inode.size <- !len;
      Hw.Clock.charge_n t.clock Hw.Cost.file_copy n;
      n

(* Fill [buf] from the front with the bytes at [off]; returns the count
   (short at EOF). *)
let read_into t inode ~off buf =
  match inode.kind with
  | Dir _ -> raise (Is_directory "read")
  | Reg (storage, len) ->
      let n = min (Bytes.length buf) (max 0 (!len - off)) in
      Hw.Clock.charge_n t.clock Hw.Cost.file_copy n;
      if n > 0 then Bytes.blit !storage off buf 0 n;
      n

let truncate inode ~size =
  match inode.kind with
  | Dir _ -> raise (Is_directory "truncate")
  | Reg (storage, len) ->
      ensure_capacity storage len size;
      if size > !len then Bytes.fill !storage !len (size - !len) '\000';
      len := size;
      inode.size <- size

let size inode = inode.size
let ino inode = inode.ino
let is_dir inode = match inode.kind with Dir _ -> true | Reg _ -> false

let readdir inode =
  match inode.kind with
  | Reg _ -> raise (Not_a_directory "readdir")
  | Dir entries -> Hashtbl.fold (fun name _ acc -> name :: acc) entries [] |> List.sort String.compare
