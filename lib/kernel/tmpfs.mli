(** An in-memory filesystem with real byte contents.

    Regular-file data lives in growable byte buffers; directories are
    hash tables. The SQLite and web-server workloads do genuine reads
    and writes through this, so syscall counts and copy sizes are
    structural. *)

type inode

type t

exception Not_found_path of string
exception Not_a_directory of string
exception Exists of string
exception Is_directory of string

val create : Hw.Clock.t -> t

val resolve : t -> string -> inode
(** Path lookup; charges one dcache-ish component cost per step.
    @raise Not_found_path / Not_a_directory. *)

val resolve_opt : t -> string -> inode option
val mkdir : t -> string -> inode
val create_file : t -> string -> inode
val open_or_create : t -> string -> inode
val unlink : t -> string -> unit

val write : t -> inode -> off:int -> Bytes.t -> int
(** Write at an offset, extending the file; charges per-byte copy. *)

val read_into : t -> inode -> off:int -> Bytes.t -> int
(** Fill the buffer from the front with the file's bytes at [off];
    returns the count, short at EOF (0 at or past it). Charges the
    per-byte copy of the count. *)

val truncate : inode -> size:int -> unit
(** Shrink or zero-extend. *)

val size : inode -> int
val ino : inode -> int
val is_dir : inode -> bool
val readdir : inode -> string list
