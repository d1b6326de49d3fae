(** The syscall vocabulary exposed by the model kernel. *)

type t =
  | Getpid
  | Read of { fd : int; buf : Bytes.t }
      (** fill [buf] from the front; [Rint n] bytes read, 0 at EOF *)
  | Write of { fd : int; data : Bytes.t }
  | Open of { path : string; create : bool }
  | Close of int
  | Stat of string
  | Fstat of int
  | Lseek of { fd : int; pos : int }
  | Fsync of int
  | Unlink of string
  | Mkdir of string
  | Mmap of { pages : int; prot : Vma.prot }
  | Munmap of { addr : Hw.Addr.va; pages : int }
  | Mprotect of { addr : Hw.Addr.va; pages : int; prot : Vma.prot }
  | Brk of { delta_pages : int }
  | Fork
  | Execve
  | Exit of int
  | Pipe
  | Socket
  | Send of { fd : int; data : Bytes.t }
  | Recv of { fd : int; buf : Bytes.t }
      (** one frame into [buf], truncated to its length; [Rint n] *)
  | Sched_yield
  | Nanosleep of float

type result =
  | Rint of int
  | Rstat of { size : int; ino : int; is_dir : bool }
  | Rpair of int * int
  | Runit
  | Rerr of string

val cost : t -> Hw.Cost.item
(** The syscall's fixed kernel-side work beyond the generic entry/exit
    path and the structural costs (copies, lookups) charged as it goes;
    its event is ["sys_" ^ name sc]. *)

val name : t -> string
(** The syscall's name: its cost's event without the ["sys_"] prefix. *)
