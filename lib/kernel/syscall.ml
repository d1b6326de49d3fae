(* The syscall vocabulary exposed by the model kernel. *)

type t =
  | Getpid
  | Read of { fd : int; buf : Bytes.t }
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
  | Sched_yield
  | Nanosleep of float

type result =
  | Rint of int
  | Rstat of { size : int; ino : int; is_dir : bool }
  | Rpair of int * int
  | Runit
  | Rerr of string

(* The cost item of a syscall's base work, charged to ["sys_" ^ name]. *)
let cost : t -> Hw.Cost.item = function
  | Getpid -> Hw.Cost.sys_getpid
  | Read _ -> Hw.Cost.sys_read
  | Write _ -> Hw.Cost.sys_write
  | Open _ -> Hw.Cost.sys_open
  | Close _ -> Hw.Cost.sys_close
  | Stat _ -> Hw.Cost.sys_stat
  | Fstat _ -> Hw.Cost.sys_fstat
  | Lseek _ -> Hw.Cost.sys_lseek
  | Fsync _ -> Hw.Cost.sys_fsync
  | Unlink _ -> Hw.Cost.sys_unlink
  | Mkdir _ -> Hw.Cost.sys_mkdir
  | Mmap _ -> Hw.Cost.sys_mmap
  | Munmap _ -> Hw.Cost.sys_munmap
  | Mprotect _ -> Hw.Cost.sys_mprotect
  | Brk _ -> Hw.Cost.sys_brk
  | Fork -> Hw.Cost.sys_fork
  | Execve -> Hw.Cost.sys_execve
  | Exit _ -> Hw.Cost.sys_exit
  | Pipe -> Hw.Cost.sys_pipe
  | Socket -> Hw.Cost.sys_socket
  | Send _ -> Hw.Cost.sys_send
  | Recv _ -> Hw.Cost.sys_recv
  | Sched_yield -> Hw.Cost.sys_sched_yield
  | Nanosleep _ -> Hw.Cost.sys_nanosleep

(* The event name without its "sys_" prefix. *)
let name sc =
  let event = Hw.Cost.name (cost sc) in
  String.sub event 4 (String.length event - 4)
