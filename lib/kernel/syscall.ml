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

(* Fixed kernel-side work each syscall performs beyond the generic
   entry/exit path and beyond structural costs (copies, lookups) that
   the implementation charges as it goes. *)
let base_work = function
  | Getpid -> Hw.Cost.getpid_work
  | Read _ | Write _ -> 180.0
  | Open _ -> 400.0
  | Close _ -> 80.0
  | Stat _ | Fstat _ -> 250.0
  | Lseek _ -> 40.0
  | Fsync _ -> 600.0
  | Unlink _ -> 350.0
  | Mkdir _ -> 400.0
  | Mmap _ -> 450.0
  | Munmap _ -> 350.0
  | Mprotect _ -> 300.0
  | Brk _ -> 200.0
  | Fork -> Hw.Cost.fork_base
  | Execve -> Hw.Cost.execve_base
  | Exit _ -> Hw.Cost.exit_base
  | Pipe -> 400.0
  | Socket -> 500.0
  | Send _ | Recv _ -> 250.0
  | Sched_yield -> 50.0
  | Nanosleep _ -> 100.0

let name = function
  | Getpid -> "getpid"
  | Read _ -> "read"
  | Write _ -> "write"
  | Open _ -> "open"
  | Close _ -> "close"
  | Stat _ -> "stat"
  | Fstat _ -> "fstat"
  | Lseek _ -> "lseek"
  | Fsync _ -> "fsync"
  | Unlink _ -> "unlink"
  | Mkdir _ -> "mkdir"
  | Mmap _ -> "mmap"
  | Munmap _ -> "munmap"
  | Mprotect _ -> "mprotect"
  | Brk _ -> "brk"
  | Fork -> "fork"
  | Execve -> "execve"
  | Exit _ -> "exit"
  | Pipe -> "pipe"
  | Socket -> "socket"
  | Send _ -> "send"
  | Recv _ -> "recv"
  | Sched_yield -> "sched_yield"
  | Nanosleep _ -> "nanosleep"

(* The clock event a syscall's base work is charged to: ["sys_" ^ name],
   one literal per variant so dispatch builds no string. *)
let event = function
  | Getpid -> "sys_getpid"
  | Read _ -> "sys_read"
  | Write _ -> "sys_write"
  | Open _ -> "sys_open"
  | Close _ -> "sys_close"
  | Stat _ -> "sys_stat"
  | Fstat _ -> "sys_fstat"
  | Lseek _ -> "sys_lseek"
  | Fsync _ -> "sys_fsync"
  | Unlink _ -> "sys_unlink"
  | Mkdir _ -> "sys_mkdir"
  | Mmap _ -> "sys_mmap"
  | Munmap _ -> "sys_munmap"
  | Mprotect _ -> "sys_mprotect"
  | Brk _ -> "sys_brk"
  | Fork -> "sys_fork"
  | Execve -> "sys_execve"
  | Exit _ -> "sys_exit"
  | Pipe -> "sys_pipe"
  | Socket -> "sys_socket"
  | Send _ -> "sys_send"
  | Recv _ -> "sys_recv"
  | Sched_yield -> "sys_sched_yield"
  | Nanosleep _ -> "sys_nanosleep"
