(* A round-robin scheduler.  A context switch between tasks with
   different address spaces pays the platform's address-space switch
   (which is where PVM's hypercall-per-CR3-load shows up). *)

type t = {
  platform : Platform.t;
  queue : int Queue.t;  (** runnable pids *)
  mutable current : int option;
  mutable switches : int;
}

let create platform = { platform; queue = Queue.create (); current = None; switches = 0 }

let enqueue t pid = Queue.add pid t.queue
let current t = t.current
let switches t = t.switches

(* Switch to [pid] whose mm is [mm]; charges switch work + address
   space change. *)
let switch_to t pid (mm : Mm.t) =
  (match t.current with Some c when c = pid -> () | _ -> begin
      t.switches <- t.switches + 1;
      Hw.Clock.charge t.platform.Platform.clock "ctx_switch" Hw.Cost.ctx_switch_work;
      t.platform.Platform.as_switch (Mm.aspace mm)
    end);
  t.current <- Some pid

(* Pick the next runnable pid, if any (caller supplies mm lookup). *)
let pick_next t =
  match Queue.take_opt t.queue with
  | None -> None
  | Some pid -> Some pid

let yield t pid =
  enqueue t pid;
  pick_next t
