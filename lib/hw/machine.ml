(* The physical machine: memory, CPUs, the interrupt fabric, and the
   simulated clock that every component charges. *)

type t = {
  mem : Phys_mem.t;
  cpus : Cpu.t array;
  clock : Clock.t;
  idt : Idt.t;  (** host IDT (containers get their own, KSM-resident) *)
  mutable pending_irqs : (int * int) list;  (** (cpu, vector) fifo, newest last *)
  mutable next_pcid : int;
}

let create ?(cpus = 4) ?(mem_mib = 512) () =
  let clock = Clock.create () in
  {
    mem = Phys_mem.create ~frames:(mem_mib * 256);
    cpus = Array.init cpus (fun id -> Cpu.create ~id clock);
    clock;
    idt = Idt.create ();
    pending_irqs = [];
    next_pcid = 1;
  }

let mem t = t.mem
let clock t = t.clock
let cpu t i = t.cpus.(i)

(* Allocate a fresh PCID; each secure container and the host kernel get
   distinct PCIDs so invlpg is confined (Section 4.1). *)
let fresh_pcid t =
  let p = t.next_pcid in
  t.next_pcid <- p + 1;
  p

let raise_irq t ~cpu ~vector = t.pending_irqs <- t.pending_irqs @ [ (cpu, vector) ]

let take_irq t ~cpu =
  let rec split acc = function
    | [] -> None
    | (c, v) :: rest when c = cpu ->
        t.pending_irqs <- List.rev_append acc rest;
        Some v
    | x :: rest -> split (x :: acc) rest
  in
  split [] t.pending_irqs

let has_pending t ~cpu = List.exists (fun (c, _) -> c = cpu) t.pending_irqs
