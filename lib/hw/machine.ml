(* The physical machine: memory, CPUs, and the simulated clock that
   every component charges. *)

type t = {
  mem : Phys_mem.t;
  cpus : Cpu.t array;
  clock : Clock.t;
  mutable next_pcid : int;
}

let create ?(cpus = 4) ?(mem_mib = 512) () =
  let clock = Clock.create () in
  {
    mem = Phys_mem.create ~frames:(mem_mib * 256);
    cpus = Array.init cpus (fun id -> Cpu.create ~id clock);
    clock;
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
