(* Faults the smoke run plants in a finished run's state to prove each
   state-reading gate can fail. *)

(* Splice an undeclared guest frame into the container's kernel root
   behind the KSM's back: the analysis scanner's I1 rule must fire. *)
let undeclared_ptp (c : Cki.Container.t) =
  let rogue = Kernel_model.Buddy.alloc (Cki.Container.buddy c) in
  let root = Cki.Ksm.kernel_root (Cki.Container.ksm c) in
  Hw.Phys_mem.write_entry
    (Hw.Machine.mem (Cki.Host.machine c.Cki.Container.host))
    ~pfn:root ~index:5
    (Hw.Pte.make ~pfn:rogue ~flags:{ Hw.Pte.default_flags with Hw.Pte.writable = true })

(* A clock event no layer claims. *)
let unmapped_event clock = Hw.Clock.count clock "bench_unmapped_event"
