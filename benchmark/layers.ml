(* Which layer each simulated-clock event belongs to, named after the
   repo's modules and following one request's path: guest kernel
   ([kernel]) -> CKI gates, KSM and host slow paths ([core]) -> host
   I/O plane ([ioplane]) -> switch/fabric.  The CPU/MMU model is [hw];
   snapshot capture/restore is [snapshot]; the migration fabric is
   [migrate].

   Time advanced without an event name is split by the caller into
   [idle] (the benchmark's own jumps to the next arrival, or fabric
   clock synchronisation) and [workloads] (guest application compute). *)

let layers = [ "hw"; "kernel"; "core"; "ioplane"; "snapshot"; "migrate"; "workloads"; "idle" ]

let table =
  [
    ("hw", [ "tlb_hit"; "tlb_miss_walk"; "invlpg"; "cr3_switch"; "priv_inst_blocked"; "syscall_entry_exit" ]);
    ( "kernel",
      [
        "pf_service"; "cow_break_copy"; "file_copy"; "vfs_lookup"; "net_wire"; "pipe_copy"; "irq";
        "ctx_switch"; "fork_page_copy"; "signal_dispatch"; "af_unix_overhead"; "execve_teardown";
        (* guest-side virtio frontend: ring posts, kicks, copies *)
        "virtio_copy"; "virtio_post"; "virtio_event_idx"; "virtio_doorbell"; "virtio_ring_init";
        "virtio_tx_stall";
      ] );
    ( "core",
      [
        (* the CKI container's syscall path is wired in lib/core *)
        "syscall"; "inkernel_syscall"; "cki_hypercall"; "cki_irq_exit"; "ksm_call"; "gate_ibrs";
        "gate_pti"; "doorbell_write"; "host_irq_handler"; "virq_inject"; "host_ipi"; "host_timer_setup";
        "guest_kernel_boot"; "snapshot_restore_table"; "nested_irq_extra"; "driver_gate"; "driver_ipc";
      ] );
    (* host-side device service: backend passes and block media *)
    ("ioplane", [ "virtio_service"; "blk_io"; "switch_forward" ]);
    ("snapshot", [ "snapshot_capture_table"; "snapshot_cow_map"; "snapshot_restore_frame" ]);
    ("migrate", [ "fabric_transfer" ]);
  ]

let layer_of name =
  if String.starts_with ~prefix:"sys_" name then Some "kernel"
  else List.find_map (fun (layer, names) -> if List.mem name names then Some layer else None) table

(* Every event a clock has ever seen must map to a layer, so a new
   cost name cannot silently drop out of the per-layer sums. *)
let unmapped clocks =
  List.sort_uniq compare
    (List.concat_map
       (fun c -> List.filter_map (fun (e, _) -> if layer_of e = None then Some e else None) (Hw.Clock.events c))
       clocks)

(* Charged time per event, summed over [clocks]. *)
type snapshot = { at : float; spent : (string * float) list; counts : (string * int) list }

let snapshot clocks =
  let events = List.concat_map Hw.Clock.events clocks in
  let names = List.sort_uniq compare (List.map fst events) in
  {
    at = List.fold_left (fun a c -> a +. Hw.Clock.now c) 0.0 clocks;
    spent =
      List.map (fun e -> (e, List.fold_left (fun a c -> a +. Hw.Clock.spent_on c e) 0.0 clocks)) names;
    counts = List.map (fun e -> (e, List.fold_left (fun a c -> a + Hw.Clock.occurrences c e) 0 clocks)) names;
  }

let lookup l k ~zero = Option.value (List.assoc_opt k l) ~default:zero

let count_delta ~before ~after name =
  lookup after.counts name ~zero:0 - lookup before.counts name ~zero:0

(* Simulated ns per layer between two snapshots.  [idle_ns] is the
   part of the unnamed remainder the caller knows was idle; the rest
   of it is guest application compute.  Without [idle_ns] the whole
   remainder is idle. *)
let sim_ns ?idle_ns ~before ~after () =
  let per = Hashtbl.create 8 in
  List.iter
    (fun (e, ns) ->
      match layer_of e with
      | Some l ->
          let d = ns -. lookup before.spent e ~zero:0.0 in
          Hashtbl.replace per l (d +. Option.value (Hashtbl.find_opt per l) ~default:0.0)
      | None -> ())
    after.spent;
  let rest = after.at -. before.at -. Hashtbl.fold (fun _ v a -> a +. v) per 0.0 in
  let idle = Option.value idle_ns ~default:rest in
  Hashtbl.replace per "idle" idle;
  Hashtbl.replace per "workloads" (rest -. idle);
  List.map (fun l -> (l, Option.value (Hashtbl.find_opt per l) ~default:0.0)) layers
