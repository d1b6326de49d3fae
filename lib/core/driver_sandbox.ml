(* Future-work extension 1 (Section 9): sandboxing untrusted kernel
   drivers directly within ring 0.

   The same machinery that deprivileges a container guest kernel —
   a PKS domain + the E2 instruction-blocking extension + call gates —
   isolates a buggy/malicious driver inside the host kernel, avoiding
   the microkernel alternative of running the driver in ring 3 behind
   IPC.  The cost argument is quantified by [invoke] vs
   [invoke_microkernel_style] (per-call: two PKS switches vs two ring
   crossings + two address-space switches + IPC bookkeeping). *)

(* PKS key assigned to sandboxed driver domains.  One key per live
   driver domain; the kernel recycles keys as drivers unload, so the
   16-key limit bounds *concurrently loaded* sandboxed drivers, not
   total drivers. *)
let first_driver_key = 3

type fault = Memory_escape of Hw.Addr.va | Priv_instruction of Hw.Priv.t
[@@deriving show { with_path = false }]

type t = {
  name : string;
  key : int;
  clock : Hw.Clock.t;
  cpu : Hw.Cpu.t;
  driver_rights : Hw.Pks.rights;  (** PKRS while the driver runs *)
  heap : (Hw.Addr.va, int) Hashtbl.t;  (** driver-private pages (va -> pfn) *)
  mutable invocations : int;
  mutable faults : fault list;  (** newest first *)
  mutable dead : bool;  (** killed after a fault; calls fail fast *)
}

type registry = {
  mem : Hw.Phys_mem.t;
  reg_clock : Hw.Clock.t;
  mutable free_keys : int list;
  mutable loaded : t list;
}

exception No_free_keys

let create_registry machine =
  {
    mem = Hw.Machine.mem machine;
    reg_clock = Hw.Machine.clock machine;
    free_keys = List.init (Hw.Pks.num_keys - first_driver_key) (fun i -> first_driver_key + i);
    loaded = [];
  }

(* Load a driver into its own PKS domain: the driver gets full access
   to its own key only; every other domain (kernel data, other
   drivers) is no-access.  Mirrors the guest-kernel deprivileging of
   Section 4.1 at driver granularity. *)
let load registry ~name ~heap_pages =
  match registry.free_keys with
  | [] -> raise No_free_keys
  | key :: rest ->
      registry.free_keys <- rest;
      let cpu = Hw.Cpu.create registry.reg_clock in
      let driver_rights =
        Hw.Pks.make ~default:Hw.Pks.No_access
          [ (key, Hw.Pks.Read_write); (Hw.Pks.pkey_guest, Hw.Pks.Read_only) ]
      in
      let heap = Hashtbl.create 64 in
      for i = 0 to heap_pages - 1 do
        let pfn = Hw.Phys_mem.alloc registry.mem ~owner:Hw.Phys_mem.Host ~kind:Hw.Phys_mem.Data in
        Hashtbl.replace heap (0xd000_0000_0000 + (i * Hw.Addr.page_size)) pfn
      done;
      let t =
        { name; key; clock = registry.reg_clock; cpu; driver_rights; heap; invocations = 0;
          faults = []; dead = false }
      in
      registry.loaded <- t :: registry.loaded;
      t

let unload registry t =
  registry.loaded <- List.filter (fun d -> d != t) registry.loaded;
  registry.free_keys <- t.key :: registry.free_keys;
  Hashtbl.iter (fun _ pfn -> Hw.Phys_mem.free registry.mem pfn) t.heap;
  Hashtbl.reset t.heap;
  t.dead <- true

let loaded_count registry = List.length registry.loaded
let free_key_count registry = List.length registry.free_keys

(* Enter the driver domain, run [f] with a driver context, exit.  Two
   wrpkrs switches — the whole point of ring-0 sandboxing. *)
let invoke t f =
  if t.dead then Error (Memory_escape 0)
  else begin
    t.invocations <- t.invocations + 1;
    Hw.Clock.charge_n t.clock Hw.Cost.driver_gate 2;
    let saved = t.cpu.Hw.Cpu.pkrs in
    t.cpu.Hw.Cpu.pkrs <- t.driver_rights;
    let result = f t in
    t.cpu.Hw.Cpu.pkrs <- saved;
    Ok result
  end

(* The microkernel-style alternative, for the ablation bench: the
   driver lives in a ring-3 server; each call is an IPC round trip. *)
let invoke_microkernel_style t f =
  t.invocations <- t.invocations + 1;
  Hw.Clock.charge t.clock Hw.Cost.driver_ipc;
  f t

(* ------------------------------------------------------------------ *)
(* Driver-visible operations (used by driver bodies under [invoke])    *)
(* ------------------------------------------------------------------ *)

(* Touch driver-private memory: allowed. *)
let heap_write t va =
  if not (Hashtbl.mem t.heap (Hw.Addr.page_align_down va)) then
    failwith "Driver_sandbox.heap_write: not a driver page"
  else if Hw.Pks.allows t.cpu.Hw.Cpu.pkrs ~key:t.key Hw.Pks.Write then ()
  else assert false

(* Attempt to write kernel memory (any page outside the driver's key):
   the PKS check fails, the driver domain is killed. *)
let attempt_kernel_write t va =
  if Hw.Pks.allows t.cpu.Hw.Cpu.pkrs ~key:Hw.Pks.pkey_guest Hw.Pks.Write then `Escaped
  else begin
    t.faults <- Memory_escape va :: t.faults;
    t.dead <- true;
    `Killed
  end

(* Attempt a privileged instruction from the driver domain: extension
   E2 blocks it exactly as for guest kernels (PKRS != 0). *)
let attempt_priv t inst =
  t.cpu.Hw.Cpu.mode <- Hw.Cpu.Kernel;
  t.cpu.Hw.Cpu.pkrs <- t.driver_rights;
  match Hw.Cpu.exec_priv t.cpu inst with
  | Error (Hw.Cpu.Blocked_instruction _) ->
      t.faults <- Priv_instruction inst :: t.faults;
      t.cpu.Hw.Cpu.pkrs <- Hw.Pks.all_access;
      `Blocked
  | Error _ -> `Blocked
  | Ok () ->
      t.cpu.Hw.Cpu.pkrs <- Hw.Pks.all_access;
      if Hw.Priv.blocked_in_guest inst then `Escaped else `Harmless

let fault_count t = List.length t.faults
let invocation_count t = t.invocations
let is_dead t = t.dead
