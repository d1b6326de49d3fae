(* Tests for Hw: TLB, PKS, privileged instructions, CPU, IDT, EPT,
   clock, probe sink, machine. *)

open Alcotest

let check_int = check int
let check_bool = check bool
let check_string = check string

(* ------------------------------- Tlb ------------------------------ *)

let entry pfn = { Hw.Tlb.pfn; flags = Hw.Pte.default_flags; level = 1 }

let test_tlb_hit_miss () =
  let t = Hw.Tlb.create ~capacity:4 () in
  check_bool "cold miss" true (Hw.Tlb.lookup t ~pcid:1 0x1000 = None);
  Hw.Tlb.insert t ~pcid:1 ~va:0x1000 (entry 7);
  (match Hw.Tlb.lookup t ~pcid:1 0x1abc with
  | Some e -> check_int "hit pfn" 7 e.Hw.Tlb.pfn
  | None -> fail "expected hit");
  check_int "hits" 1 (Hw.Tlb.hits t);
  check_int "misses" 1 (Hw.Tlb.misses t)

let test_tlb_pcid_isolation () =
  let t = Hw.Tlb.create () in
  Hw.Tlb.insert t ~pcid:1 ~va:0x1000 (entry 7);
  check_bool "other pcid misses" true (Hw.Tlb.lookup t ~pcid:2 0x1000 = None);
  (* invlpg in pcid 2 must not remove pcid 1's entry *)
  Hw.Tlb.invlpg t ~pcid:2 0x1000;
  check_bool "pcid 1 survives" true (Hw.Tlb.lookup t ~pcid:1 0x1000 <> None);
  Hw.Tlb.invlpg t ~pcid:1 0x1000;
  check_bool "pcid 1 flushed" true (Hw.Tlb.lookup t ~pcid:1 0x1000 = None)

let test_tlb_flush_pcid () =
  let t = Hw.Tlb.create () in
  Hw.Tlb.insert t ~pcid:1 ~va:0x1000 (entry 1);
  Hw.Tlb.insert t ~pcid:1 ~va:0x2000 (entry 2);
  Hw.Tlb.insert t ~pcid:2 ~va:0x3000 (entry 3);
  Hw.Tlb.flush_pcid t ~pcid:1;
  check_int "pcid1 empty" 0 (Hw.Tlb.entries_for t ~pcid:1);
  check_int "pcid2 intact" 1 (Hw.Tlb.entries_for t ~pcid:2);
  Hw.Tlb.flush_all t;
  check_int "all empty" 0 (Hw.Tlb.size t)

let test_capacity_bound () =
  let t = Hw.Tlb.create ~capacity:8 () in
  for i = 0 to 63 do
    Hw.Tlb.insert t ~pcid:1 ~va:(i * 4096) (entry i)
  done;
  check_bool "bounded" true (Hw.Tlb.size t <= 8)

(* A translation is one packed int key: the largest pcid and a vpn
   just under 2^36 decode intact, and invlpg in one pcid leaves the
   same vpn of another pcid in place. *)
let test_tlb_packed_keys () =
  let t = Hw.Tlb.create () in
  let top_vpn = (1 lsl 36) - 1 in
  let va = top_vpn * 4096 in
  Hw.Tlb.insert t ~pcid:4095 ~va (entry 9);
  Hw.Tlb.insert t ~pcid:0 ~va (entry 8);
  let decoded =
    Hw.Tlb.fold t (fun acc ~pcid ~vpn e -> (pcid, vpn, e.Hw.Tlb.pfn) :: acc) [] |> List.sort compare
  in
  check_bool "fold decodes pcid and vpn" true (decoded = [ (0, top_vpn, 8); (4095, top_vpn, 9) ]);
  Hw.Tlb.invlpg t ~pcid:0 va;
  check_bool "pcid 0 flushed" true (Hw.Tlb.lookup t ~pcid:0 va = None);
  (match Hw.Tlb.lookup t ~pcid:4095 va with
  | Some e -> check_int "pcid 4095 survives" 9 e.Hw.Tlb.pfn
  | None -> fail "pcid 4095 lost its entry");
  check_int "one entry of pcid 4095" 1 (Hw.Tlb.entries_for t ~pcid:4095);
  Hw.Tlb.flush_pcid t ~pcid:4095;
  check_int "flushed" 0 (Hw.Tlb.size t)

(* Invalidating and refilling one page must not let later inserts
   outgrow the capacity: eviction skips the slots invlpg left behind. *)
let test_capacity_after_invlpg () =
  let t = Hw.Tlb.create ~capacity:4 () in
  Hw.Tlb.insert t ~pcid:1 ~va:0 (entry 0);
  for _ = 1 to 1000 do
    Hw.Tlb.invlpg t ~pcid:1 0;
    Hw.Tlb.insert t ~pcid:1 ~va:0 (entry 0)
  done;
  for i = 1 to 11 do
    Hw.Tlb.insert t ~pcid:1 ~va:(i * 4096) (entry i)
  done;
  check_bool "bounded" true (Hw.Tlb.size t <= 4);
  check_int "newest four kept" 4 (Hw.Tlb.entries_for t ~pcid:1);
  for i = 8 to 11 do
    check_bool (Printf.sprintf "page %d cached" i) true (Hw.Tlb.lookup t ~pcid:1 (i * 4096) <> None)
  done

(* A re-inserted page counts from its new insert: eviction takes the
   least recently inserted live entry, not the page's stale slot. *)
let test_eviction_order () =
  let t = Hw.Tlb.create ~capacity:4 () in
  let cached i = Hw.Tlb.lookup t ~pcid:1 (i * 4096) <> None in
  for i = 0 to 3 do
    Hw.Tlb.insert t ~pcid:1 ~va:(i * 4096) (entry i)
  done;
  Hw.Tlb.invlpg t ~pcid:1 0;
  Hw.Tlb.insert t ~pcid:1 ~va:0 (entry 0);
  Hw.Tlb.insert t ~pcid:1 ~va:(4 * 4096) (entry 4);
  check_bool "refilled page kept" true (cached 0);
  check_bool "oldest live evicted" false (cached 1);
  Hw.Tlb.flush_pcid t ~pcid:2;
  Hw.Tlb.insert t ~pcid:1 ~va:(5 * 4096) (entry 5);
  check_bool "next oldest evicted" false (cached 2);
  check_bool "others kept" true (cached 0 && cached 3 && cached 4 && cached 5);
  check_int "full" 4 (Hw.Tlb.size t)

let test_tlb_huge_entry () =
  let t = Hw.Tlb.create () in
  Hw.Tlb.insert t ~pcid:1 ~va:0x40000000 { Hw.Tlb.pfn = 99; flags = Hw.Pte.default_flags; level = 2 };
  (match Hw.Tlb.lookup t ~pcid:1 (0x40000000 + (17 * 4096)) with
  | Some e -> check_int "huge covers 2M" 99 e.Hw.Tlb.pfn
  | None -> fail "expected huge hit")

(* ------------------------------- Pks ------------------------------ *)

let test_pks_make_perm () =
  let r = Hw.Pks.make [ (1, Hw.Pks.No_access); (2, Hw.Pks.Read_only) ] in
  check_bool "key0 rw" true (Hw.Pks.perm_of r ~key:0 = Hw.Pks.Read_write);
  check_bool "key1 none" true (Hw.Pks.perm_of r ~key:1 = Hw.Pks.No_access);
  check_bool "key2 ro" true (Hw.Pks.perm_of r ~key:2 = Hw.Pks.Read_only);
  check_bool "all access is zero" true (Hw.Pks.all_access = 0)

let test_pks_allows () =
  let r = Hw.Pks.pkrs_guest in
  check_bool "guest reads own pages" true (Hw.Pks.allows r ~key:Hw.Pks.pkey_guest Hw.Pks.Read);
  check_bool "guest writes own pages" true (Hw.Pks.allows r ~key:Hw.Pks.pkey_guest Hw.Pks.Write);
  check_bool "guest reads PTPs" true (Hw.Pks.allows r ~key:Hw.Pks.pkey_ptp Hw.Pks.Read);
  check_bool "guest cannot write PTPs" false (Hw.Pks.allows r ~key:Hw.Pks.pkey_ptp Hw.Pks.Write);
  check_bool "guest cannot read KSM" false (Hw.Pks.allows r ~key:Hw.Pks.pkey_ksm Hw.Pks.Read);
  check_bool "ksm rights unrestricted" true
    (Hw.Pks.allows Hw.Pks.pkrs_ksm ~key:Hw.Pks.pkey_ksm Hw.Pks.Write)

let prop_pks_roundtrip =
  QCheck.Test.make ~name:"pks make/perm_of roundtrip" ~count:200
    QCheck.(pair (int_bound 15) (int_bound 2))
    (fun (key, p) ->
      let perm = match p with 0 -> Hw.Pks.Read_write | 1 -> Hw.Pks.Read_only | _ -> Hw.Pks.No_access in
      let r = Hw.Pks.make [ (key, perm) ] in
      Hw.Pks.perm_of r ~key = perm)

(* ------------------------------ Priv ------------------------------ *)

let test_priv_policy_matches_table3 () =
  (* Spot-check the policy rows of Table 3. *)
  let blocked = Hw.Priv.blocked_in_guest in
  check_bool "lidt blocked" true (blocked Hw.Priv.Lidt);
  check_bool "wrmsr blocked" true (blocked (Hw.Priv.Wrmsr 0));
  check_bool "read cr harmless" false (blocked (Hw.Priv.Mov_from_cr 0));
  check_bool "mov cr3 blocked" true (blocked Hw.Priv.Mov_to_cr3);
  check_bool "clac allowed" false (blocked Hw.Priv.Clac);
  check_bool "invlpg allowed" false (blocked (Hw.Priv.Invlpg 0));
  check_bool "invpcid blocked" true (blocked Hw.Priv.Invpcid);
  check_bool "swapgs allowed" false (blocked Hw.Priv.Swapgs);
  check_bool "sysret allowed" false (blocked Hw.Priv.Sysret);
  check_bool "iret blocked" true (blocked Hw.Priv.Iret);
  check_bool "hlt allowed" false (blocked Hw.Priv.Hlt);
  check_bool "cli blocked" true (blocked Hw.Priv.Cli);
  check_bool "out blocked" true (blocked (Hw.Priv.Out_port 0));
  check_bool "wrpkrs allowed" false (blocked (Hw.Priv.Wrpkrs 0))

let test_priv_virtualization_consistency () =
  (* Every blocked instruction must be virtualized by some non-native
     mechanism; allowed ones are Native (or unused). *)
  List.iter
    (fun inst ->
      let v = Hw.Priv.virtualized_as inst in
      if Hw.Priv.blocked_in_guest inst then
        check_bool (Hw.Priv.mnemonic inst ^ " has replacement") true (v <> Hw.Priv.Native)
      else
        check_bool (Hw.Priv.mnemonic inst ^ " stays native") true
          (v = Hw.Priv.Native || v = Hw.Priv.Hypercall (* hlt pauses via hypercall *)))
    Hw.Priv.all_examples

(* ------------------------------- Cpu ------------------------------ *)

let mk_cpu () = Hw.Cpu.create (Hw.Clock.create ())

let test_cpu_blocks_in_guest () =
  let cpu = mk_cpu () in
  List.iter
    (fun inst ->
      (* reset per instruction: sysret drops to user mode *)
      cpu.Hw.Cpu.mode <- Hw.Cpu.Kernel;
      cpu.Hw.Cpu.pkrs <- Hw.Pks.pkrs_guest;
      match Hw.Cpu.exec_priv cpu inst with
      | Error (Hw.Cpu.Blocked_instruction _) ->
          check_bool (Hw.Priv.mnemonic inst) true (Hw.Priv.blocked_in_guest inst)
      | Ok () -> check_bool (Hw.Priv.mnemonic inst) false (Hw.Priv.blocked_in_guest inst)
      | Error e -> fail (Hw.Cpu.show_fault e))
    Hw.Priv.all_examples

(* Every gate crossing runs [exec_priv]: its unblocked path, the
   clock charge of an [invlpg] included, allocates nothing. *)
let test_cpu_exec_priv_allocates_nothing () =
  let clock = Hw.Clock.create () in
  let cpu = Hw.Cpu.create clock in
  cpu.Hw.Cpu.mode <- Hw.Cpu.Kernel;
  cpu.Hw.Cpu.pkrs <- Hw.Pks.pkrs_guest;
  let invlpg = Hw.Priv.Invlpg 0x4000 and swapgs = Hw.Priv.Swapgs in
  let run () =
    for _ = 1 to 1000 do
      Hw.Cpu.exec_priv_exn cpu invlpg;
      Hw.Cpu.exec_priv_exn cpu swapgs
    done
  in
  (* The first charge of a slot may grow the clock's arrays. *)
  run ();
  let before = Gc.minor_words () in
  run ();
  let words = Gc.minor_words () -. before in
  check (float 0.) "minor words over 2,000 calls" 0. words;
  check_int "every invlpg charged" 2000 (Hw.Clock.occurrences clock "invlpg");
  check_int "guest kernel mode kept" Hw.Pks.pkrs_guest cpu.Hw.Cpu.pkrs

let test_cpu_monitor_mode_unrestricted () =
  let cpu = mk_cpu () in
  List.iter
    (fun inst ->
      cpu.Hw.Cpu.mode <- Hw.Cpu.Kernel;
      cpu.Hw.Cpu.pkrs <- Hw.Pks.all_access;
      match Hw.Cpu.exec_priv cpu inst with
      | Ok () -> ()
      | Error e -> fail (Hw.Priv.mnemonic inst ^ ": " ^ Hw.Cpu.show_fault e))
    Hw.Priv.all_examples

let test_cpu_user_mode_faults () =
  let cpu = mk_cpu () in
  cpu.Hw.Cpu.mode <- Hw.Cpu.User;
  match Hw.Cpu.exec_priv cpu Hw.Priv.Hlt with
  | Error (Hw.Cpu.Not_kernel_mode _) -> ()
  | _ -> fail "expected ring-3 #GP"

let test_cpu_wrpkrs_swapgs () =
  let cpu = mk_cpu () in
  Hw.Cpu.exec_priv_exn cpu (Hw.Priv.Wrpkrs Hw.Pks.pkrs_guest);
  check_int "pkrs written" Hw.Pks.pkrs_guest cpu.Hw.Cpu.pkrs;
  cpu.Hw.Cpu.gs_base <- 1;
  cpu.Hw.Cpu.kernel_gs_base <- 2;
  Hw.Cpu.exec_priv_exn cpu Hw.Priv.Swapgs;
  check_int "gs swapped" 2 cpu.Hw.Cpu.gs_base;
  check_int "kernel_gs swapped" 1 cpu.Hw.Cpu.kernel_gs_base

let test_cpu_sysret_if_pinning () =
  let cpu = mk_cpu () in
  (* Native kernel (pkrs=0) may sysret with IF=0. *)
  cpu.Hw.Cpu.if_flag <- false;
  Hw.Cpu.exec_priv_exn cpu Hw.Priv.Sysret;
  check_bool "native keeps IF" false cpu.Hw.Cpu.if_flag;
  (* Guest kernel (pkrs!=0): IF forced on (extension E3). *)
  cpu.Hw.Cpu.mode <- Hw.Cpu.Kernel;
  cpu.Hw.Cpu.pkrs <- Hw.Pks.pkrs_guest;
  cpu.Hw.Cpu.if_flag <- false;
  Hw.Cpu.exec_priv_exn cpu Hw.Priv.Sysret;
  check_bool "guest IF pinned on" true cpu.Hw.Cpu.if_flag;
  check_bool "in user mode" true (cpu.Hw.Cpu.mode = Hw.Cpu.User)

let test_cpu_iret_restores_pkrs () =
  let cpu = mk_cpu () in
  cpu.Hw.Cpu.pkrs <- Hw.Pks.pkrs_guest;
  Hw.Cpu.hw_interrupt_entry cpu ~pks_switch:true;
  check_int "pkrs zeroed on hw intr" Hw.Pks.all_access cpu.Hw.Cpu.pkrs;
  check_bool "IF off in handler" false cpu.Hw.Cpu.if_flag;
  Hw.Cpu.exec_priv_exn cpu Hw.Priv.Iret;
  check_int "pkrs restored" Hw.Pks.pkrs_guest cpu.Hw.Cpu.pkrs

let test_cpu_access_checks () =
  let clock = Hw.Clock.create () in
  let cpu = Hw.Cpu.create clock in
  let m = Hw.Phys_mem.create ~frames:4096 in
  let pt = Hw.Page_table.create m ~owner:Hw.Phys_mem.Host in
  ignore
    (Hw.Page_table.map pt ~va:0x1000 ~pfn:10
       ~flags:{ Hw.Pte.default_flags with user = true } ());
  ignore
    (Hw.Page_table.map pt ~va:0x2000 ~pfn:11
       ~flags:{ Hw.Pte.default_flags with user = false; pkey = Hw.Pks.pkey_ksm } ());
  (* user mode reads user page *)
  cpu.Hw.Cpu.mode <- Hw.Cpu.User;
  (match Hw.Cpu.access cpu pt ~va:0x1234 ~access_kind:Hw.Pks.Read () with
  | Ok pa -> check_int "user pa" ((10 * 4096) lor 0x234) pa
  | Error e -> fail (Hw.Cpu.show_fault e));
  (* user mode cannot touch supervisor page *)
  (match Hw.Cpu.access cpu pt ~va:0x2000 ~access_kind:Hw.Pks.Read () with
  | Error (Hw.Cpu.Priv_page_violation _) -> ()
  | _ -> fail "expected U/K violation");
  (* guest kernel (pkrs_guest) cannot touch pkey_ksm page *)
  cpu.Hw.Cpu.mode <- Hw.Cpu.Kernel;
  cpu.Hw.Cpu.pkrs <- Hw.Pks.pkrs_guest;
  (match Hw.Cpu.access cpu pt ~va:0x2000 ~access_kind:Hw.Pks.Read () with
  | Error (Hw.Cpu.Pks_violation { key; _ }) -> check_int "ksm key" Hw.Pks.pkey_ksm key
  | _ -> fail "expected PKS violation");
  (* monitor rights pass *)
  cpu.Hw.Cpu.pkrs <- Hw.Pks.all_access;
  (match Hw.Cpu.access cpu pt ~va:0x2000 ~access_kind:Hw.Pks.Write () with
  | Ok _ -> ()
  | Error e -> fail (Hw.Cpu.show_fault e));
  (* unmapped *)
  match Hw.Cpu.access cpu pt ~va:0x999000 ~access_kind:Hw.Pks.Read () with
  | Error (Hw.Cpu.Not_present _) -> ()
  | _ -> fail "expected not present"

let test_cpu_access_uses_tlb () =
  let clock = Hw.Clock.create () in
  let cpu = Hw.Cpu.create clock in
  let m = Hw.Phys_mem.create ~frames:4096 in
  let pt = Hw.Page_table.create m ~owner:Hw.Phys_mem.Host in
  ignore (Hw.Page_table.map pt ~va:0x1000 ~pfn:10 ~flags:{ Hw.Pte.default_flags with user = true } ());
  ignore (Hw.Cpu.access cpu pt ~va:0x1000 ~access_kind:Hw.Pks.Read ());
  let walks = Hw.Clock.occurrences clock "tlb_miss_walk" in
  ignore (Hw.Cpu.access cpu pt ~va:0x1000 ~access_kind:Hw.Pks.Read ());
  check_int "second access: no extra walk" walks (Hw.Clock.occurrences clock "tlb_miss_walk");
  check_bool "tlb hit recorded" true (Hw.Clock.occurrences clock "tlb_hit" >= 1)

(* ------------------------------- Idt ------------------------------ *)

let test_idt_lock () =
  let idt = Hw.Idt.create () in
  Hw.Idt.set idt
    { Hw.Idt.vector = 32; handler = "h"; ist = Some 1; pks_switch = true; user_invocable = false };
  check_bool "installed" true (Hw.Idt.get idt 32 <> None);
  Hw.Idt.lock idt;
  check_raises "locked" (Invalid_argument "Idt.set: IDT locked") (fun () ->
      Hw.Idt.set idt
        { Hw.Idt.vector = 33; handler = "x"; ist = None; pks_switch = false; user_invocable = false })

let test_idt_delivery_pks_switch () =
  let idt = Hw.Idt.create () in
  Hw.Idt.set idt
    { Hw.Idt.vector = 32; handler = "gate"; ist = Some 1; pks_switch = true; user_invocable = false };
  let cpu = mk_cpu () in
  cpu.Hw.Cpu.pkrs <- Hw.Pks.pkrs_guest;
  ignore (Hw.Idt.deliver idt cpu ~kind:Hw.Idt.Hardware 32);
  check_int "hardware delivery zeroes pkrs" Hw.Pks.all_access cpu.Hw.Cpu.pkrs;
  (* Software int leaves PKRS alone — the anti-forgery property. *)
  let cpu2 = mk_cpu () in
  cpu2.Hw.Cpu.pkrs <- Hw.Pks.pkrs_guest;
  ignore (Hw.Idt.deliver idt cpu2 ~kind:Hw.Idt.Software 32);
  check_int "software int keeps pkrs" Hw.Pks.pkrs_guest cpu2.Hw.Cpu.pkrs

(* ------------------------------- Ept ------------------------------ *)

let test_ept_map_translate () =
  let m = Hw.Phys_mem.create ~frames:4096 in
  let ept = Hw.Ept.create m ~huge:false in
  Hw.Ept.map ept ~gfn:5 ~hfn:500;
  check_int "translate" ((500 * 4096) lor 0x123) (Hw.Ept.translate ept ((5 * 4096) lor 0x123));
  (match Hw.Ept.translate ept (99 * 4096) with
  | exception Hw.Ept.Ept_violation { gpa } -> check_int "violation gpa" (99 * 4096) gpa
  | _ -> fail "expected EPT violation");
  check_int "violations counted" 1 (Hw.Ept.violations ept);
  check_int "2d walk refs" 24 (Hw.Ept.walk_refs ept)

let test_ept_huge () =
  let m = Hw.Phys_mem.create ~frames:4096 in
  let ept = Hw.Ept.create m ~huge:true in
  Hw.Ept.map_huge ept ~gfn:512 ~hfn:1024;
  check_int "huge translate" ((1024 * 4096) + (5 * 4096)) (Hw.Ept.translate ept ((517 * 4096)));
  check_int "huge walk refs" 15 (Hw.Ept.walk_refs ept)

(* ------------------------------ Clock ----------------------------- *)

let test_clock_accounting () =
  let c = Hw.Clock.create () in
  Hw.Clock.charge c Hw.Cost.tlb_hit;
  Hw.Clock.charge_n c Hw.Cost.walk_mem_ref 4;
  Hw.Clock.charge c Hw.Cost.tlb_hit;
  Hw.Clock.advance c 2.0;
  check_bool "now" true (Hw.Clock.now c = 60.0);
  check_int "occurrences" 2 (Hw.Clock.occurrences c "tlb_hit");
  check_bool "spent" true (Hw.Clock.spent_on c "tlb_hit" = 2.0);
  check_int "a scaled charge is one occurrence" 1 (Hw.Clock.occurrences c "tlb_miss_walk");
  check_bool "of n units" true (Hw.Clock.spent_on c "tlb_miss_walk" = 56.0);
  Hw.Clock.charge_sized c Hw.Cost.switch_forward 100;
  check_bool "sized: base plus n units" true
    (Hw.Clock.spent_on c "switch_forward" = 250.0 +. (float_of_int 100 *. 0.03));
  let (), d = Hw.Clock.timed c (fun () -> Hw.Clock.charge c Hw.Cost.cr3_switch) in
  check_bool "timed" true (d = 74.0);
  check_string "an item carries its event" "cr3_switch" (Hw.Cost.name Hw.Cost.cr3_switch)

let check_events = check (list (pair string int))

(* More names than the initial slot capacity: every name keeps its own
   count, and charged items keep their time, across the growth. *)
let test_clock_many_names () =
  let c = Hw.Clock.create () in
  let n = 200 in
  Hw.Clock.charge c Hw.Cost.tlb_hit;
  for _ = 1 to 2 do
    for i = 0 to n - 1 do
      Hw.Clock.count c (Printf.sprintf "ev%03d" i)
    done
  done;
  Hw.Clock.count c "ev000";
  Hw.Clock.charge c Hw.Cost.tlb_hit;
  check_int "distinct events" (n + 1) (List.length (Hw.Clock.events c));
  check_int "first name" 3 (Hw.Clock.occurrences c "ev000");
  check_int "last name" 2 (Hw.Clock.occurrences c "ev199");
  check_bool "counts take no time" true (Hw.Clock.spent_on c "ev150" = 0.0);
  check_bool "spent after growth" true (Hw.Clock.spent_on c "tlb_hit" = 2.0);
  check_bool "now" true (Hw.Clock.now c = 2.0)

(* Queries never create a slot. *)
let test_clock_unseen_queries () =
  let c = Hw.Clock.create () in
  Hw.Clock.charge c Hw.Cost.cr3_switch;
  check_int "unseen occurrences" 0 (Hw.Clock.occurrences c "never");
  check_bool "unseen spent" true (Hw.Clock.spent_on c "never" = 0.0);
  check_int "registered, never recorded here" 0 (Hw.Clock.occurrences c "tlb_hit");
  check_events "query adds nothing" [ ("cr3_switch", 1) ] (Hw.Clock.events c)

(* Items of one name share its counter: the page-fault service of two
   backends lands in one "pf_service" count and one sum. *)
let test_clock_shared_name () =
  let c = Hw.Clock.create () in
  Hw.Clock.charge c Hw.Cost.pf_handler_cki;
  Hw.Clock.charge c Hw.Cost.pf_handler_native;
  check_string "same event" (Hw.Cost.name Hw.Cost.pf_handler_cki)
    (Hw.Cost.name Hw.Cost.pf_handler_native);
  check_int "one counter" 2 (Hw.Clock.occurrences c "pf_service");
  check_bool "one sum" true (Hw.Clock.spent_on c "pf_service" = 990.0 +. 1000.0);
  check_events "one event" [ ("pf_service", 2) ] (Hw.Clock.events c)

(* ---------------------------- Machine ----------------------------- *)

(* ------------------------------ Probe ----------------------------- *)

let event = testable Hw.Probe.pp_event ( = )

(* One event of every variant, each payload field distinct. *)
let every_event =
  let open Hw.Probe in
  [
    Priv_exec { cpu = 1; mnemonic = "wrmsr"; destructive = true; pkrs = 0x55; blocked = true };
    Wrpkrs { cpu = 2; value = 0x5 };
    Sysret { cpu = 3; pkrs = 0x4; if_after = true };
    Gate_enter { cpu = 5; gate = Hypercall_gate; pkrs = 0x14 };
    Gate_exit { cpu = 6; gate = Interrupt_gate; entry_pkrs = 0x14; pkrs = 0x15 };
    Idt_deliver
      { cpu = 7; vector = 14; hardware = true; pks_switch = false; pkrs_before = 3; pkrs_after = 9 };
    Tlb_fill { cpu = 8; pcid = 9; vpn = 0x400; level = 2; pfn = 77 };
    Tlb_invlpg { cpu = 9; pcid = 10; vpn = 0x401 };
    Tlb_flush_pcid { cpu = 10; pcid = 11 };
    Pte_downgrade { container = 15; root = 16; vpn = 0x402; unmapped = true };
    Container_boot { container = 17; pcid = 18 };
    Io_doorbell { queue = "net-tx"; avail_idx = 20; in_flight = 21 };
    Io_completion { queue = "net-rx"; used_idx = 22; serviced = 23 };
  ]

(* An installed sink receives every event kind, in emit order; after
   [clear_sink], and inside [suspended], it receives nothing. *)
let test_probe_sink_order () =
  let got = ref [] in
  Hw.Probe.set_sink (fun ev -> got := ev :: !got);
  Fun.protect ~finally:Hw.Probe.clear_sink (fun () ->
      check_bool "active with a sink" true (Hw.Probe.active ());
      List.iter Hw.Probe.emit every_event;
      Hw.Probe.suspended (fun () ->
          check_bool "inactive while suspended" false (Hw.Probe.active ());
          List.iter Hw.Probe.emit every_event);
      check_bool "active again after suspended" true (Hw.Probe.active ()));
  check_bool "inactive once cleared" false (Hw.Probe.active ());
  List.iter Hw.Probe.emit every_event;
  check (list event) "every event, in emit order, once" every_event (List.rev !got)

let test_machine_pcids () =
  let m = Hw.Machine.create ~cpus:2 ~mem_mib:1 () in
  let p1 = Hw.Machine.fresh_pcid m in
  let p2 = Hw.Machine.fresh_pcid m in
  check_bool "pcids distinct" true (p1 <> p2)

let suite =
  [
    ( "hw/tlb",
      [
        test_case "hit/miss" `Quick test_tlb_hit_miss;
        test_case "PCID isolation (invlpg)" `Quick test_tlb_pcid_isolation;
        test_case "flush pcid / all" `Quick test_tlb_flush_pcid;
        test_case "capacity bound" `Quick test_capacity_bound;
        test_case "2 MiB entries" `Quick test_tlb_huge_entry;
        test_case "capacity bound after invlpg refills" `Quick test_capacity_after_invlpg;
        test_case "FIFO eviction skips stale slots" `Quick test_eviction_order;
        test_case "packed keys: pcid 4095, vpn 2^36 - 1" `Quick test_tlb_packed_keys;
      ] );
    ( "hw/pks",
      [
        test_case "make/perm_of" `Quick test_pks_make_perm;
        test_case "allows + CKI layout" `Quick test_pks_allows;
        QCheck_alcotest.to_alcotest prop_pks_roundtrip;
      ] );
    ( "hw/priv",
      [
        test_case "Table 3 policy" `Quick test_priv_policy_matches_table3;
        test_case "virtualization consistency" `Quick test_priv_virtualization_consistency;
      ] );
    ( "hw/cpu",
      [
        test_case "blocks destructive insns in guest" `Quick test_cpu_blocks_in_guest;
        test_case "monitor mode unrestricted" `Quick test_cpu_monitor_mode_unrestricted;
        test_case "ring-3 #GP" `Quick test_cpu_user_mode_faults;
        test_case "wrpkrs + swapgs" `Quick test_cpu_wrpkrs_swapgs;
        test_case "sysret IF pinning (E3)" `Quick test_cpu_sysret_if_pinning;
        test_case "iret restores PKRS (E4)" `Quick test_cpu_iret_restores_pkrs;
        test_case "access permission checks" `Quick test_cpu_access_checks;
        test_case "access consults TLB" `Quick test_cpu_access_uses_tlb;
        test_case "exec_priv allocates nothing unblocked" `Quick test_cpu_exec_priv_allocates_nothing;
      ] );
    ( "hw/idt",
      [
        test_case "set/lock" `Quick test_idt_lock;
        test_case "PKS switch on hardware delivery only" `Quick test_idt_delivery_pks_switch;
      ] );
    ( "hw/ept",
      [
        test_case "map/translate/violation" `Quick test_ept_map_translate;
        test_case "huge mappings" `Quick test_ept_huge;
      ] );
    ( "hw/clock",
      [
        test_case "accounting" `Quick test_clock_accounting;
        test_case "slot growth past 64 names" `Quick test_clock_many_names;
        test_case "unseen queries" `Quick test_clock_unseen_queries;
        test_case "items of one name share its counter" `Quick test_clock_shared_name;
      ] );
    ( "hw/probe",
      [
        test_case "sink sees events in order" `Quick test_probe_sink_order;
      ] );
    ("hw/machine", [ test_case "fresh pcids" `Quick test_machine_pcids ]);
  ]
