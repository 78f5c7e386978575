(* SMP tests: the machine-level IPI doorbell, multi-core boot with
   per-CPU PAuth key installation, the cycle-interleaved scheduler
   (spread, determinism, IPI-driven migration), and the failure mode the
   per-CPU key registers imply: a core that skips the XOM setter faults
   on its first authenticated return. *)

open Aarch64
module C = Camouflage
module K = Kernel

(* Machine: GIC-lite doorbell semantics. *)

let test_ipi_doorbell () =
  let m = Machine.create ~cpus:4 () in
  Alcotest.(check int) "cores" 4 (Machine.cpus m);
  Alcotest.(check int) "nothing pending" 0 (List.length (Machine.pending m ~cpu:2));
  Machine.send_ipi m ~src:0 ~dst:2 Machine.Reschedule;
  Machine.send_ipi m ~src:1 ~dst:2 Machine.Reschedule;
  Machine.send_ipi m ~src:3 ~dst:2 Machine.Stop;
  Alcotest.(check int) "doorbell rings counted" 3 (Machine.ipis_sent m);
  Alcotest.(check int) "two distinct ids pending" 2
    (List.length (Machine.pending m ~cpu:2));
  Alcotest.(check int) "other cores unaffected" 0
    (List.length (Machine.pending m ~cpu:0));
  Alcotest.(check (list int)) "requesters, lowest first" [ 0; 1 ]
    (Machine.ack m ~cpu:2 Machine.Reschedule);
  Alcotest.(check int) "resched acknowledged" 1
    (List.length (Machine.pending m ~cpu:2));
  Alcotest.(check (list int)) "stop requester" [ 3 ] (Machine.ack m ~cpu:2 Machine.Stop);
  Alcotest.(check (list int)) "ack is idempotent" [] (Machine.ack m ~cpu:2 Machine.Stop)

let test_machine_shares_memory () =
  let m = Machine.create ~cpus:2 () in
  let c0 = Machine.core m 0 and c1 = Machine.core m 1 in
  let base = 0xffff000000700000L in
  K.Kmem.map_kernel_region c0 ~base ~bytes:4096 Mmu.rw;
  K.Kmem.write64 c0 base 0x5eedL;
  Alcotest.(check int64) "core 1 reads core 0's store" 0x5eedL (K.Kmem.read64 c1 base);
  Cpu.set_reg c0 (Insn.R 7) 42L;
  Alcotest.(check int64) "register files are private" 0L (Cpu.reg c1 (Insn.R 7))

(* System: SMP boot and scheduling. *)

let user_entry sys ~rounds =
  let layout =
    K.System.map_user_program sys (Workloads.Smp.throughput_program ~rounds)
  in
  Asm.symbol layout "throughput"

let test_smp_boot_installs_keys_per_cpu () =
  let sys = K.System.boot ~seed:7L ~cpus:4 () in
  Alcotest.(check bool) "booted" false (K.System.panicked sys);
  Alcotest.(check int) "four cores" 4 (K.System.cpus sys);
  Alcotest.(check int) "every core holds the kernel keys" 0
    (List.length (K.System.unkeyed_cpus sys));
  (* secondaries parked on idle tasks: init=1, idles=2..4 *)
  Alcotest.(check int) "task population" 4 (List.length (K.System.tasks sys));
  for cid = 1 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "cpu%d executed the setter during bring-up" cid)
      true
      (K.System.key_installs_on sys ~cpu:cid > 0)
  done

let test_run_smp_spreads_tasks () =
  let sys = K.System.boot ~seed:7L ~cpus:4 () in
  let entry = user_entry sys ~rounds:20 in
  let tasks = List.init 8 (fun _ -> K.System.spawn_user_task sys ~entry) in
  let stats = K.System.run_smp ~quantum:600 sys ~tasks in
  Alcotest.(check int) "eight exits" 8 (List.length stats.K.System.smp_exits);
  List.iter
    (fun (_, pid, e) ->
      match e with
      | K.System.Exited _ -> ()
      | other ->
          Alcotest.failf "pid %d did not exit cleanly: %s" pid
            (K.System.user_exit_to_string other))
    stats.K.System.smp_exits;
  let cores_used =
    List.sort_uniq compare (List.map (fun (c, _, _) -> c) stats.K.System.smp_exits)
  in
  Alcotest.(check (list int)) "work finished on all four cores" [ 0; 1; 2; 3 ]
    cores_used;
  for cid = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "cpu%d paid its own key installs" cid)
      true
      (K.System.key_installs_on sys ~cpu:cid > 0)
  done;
  Alcotest.(check bool) "makespan is the busiest core" true
    (Array.for_all
       (fun c -> Int64.compare c stats.K.System.makespan <= 0)
       stats.K.System.per_cpu_cycles)

let smp_fingerprint ~seed ~cpus =
  let sys = K.System.boot ~seed ~cpus () in
  let entry = user_entry sys ~rounds:15 in
  let tasks = List.init 8 (fun _ -> K.System.spawn_user_task sys ~entry) in
  let stats = K.System.run_smp ~quantum:500 sys ~tasks in
  ( List.map (fun (c, p, _) -> (c, p)) stats.K.System.smp_exits,
    stats.K.System.makespan,
    Array.to_list stats.K.System.per_cpu_cycles )

let test_run_smp_deterministic () =
  let a = smp_fingerprint ~seed:11L ~cpus:4 in
  let b = smp_fingerprint ~seed:11L ~cpus:4 in
  Alcotest.(check bool) "same seed and cpu count: identical exit order and clocks"
    true (a = b)

(* Unbalanced load: one core's queue drains early, the busiest core
   rings its doorbell, and a task migrates over. *)
let test_ipi_load_balancing () =
  let sys = K.System.boot ~seed:13L ~cpus:2 () in
  let prog = Asm.create () in
  Asm.add_function prog ~name:"long"
    [
      Asm.ins (Insn.Movz (Insn.R 20, 6000, 0));
      Asm.label "lwork";
      Asm.ins (Insn.Sub_imm (Insn.R 20, Insn.R 20, 1));
      Asm.cbnz_to (Insn.R 20) "lwork";
      Asm.ins (Insn.Movz (Insn.R 0, 0, 0));
      Asm.ins (Insn.Svc K.Kbuild.sys_exit);
    ];
  Asm.add_function prog ~name:"short"
    [
      Asm.ins (Insn.Movz (Insn.R 20, 20, 0));
      Asm.label "swork";
      Asm.ins (Insn.Sub_imm (Insn.R 20, Insn.R 20, 1));
      Asm.cbnz_to (Insn.R 20) "swork";
      Asm.ins (Insn.Movz (Insn.R 0, 0, 0));
      Asm.ins (Insn.Svc K.Kbuild.sys_exit);
    ];
  let layout = K.System.map_user_program sys prog in
  let long = Asm.symbol layout "long" and short = Asm.symbol layout "short" in
  (* submission order interleaves, so cpu0 queues the three long tasks
     and cpu1 the three short ones *)
  let tasks =
    List.init 6 (fun idx ->
        K.System.spawn_user_task sys ~entry:(if idx mod 2 = 0 then long else short))
  in
  let stats = K.System.run_smp ~quantum:400 ~balance_interval:4 sys ~tasks in
  Alcotest.(check int) "six exits" 6 (List.length stats.K.System.smp_exits);
  Alcotest.(check bool) "doorbell rang" true (stats.K.System.smp_ipis >= 1);
  Alcotest.(check bool) "a task migrated to the idle core" true
    (stats.K.System.smp_migrations >= 1);
  let migrated_exit_cores =
    List.filter_map
      (fun (c, _, e) ->
        match e with K.System.Exited _ when c = 1 -> Some c | _ -> None)
      stats.K.System.smp_exits
  in
  Alcotest.(check bool) "cpu1 finished pulled work too" true
    (List.length migrated_exit_cores >= 3)

(* The design's sharp edge, demonstrated on a bare machine: keys signed
   while the setter's material was live do not authenticate on a core
   whose key registers were never populated. *)
let test_skipped_install_faults () =
  let m = Machine.create ~cpus:2 () in
  let c0 = Machine.boot_core m and c1 = Machine.core m 1 in
  List.iter
    (fun core ->
      let sctlr =
        List.fold_left
          (fun acc k -> Camo_util.Val64.set_bit (Sysreg.sctlr_enable_bit k) true acc)
          0L
          Sysreg.[ IA; IB; DA; DB ]
      in
      Cpu.set_sysreg core Sysreg.SCTLR_EL1 sctlr)
    (Machine.cores m);
  let hyp = K.Hypervisor.install c0 in
  let rng = Camo_util.Rng.create 99L in
  let xom = K.Xom.install c0 hyp ~rng ~mode:C.Keys.Armv83 in
  (* a return path that loads a stored LR and authenticates it *)
  let code_base = 0xffff000000110000L in
  let data = 0xffff000000112000L in
  K.Kmem.map_kernel_region c0 ~base:code_base ~bytes:4096 Mmu.rx;
  K.Kmem.map_kernel_region c0 ~base:data ~bytes:4096 Mmu.rw;
  let prog = Asm.create () in
  Asm.add_function prog ~name:"resume"
    [
      Asm.ins (Insn.Ldr (Insn.R 30, Insn.Off (Insn.R 0, 0)));
      Asm.ins (Insn.Movz (Insn.R 9, 0, 0));
      Asm.ins (Insn.Aut (Sysreg.IB, Insn.R 30, Insn.R 9));
      Asm.ins Insn.Ret;
    ];
  let layout = Asm.assemble prog ~base:code_base in
  Asm.encode_into layout ~write32:(K.Kmem.write32 c0);
  let resume = Asm.symbol layout "resume" in
  (* sign the sentinel under the real IB key (host mirror), as the
     kernel does for every prefabricated switch frame *)
  let key = List.assoc Sysreg.IB xom.K.Xom.kernel_keys in
  let signed =
    Pac.compute ~cipher:(Cpu.cipher c0) ~key ~cfg:(Cpu.kernel_cfg c0) ~modifier:0L
      Cpu.sentinel
  in
  K.Kmem.write64 c0 data signed;
  (* core 0 ran the setter: the authenticated return succeeds *)
  (match Cpu.call c0 xom.K.Xom.setter_addr with
  | Cpu.Sentinel_return -> ()
  | other -> Alcotest.failf "setter on core 0: %s" (Cpu.stop_to_string other));
  Cpu.set_reg c0 (Insn.R 0) data;
  (match Cpu.call c0 resume with
  | Cpu.Sentinel_return -> ()
  | other -> Alcotest.failf "keyed core: %s" (Cpu.stop_to_string other));
  (* core 1 skipped the setter: its key registers are empty, so the
     same return authenticates to a poisoned address and faults *)
  Cpu.set_reg c1 (Insn.R 0) data;
  match Cpu.call c1 resume with
  | Cpu.Fault { fault = Cpu.Mmu_fault f; _ } ->
      Alcotest.(check bool) "fault address is PAC-poisoned" true
        (Vaddr.is_poisoned (Cpu.kernel_cfg c1) f.Mmu.va)
  | other -> Alcotest.failf "unkeyed core: %s" (Cpu.stop_to_string other)

(* Cross-core PAC failures share one brute-force budget (Section 5.4):
   an SMP attacker must not multiply the threshold by the core count. *)
let test_bruteforce_accounting_is_global () =
  let bf = C.Bruteforce.create ~threshold:4 in
  let rec feed n cpu acc =
    if n = 0 then acc
    else
      let v =
        C.Bruteforce.record_failure bf ~cpu ~pid:(100 + n)
          ~faulting_va:0xdead0000L
      in
      feed (n - 1) ((cpu + 1) mod 4) (v :: acc)
  in
  let outcomes = feed 4 0 [] in
  Alcotest.(check bool) "threshold trips across cores" true
    (List.exists (function C.Bruteforce.Panic -> true | _ -> false) outcomes);
  Alcotest.(check int) "per-cpu tallies kept" 1 (C.Bruteforce.failures_on bf ~cpu:2)

let suite =
  [
    Alcotest.test_case "IPI doorbell send/pending/ack." `Quick test_ipi_doorbell;
    Alcotest.test_case "shared memory, private registers." `Quick
      test_machine_shares_memory;
    Alcotest.test_case "SMP boot installs keys on every core." `Quick
      test_smp_boot_installs_keys_per_cpu;
    Alcotest.test_case "run_smp schedules 8 tasks across 4 cores." `Quick
      test_run_smp_spreads_tasks;
    Alcotest.test_case "run_smp is deterministic." `Quick test_run_smp_deterministic;
    Alcotest.test_case "IPI-driven load balancing migrates work." `Quick
      test_ipi_load_balancing;
    Alcotest.test_case "a core that skips the setter faults." `Quick
      test_skipped_install_faults;
    Alcotest.test_case "brute-force budget is machine-global." `Quick
      test_bruteforce_accounting_is_global;
  ]

(* Brute-force accounting under SMP: the audit invariant (global count =
   sum of per-CPU tallies = event count, thresholds descending) and a
   regression pinning the panic threshold across run_smp — every PAC
   failure must be charged exactly once, on the core that took it. *)

let stuck_key_run ~threshold ~quarantine_after =
  let config = { C.Config.full with C.Config.bruteforce_threshold = threshold } in
  let sys = K.System.boot ~config ~seed:42L ~cpus:2 () in
  let layout =
    K.System.map_user_program sys (Workloads.Smp.throughput_program ~rounds:40)
  in
  let entry = Asm.symbol layout "throughput" in
  let tasks = List.init 8 (fun _ -> K.System.spawn_user_task sys ~entry) in
  let data_key = C.Keys.key_for config.C.Config.mode C.Keys.Data in
  let inj =
    Faultinj.Injector.create
      {
        Faultinj.Injector.trigger = Faultinj.Injector.Always;
        model =
          Faultinj.Injector.Key_flip { key = data_key; high_half = false; bit = 7 };
        persistence = Faultinj.Injector.Stuck;
      }
  in
  Faultinj.Injector.arm inj (Machine.core (K.System.machine sys) 1);
  let stats = K.System.run_smp ~quantum:150 ?quarantine_after sys ~tasks in
  (sys, stats)

let test_bruteforce_audit_invariant () =
  let bf = C.Bruteforce.create ~threshold:16 in
  List.iter
    (fun cpu -> ignore (C.Bruteforce.record_failure ~cpu bf ~pid:7 ~faulting_va:0x20000badL))
    [ 0; 1; 0; 3 ];
  Alcotest.(check bool) "audit holds after mixed-core failures" true
    (C.Bruteforce.audit bf);
  Alcotest.(check int) "global count" 4 (C.Bruteforce.failures bf);
  Alcotest.(check int) "cpu0 tally" 2 (C.Bruteforce.failures_on bf ~cpu:0)

let test_smp_panic_threshold_pinned () =
  (* threshold 3: the third PAC failure on the faulty core halts the
     machine, and not a single failure is double-counted *)
  let sys, _stats = stuck_key_run ~threshold:3 ~quarantine_after:None in
  Alcotest.(check bool) "panicked at the threshold" true (K.System.panicked sys);
  Alcotest.(check int) "exactly threshold failures recorded" 3
    (C.Bruteforce.failures (K.System.bruteforce sys));
  Alcotest.(check int) "all charged to the faulty core" 3
    (C.Bruteforce.failures_on (K.System.bruteforce sys) ~cpu:1);
  Alcotest.(check int) "none charged to the healthy core" 0
    (C.Bruteforce.failures_on (K.System.bruteforce sys) ~cpu:0);
  Alcotest.(check bool) "audit invariant holds" true
    (C.Bruteforce.audit (K.System.bruteforce sys))

let test_smp_below_threshold_survives () =
  (* a high threshold: the system survives, but without quarantine the
     idle faulty core keeps pulling work over via the load balancer and
     kills most of the population one failure at a time — each failure
     still charged exactly once *)
  let sys, stats = stuck_key_run ~threshold:20 ~quarantine_after:None in
  Alcotest.(check bool) "no panic below threshold" false (K.System.panicked sys);
  Alcotest.(check int) "one failure per victim task" 7
    (C.Bruteforce.failures (K.System.bruteforce sys));
  Alcotest.(check int) "all failures on the faulty core" 7
    (C.Bruteforce.failures_on (K.System.bruteforce sys) ~cpu:1);
  Alcotest.(check bool) "audit invariant holds" true
    (C.Bruteforce.audit (K.System.bruteforce sys));
  let clean =
    List.length
      (List.filter
         (fun (_, _, e) -> match e with K.System.Exited _ -> true | _ -> false)
         stats.K.System.smp_exits)
  in
  Alcotest.(check int) "only one task escapes the balancer" 1 clean

let test_smp_quarantine_offlines_core () =
  let sys, stats = stuck_key_run ~threshold:3 ~quarantine_after:(Some 2) in
  Alcotest.(check bool) "quarantine forestalls the panic" false
    (K.System.panicked sys);
  Alcotest.(check (list int)) "core 1 offlined" [ 1 ] stats.K.System.smp_offlined;
  Alcotest.(check bool) "its queue migrated" true (stats.K.System.smp_migrations >= 2);
  let clean =
    List.length
      (List.filter
         (fun (_, _, e) -> match e with K.System.Exited _ -> true | _ -> false)
         stats.K.System.smp_exits)
  in
  Alcotest.(check int) "migrated tasks finish on the healthy core" 6 clean

let suite =
  suite
  @ [
      Alcotest.test_case "brute-force audit invariant." `Quick
        test_bruteforce_audit_invariant;
      Alcotest.test_case "SMP panic threshold is pinned." `Quick
        test_smp_panic_threshold_pinned;
      Alcotest.test_case "below threshold the system survives." `Quick
        test_smp_below_threshold_survives;
      Alcotest.test_case "quarantine offlines the faulty core." `Quick
        test_smp_quarantine_offlines_core;
    ]
