(* Scheduler edge cases: the context-integrity tamper-kill path (X7)
   on one core and across two, slice/preemption accounting at the
   degenerate quantum of one instruction, and determinism of the whole
   scheduler. *)

open Aarch64
module C = Camouflage
module K = Kernel

let spin_program ~iters ~code =
  let prog = Asm.create () in
  Asm.add_function prog ~name:"spin"
    [
      Asm.ins (Insn.Movz (Insn.R 20, iters, 0));
      Asm.label "work";
      Asm.ins (Insn.Sub_imm (Insn.R 20, Insn.R 20, 1));
      Asm.cbnz_to (Insn.R 20) "work";
      Asm.ins (Insn.Movz (Insn.R 0, code, 0));
      Asm.ins (Insn.Svc K.Kbuild.sys_exit);
    ];
  prog

let boot_spin ?cpus ~iters ~code () =
  let sys = K.System.boot ~seed:21L ?cpus () in
  let layout = K.System.map_user_program sys (spin_program ~iters ~code) in
  (sys, Asm.symbol layout "spin")

(* (cpu, exit status) of [task] in a run's exits *)
let exit_of stats task =
  List.find_map
    (fun (cpu, pid, e) -> if pid = task.K.System.pid then Some (cpu, e) else None)
    stats.K.System.smp_exits

(* X7: a preempted task's saved context is MAC'd; tampering with the
   saved registers between slices kills the task instead of resuming
   it. The untampered sibling run resumes and exits normally. *)
let test_context_integrity_tamper_kill () =
  let run ~tamper =
    let sys, entry = boot_spin ~iters:4000 ~code:9 () in
    let victim = K.System.spawn_user_task sys ~entry in
    let companion = K.System.spawn_user_task sys ~entry in
    (* two short slices: each task is preempted once and its context
       saved (and MAC'd) in its task structure *)
    let first =
      K.System.run_smp ~quantum:50 ~max_slices:2 ~context_integrity:true sys
        ~tasks:[ victim; companion ]
    in
    Alcotest.(check int) "still running after two slices" 0
      (List.length first.K.System.smp_exits);
    Alcotest.(check int) "both tasks preempted once" 2 first.K.System.smp_preemptions;
    if tamper then
      (* corrupt a saved callee register in the victim's task structure *)
      K.Kmem.write64 (K.System.cpu sys)
        (Int64.add victim.K.System.va
           (Int64.of_int (K.Kobject.Task.off_gprs + (8 * 20))))
        0xbad00000L;
    let stats =
      K.System.run_smp ~quantum:100_000 ~context_integrity:true sys
        ~tasks:[ victim; companion ]
    in
    (Option.map snd (exit_of stats victim), Option.map snd (exit_of stats companion))
  in
  (match run ~tamper:true with
  | Some (K.System.User_killed m), Some (K.System.Exited 9L) ->
      Alcotest.(check bool) "killed for context integrity" true
        (String.length m >= 17 && String.sub m 0 17 = "context integrity")
  | _ -> Alcotest.fail "tampered victim should be killed, companion should exit");
  match run ~tamper:false with
  | Some (K.System.Exited 9L), Some (K.System.Exited 9L) -> ()
  | _ -> Alcotest.fail "untampered resumes should both exit with code 9"

(* Quantum of one instruction: every slice retires one user instruction
   and then preempts, so preemptions = slices - exits, and the tasks
   still run to completion. *)
let test_quantum_one_accounting () =
  let sys, entry = boot_spin ~iters:10 ~code:5 () in
  let tasks = List.init 2 (fun _ -> K.System.spawn_user_task sys ~entry) in
  let stats = K.System.run_smp ~quantum:1 ~max_slices:2000 sys ~tasks in
  Alcotest.(check int) "both exited" 2 (List.length stats.K.System.smp_exits);
  List.iter
    (fun (_cpu, pid, e) ->
      match e with
      | K.System.Exited 5L -> ()
      | _ -> Alcotest.failf "pid %d: unexpected exit" pid)
    stats.K.System.smp_exits;
  Alcotest.(check int) "every non-final slice preempts"
    (stats.K.System.smp_slices - 2)
    stats.K.System.smp_preemptions;
  Alcotest.(check bool) "interleaving actually happened" true
    (stats.K.System.smp_slices > 20)

let sched_fingerprint () =
  let sys, entry = boot_spin ~iters:600 ~code:3 () in
  let tasks = List.init 3 (fun _ -> K.System.spawn_user_task sys ~entry) in
  let stats = K.System.run_smp ~quantum:150 sys ~tasks in
  (stats, Cpu.cycles (K.System.cpu sys))

let test_scheduler_deterministic () =
  let a, ca = sched_fingerprint () in
  let b, cb = sched_fingerprint () in
  Alcotest.(check bool) "identical exits" true
    (a.K.System.smp_exits = b.K.System.smp_exits);
  Alcotest.(check int) "identical slices" a.K.System.smp_slices b.K.System.smp_slices;
  Alcotest.(check int) "identical preemptions" a.K.System.smp_preemptions
    b.K.System.smp_preemptions;
  Alcotest.(check int64) "identical cycle totals" ca cb

(* X7 on two cores: the saved context of the task on core 1 is
   tampered between runs; that task is killed before it resumes while
   the core-0 task exits. Untampered, every task exits. *)
let test_context_integrity_smp () =
  let run ~tamper =
    let sys, entry = boot_spin ~cpus:2 ~iters:4000 ~code:9 () in
    let on_cpu0 = K.System.spawn_user_task sys ~entry in
    let on_cpu1 = K.System.spawn_user_task sys ~entry in
    let tasks = [ on_cpu0; on_cpu1 ] in
    let first =
      K.System.run_smp ~quantum:50 ~max_slices:2 ~context_integrity:true sys ~tasks
    in
    Alcotest.(check int) "one slice per core, both preempted" 2
      first.K.System.smp_preemptions;
    if tamper then
      K.Kmem.write64 (K.System.cpu sys)
        (Int64.add on_cpu1.K.System.va (Int64.of_int K.Kobject.Task.off_saved_pc))
        0xbad00000L;
    let stats =
      K.System.run_smp ~quantum:100_000 ~context_integrity:true sys ~tasks
    in
    (exit_of stats on_cpu0, exit_of stats on_cpu1)
  in
  (match run ~tamper:true with
  | Some (0, K.System.Exited 9L), Some (1, K.System.User_killed m) ->
      Alcotest.(check string) "killed for context integrity"
        "context integrity: SIGKILL" m
  | _ -> Alcotest.fail "core-1 victim should be killed, core-0 task should exit");
  match run ~tamper:false with
  | Some (0, K.System.Exited 9L), Some (1, K.System.Exited 9L) -> ()
  | _ -> Alcotest.fail "untampered tasks should both exit with code 9"

let suite =
  [
    Alcotest.test_case "context-integrity tamper kill (X7)." `Quick
      test_context_integrity_tamper_kill;
    Alcotest.test_case "quantum-1 slice accounting." `Quick test_quantum_one_accounting;
    Alcotest.test_case "scheduler determinism." `Quick test_scheduler_deterministic;
    Alcotest.test_case "context-integrity tamper kill on two cores (X7)." `Quick
      test_context_integrity_smp;
  ]
