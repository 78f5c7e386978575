(* Preemptive multitasking on the protected kernel: three user tasks in
   round-robin on one core (System.run_smp, the scheduler of every core
   count), each computing and making syscalls, every timer-driven
   context switch going through the instrumented cpu_switch_to with
   signed stored stack pointers (Section 5.2).

   Run with: dune exec examples/multitask.exe *)

open Aarch64
module C = Camouflage
module K = Kernel

(* Each task hashes in a loop, writes a progress marker to the shared
   file and exits with its accumulated value. *)
let worker_program ~rounds =
  let prog = Asm.create () in
  Asm.add_function prog ~name:"worker"
    [
      (* x19 = fd from open *)
      Asm.ins (Insn.Movz (Insn.R 0, 1, 0));
      Asm.ins (Insn.Svc K.Kbuild.sys_open);
      Asm.ins (Insn.Mov (Insn.R 19, Insn.R 0));
      Asm.ins (Insn.Movz (Insn.R 20, rounds, 0));
      Asm.ins (Insn.Movz (Insn.R 21, 0, 0));
      Asm.label "round";
      (* compute: a small hash loop *)
      Asm.ins (Insn.Movz (Insn.R 9, 400, 0));
      Asm.label "hash";
      Asm.ins (Insn.Lsl_imm (Insn.R 10, Insn.R 21, 5));
      Asm.ins (Insn.Add_reg (Insn.R 21, Insn.R 10, Insn.R 21));
      Asm.ins (Insn.Add_reg (Insn.R 21, Insn.R 21, Insn.R 9));
      Asm.ins (Insn.Sub_imm (Insn.R 9, Insn.R 9, 1));
      Asm.cbnz_to (Insn.R 9) "hash";
      (* write 8 bytes of progress *)
      Asm.ins (Insn.Mov (Insn.R 0, Insn.R 19));
      Asm.ins (Insn.Movz (Insn.R 1, 0, 0));
      Asm.ins (Insn.Movk (Insn.R 1, 0x0080, 16));
      Asm.ins (Insn.Movz (Insn.R 2, 8, 0));
      Asm.ins (Insn.Svc K.Kbuild.sys_write);
      Asm.ins (Insn.Sub_imm (Insn.R 20, Insn.R 20, 1));
      Asm.cbnz_to (Insn.R 20) "round";
      Asm.ins (Insn.Mov (Insn.R 0, Insn.R 21));
      Asm.ins (Insn.Svc K.Kbuild.sys_exit);
    ];
  prog

let () =
  let sys = K.System.boot ~config:C.Config.full ~seed:777L () in
  K.Kmem.map_user_region (K.System.cpu sys) ~base:K.Layout.user_data_base ~bytes:0x4000
    Mmu.rw;
  let layout = K.System.map_user_program sys (worker_program ~rounds:5) in
  let entry = Asm.symbol layout "worker" in
  let tasks = List.init 3 (fun _ -> K.System.spawn_user_task sys ~entry) in
  Printf.printf "spawned %d worker tasks (pids %s)\n" (List.length tasks)
    (String.concat ", " (List.map (fun t -> string_of_int t.K.System.pid) tasks));
  let before = Cpu.cycles (K.System.cpu sys) in
  let stats = K.System.run_smp ~quantum:1500 sys ~tasks in
  let elapsed = Int64.sub (Cpu.cycles (K.System.cpu sys)) before in
  Printf.printf "\nscheduler: %d slices, %d timer preemptions, %Ld cycles total\n"
    stats.K.System.smp_slices stats.K.System.smp_preemptions elapsed;
  List.iter
    (fun (_cpu, pid, exit) ->
      Printf.printf "  pid %d: %s\n" pid
        (match exit with
        | K.System.Exited v -> Printf.sprintf "exited with 0x%Lx" v
        | K.System.User_killed m -> "killed: " ^ m
        | K.System.User_panicked m -> "panic: " ^ m
        | K.System.Watchdog_expired _ as e -> K.System.user_exit_to_string e))
    stats.K.System.smp_exits;
  Printf.printf "\nEvery preemption ran the instrumented cpu_switch_to: the stored\n";
  Printf.printf "stack pointers of scheduled-out tasks carry PACs bound to their\n";
  Printf.printf "task structures, and each resume authenticated them (Section 5.2).\n"
