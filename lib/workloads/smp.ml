open Aarch64
module K = Kernel

type point = {
  cpus : int;
  tasks : int;
  makespan : int64;
  aggregate : int64;
  syscalls : int;
  throughput : float;
  speedup : float;
  migrations : int;
  ipis : int;
  all_exited : bool;
}

(* Syscall-bound worker: [rounds] getpid calls separated by a short EL0
   compute burst, so every round crosses the kernel boundary and pays
   the per-CPU key install on its own core. *)
let throughput_program ~rounds =
  let prog = Asm.create () in
  Asm.add_function prog ~name:"throughput"
    [
      Asm.ins (Insn.Movz (Insn.R 20, rounds, 0));
      Asm.ins (Insn.Movz (Insn.R 21, 0, 0));
      Asm.label "round";
      Asm.ins (Insn.Svc K.Kbuild.sys_getpid);
      Asm.ins (Insn.Add_reg (Insn.R 21, Insn.R 21, Insn.R 0));
      Asm.ins (Insn.Movz (Insn.R 9, 50, 0));
      Asm.label "spin";
      Asm.ins (Insn.Sub_imm (Insn.R 9, Insn.R 9, 1));
      Asm.cbnz_to (Insn.R 9) "spin";
      Asm.ins (Insn.Sub_imm (Insn.R 20, Insn.R 20, 1));
      Asm.cbnz_to (Insn.R 20) "round";
      Asm.ins (Insn.Mov (Insn.R 0, Insn.R 21));
      Asm.ins (Insn.Svc K.Kbuild.sys_exit);
    ];
  prog

let boot_and_run ~seed ~cpus ~tasks ~rounds =
  let sys = K.System.boot ~config:Camouflage.Config.full ~seed ~cpus () in
  let layout = K.System.map_user_program sys (throughput_program ~rounds) in
  let entry = Asm.symbol layout "throughput" in
  let spawned = List.init tasks (fun _ -> K.System.spawn_user_task sys ~entry) in
  K.System.run_smp ~quantum:800 sys ~tasks:spawned

let point_of_stats ~cpus ~tasks ~rounds (stats : K.System.smp_stats) =
  let aggregate = Array.fold_left Int64.add 0L stats.K.System.per_cpu_cycles in
  (* one getpid per round, plus the final exit trap, per task *)
  let syscalls = tasks * (rounds + 1) in
  let makespan = stats.K.System.makespan in
  let throughput =
    if makespan = 0L then 0.0
    else 1000.0 *. float_of_int syscalls /. Int64.to_float makespan
  in
  let all_exited =
    List.length stats.K.System.smp_exits = tasks
    && List.for_all
         (fun (_, _, e) -> match e with K.System.Exited _ -> true | _ -> false)
         stats.K.System.smp_exits
  in
  {
    cpus;
    tasks;
    makespan;
    aggregate;
    syscalls;
    throughput;
    speedup = 1.0;
    migrations = stats.K.System.smp_migrations;
    ipis = stats.K.System.smp_ipis;
    all_exited;
  }

let run_point ?(seed = 42L) ~cpus ~tasks ~rounds () =
  point_of_stats ~cpus ~tasks ~rounds (boot_and_run ~seed ~cpus ~tasks ~rounds)

(* E9: the same task population on 1, 2, 4 and 8 cores. Speedups are in
   simulated parallel time (makespan); they are sub-linear because the
   boot core's clock also carries boot and bring-up work, and because
   kernel entries serialize per core. *)
let run_scaling ?(seed = 42L) ?(tasks = 8) ?(rounds = 40) () =
  let points =
    List.map (fun cpus -> run_point ~seed ~cpus ~tasks ~rounds ()) [ 1; 2; 4; 8 ]
  in
  let base = (List.hd points).makespan in
  List.map
    (fun p ->
      let speedup =
        if p.makespan = 0L then 0.0
        else Int64.to_float base /. Int64.to_float p.makespan
      in
      { p with speedup })
    points
