(** E9: syscall-throughput scaling on the SMP machine.

    A population of syscall-bound user tasks (getpid in a loop with a
    short compute burst between calls) is scheduled with
    {!Kernel.System.run_smp} on 1, 2, 4 and 8 simulated cores. The
    figure of merit is simulated parallel time — the busiest core's
    cycle counter — so the scaling captures what the paper's per-CPU key
    management costs when every core pays its own XOM key install on
    every kernel entry. *)

type point = {
  cpus : int;
  tasks : int;
  makespan : int64;  (** busiest core's cycles: parallel simulated time *)
  aggregate : int64;  (** summed cycles across cores *)
  syscalls : int;  (** kernel entries made by the task population *)
  throughput : float;  (** syscalls per 1000 cycles of makespan *)
  speedup : float;  (** single-core makespan / this makespan *)
  migrations : int;
  ipis : int;
  all_exited : bool;  (** every task reached a clean exit *)
}

val throughput_program : rounds:int -> Aarch64.Asm.program

(** [run_scaling ()] — the same population on 1, 2, 4 and 8 cores;
    [speedup] is relative to the single-core point. *)
val run_scaling : ?seed:int64 -> ?tasks:int -> ?rounds:int -> unit -> point list
