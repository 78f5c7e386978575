(** The running system: boot, tasks, syscall dispatch, fault policy.

    The host side plays the architectural vector table (Section 2.3):
    on every kernel entry it charges the exception cost, switches to the
    current task's 16 KiB kernel stack, installs the kernel PAuth keys
    by executing the XOM setter, dispatches the machine-code handler
    from the read-only syscall table, and on exit restores the user keys
    and charges the ERET. PAC authentication failures surface as
    translation faults on poisoned addresses and feed the brute-force
    mitigation (Section 5.4): the offending process is killed, the event
    is logged, and past the threshold the system halts. *)

open Aarch64

type task = { va : int64; slot : int; pid : int }

type syscall_outcome =
  | Ok of int64
  | Killed of string  (** the current process received SIGKILL *)
  | Panicked of string  (** the system halted *)

type user_exit =
  | Exited of int64
  | User_killed of string
  | User_panicked of string
  | Watchdog_expired of { budget : int; retries : int }
      (** the task blew its instruction budget and every watchdog retry:
          [budget] is the final (doubled) per-attempt budget, [retries]
          how many grace periods it received before the SIGKILL *)

val user_exit_to_string : user_exit -> string

(** Structured oops record, captured whenever the kernel kills a task
    (or halts) on a fault path: which core and pid, the classified
    cause, the faulting PC, and a full {!Cpu.dump_state} snapshot
    (registers + recent-trace disassembly) taken at the stop. *)
type oops = {
  oops_cpu : int;
  oops_pid : int;
  oops_cause : string;
  oops_pc : int64;
  oops_dump : string;
}

type t

(** [check_config c] — [Error reason] when the kernel cannot boot
    under [c]: the chained scheme cannot prefabricate switch frames, so
    it is evaluated on bare machines only. Front ends check a requested
    configuration with this before booting. *)
val check_config : Camouflage.Config.t -> (unit, string) result

(** [boot ()] brings the system up: hypervisor lockdown, bootloader key
    generation into XOM, kernel image load (with static verification and
    static-pointer signing), and creation of the init task. [seed]
    drives every PRNG (kernel keys, user keys). Raises [Failure] if the
    kernel image fails verification or {!check_config} refuses [config].

    [cpus] (default 1, max 16) boots an SMP machine: all cores share
    memory, the two-stage MMU and the cipher, but keep private register
    files — including the PAuth key registers, so every secondary core
    executes the XOM key setter itself during bring-up and on each of
    its own kernel entries. Secondaries get a per-CPU data area
    (published via their TPIDR_EL1) and an idle task; with [cpus = 1]
    nothing observable changes.

    [tier] (default [Cpu.Icache], [--exec-tier] at the CLI) selects
    the execution tier: [Cpu.Interp] disables the machine-wide
    decoded-instruction cache, [Cpu.Traces] adds per-core superblock
    trace compilation on top of it. The tier changes host speed only:
    execution is bit-identical under every tier. *)
val boot :
  ?config:Camouflage.Config.t ->
  ?seed:int64 ->
  ?has_pauth:bool ->
  ?cost:Cost.profile ->
  ?cpus:int ->
  ?telemetry:bool ->
  ?tier:Aarch64.Cpu.tier ->
  unit ->
  t

val cpu : t -> Cpu.t
(** The active core (core 0 outside {!run_smp}). *)

val machine : t -> Machine.t
val cpus : t -> int
val config : t -> Camouflage.Config.t
val xom : t -> Xom.t
val current : t -> task
val tasks : t -> task list
val panicked : t -> bool
val log : t -> string list

(** [log_events t] — the kernel log with cycle timestamps (the active
    core's clock at emission), oldest first; lets log lines merge into
    the trace timeline. *)
val log_events : t -> (int64 * string) list

(** The machine-wide telemetry hub, when booted with
    [~telemetry:true]. *)
val telemetry : t -> Telemetry.Hub.t option

(** Symbol tables for the telemetry profiler, as half-open PC ranges:
    [symbol_ranges] covers the kernel text plus the audited XOM key
    routines; [layout_ranges] converts any placed layout (e.g. a
    loaded module's text). *)
val symbol_ranges : t -> Telemetry.Profile.sym list

val layout_ranges : Aarch64.Asm.layout -> Telemetry.Profile.sym list
val bruteforce : t -> Camouflage.Bruteforce.t

(** [oopses t] — every structured oops recorded since boot, oldest
    first. *)
val oopses : t -> oops list

(** [kernel_symbol t name] — address of a kernel text or data symbol.
    Raises [Not_found]. *)
val kernel_symbol : t -> string -> int64

(** [syscall t ~nr ~args] — enter the kernel from the host (as a user
    thread would via SVC) and run the handler to completion. *)
val syscall : t -> nr:int -> args:int64 list -> syscall_outcome

(** [create_task t] — allocate and initialize a new task (fresh user
    keys, prefabricated kernel stack frame, signed stored SP). *)
val create_task : t -> task

(** [fork t] — run the machine-side fork handler, then complete the
    child (new pid, stack, re-signed stored SP). *)
val fork : t -> (task, string) result

(** [switch_to t next] — run [cpu_switch_to] on the machine, updating
    [current]. Returns the machine outcome. *)
val switch_to : t -> task -> syscall_outcome

(** [run_work t ~work_va] — dispatch a work item through the protected
    [run_work] kernel routine. *)
val run_work : t -> work_va:int64 -> syscall_outcome

(** [run_timers t] — fire armed timers whose expiry (against the virtual
    cycle counter) has passed; every callback is authenticated before
    the indirect call. *)
val run_timers : t -> syscall_outcome

(** [load_module t obj] — verify and load a kernel object into the
    module area. *)
val load_module : t -> Kelf.Object_file.t -> (Kelf.Loader.placed, Kelf.Loader.error) result

(** [unload_module t placed] — unmap a loaded module's regions (lifting
    their stage-2 protection) and, if it was the most recent allocation,
    roll the module-area bump allocator back so the next {!load_module}
    reuses the same addresses. *)
val unload_module : t -> Kelf.Loader.placed -> unit

(** [map_user_program t prog] — assemble a user program into the current
    task's user text and return its layout. *)
val map_user_program : t -> Asm.program -> Asm.layout

(** [run_user t ~entry] — execute user code at EL0 until exit, kill or
    panic, dispatching syscalls along the way.

    [max_insns] is the instruction budget, counted over user
    instructions across syscalls (kernel-side work is free), so a hang
    that keeps making syscalls blows it like any other. A blown budget
    is handled by the kernel watchdog: the run is retried with a doubled
    budget (charging a backoff) up to two times before the task is
    killed with {!Watchdog_expired} — a recoverable transient stall gets
    a grace period, a genuine hang escalates. *)
val run_user : ?max_insns:int -> t -> entry:int64 -> user_exit

(** [spawn_user_task t ~entry] — a new task with its own user stack and
    an initial user context starting at [entry]. *)
val spawn_user_task : t -> entry:int64 -> task

type smp_stats = {
  smp_exits : (int * int * user_exit) list;
      (** cpu, pid, exit status, in completion order *)
  smp_slices : int;
  smp_preemptions : int;
  smp_migrations : int;  (** tasks pulled across cores by IPIs *)
  smp_ipis : int;  (** doorbell rings during the run *)
  smp_offlined : int list;  (** cores quarantined during the run, in order *)
  per_cpu_cycles : int64 array;  (** each core's clock at the end *)
  makespan : int64;  (** busiest core's clock: parallel simulated time *)
}

(** [run_smp t ~tasks] — the scheduler for every core count (1 to 16).
    Preemptive round-robin over per-CPU run queues, cycle-interleaved
    across the machine's cores: every scheduling round
    visits the cores in order and runs one [quantum] on each, so each
    core's kernel entries (with their per-CPU key installs) execute on
    that core's own register file. A quantum counts user instructions
    across inline syscalls; the kernel-side work does not. When it
    expires, a timer-IRQ kernel entry saves the user context in the task
    structure, and the task's next slice switches to it through
    [cpu_switch_to]. Tasks are distributed round-robin at
    submission; every [balance_interval] rounds, a core with at least
    two more queued tasks than the idlest core sends it a Reschedule IPI
    and the receiver pulls work over. Fully deterministic: the same seed
    and cpu count give the same exit order and cycle totals.

    [quarantine_after] arms per-CPU quarantine: a core that accumulates
    that many PAC authentication failures is taken offline — it stops
    scheduling and its run queue migrates to the remaining online cores
    (the last online core is never quarantined). Offlined cores are
    reported in [smp_offlined]. Disabled by default.

    [context_integrity] (default off) enables the register-spill
    protection the paper leaves as future work (Section 8, X7): a
    chained PACGA MAC is taken over the saved user context at
    preemption and verified before the task resumes, on whichever core;
    a tampered context kills the task with
    ["context integrity: SIGKILL"] instead of resuming it. Inactive on
    a PAuth-less part. *)
val run_smp :
  ?quantum:int ->
  ?max_slices:int ->
  ?balance_interval:int ->
  ?quarantine_after:int ->
  ?context_integrity:bool ->
  t ->
  tasks:task list ->
  smp_stats

(** [unkeyed_cpus t] — per-CPU key-install audit: every core whose key
    registers do not hold the XOM setter's material, with the missing
    keys. A healthy SMP boot returns [[]]; a core that skipped the
    setter shows up here and faults on its first authenticated return. *)
val unkeyed_cpus : t -> (int * Sysreg.pauth_key list) list

(** [key_installs_on t ~cpu] — how many times core [cpu] has executed
    the XOM key setter since bring-up (its per-CPU counter). *)
val key_installs_on : t -> cpu:int -> int

(** [install_kernel_keys t] — execute the XOM key setter; exposed for
    the key-switch benchmark (E1). *)
val install_kernel_keys : t -> unit

(** [restore_user_keys t] — execute the user-key restore routine for the
    current task. *)
val restore_user_keys : t -> unit

(** [kernel_uses_pauth t] — whether this configuration switches keys on
    entry/exit. *)
val kernel_uses_pauth : t -> bool

(** [console_output t] — everything written to file descriptors 1 and 2
    (the console device) so far, in order. *)
val console_output : t -> string

(** [verify_syscall_table t] — re-measure the chained PACGA MAC of the
    syscall table (GA key) and compare with the boot-time golden value:
    the kernel integrity monitor, defense in depth over the stage-2
    write protection. Always [true] on a PAuth-less part, where the
    monitor is inactive. *)
val verify_syscall_table : t -> bool

(** Whole-system snapshots — the boot-once / fork-many primitive.

    [snapshot t] captures the machine ({!Aarch64.Machine.snapshot}:
    copy-on-write memory, translation tables, every core's registers and
    PAuth keys, the GIC, telemetry when enabled) plus all host-side
    kernel state: scheduler mirrors, the task list and allocators, the
    console and oops logs, RNG stream position, brute-force accounting
    and the held-out attestation MACs. [restore t s] rewinds [t] to the
    captured point; one snapshot supports any number of restores, each
    proportional to what the intervening run dirtied. Restoring also
    drops step hooks installed after the capture (a fault injector armed
    for one trial does not leak into the next). The host-speed caches
    stay warm across a restore ({!Aarch64.Machine.restore}). A snapshot
    is tied to the system it was taken from: restoring it into a
    different system is not supported. *)
type snapshot

val snapshot : t -> snapshot
val restore : t -> snapshot -> unit
