(** The model-machine interpreter.

    Executes encoded instructions from memory through the two-stage MMU,
    implements the PAuth instruction family with QARMA-backed PACs, and
    accounts cycles per the {!Cost} profile. Exceptions (SVC, faults,
    ERET) stop execution and surface to the caller: the kernel layer
    plays the role of the architectural vector table, which keeps the
    policy code (key switching, PAC-failure accounting, panic) visible
    and testable. *)

type fault =
  | Mmu_fault of Mmu.fault
  | Undefined_instruction of int32
  | Hyp_denied of Sysreg.t  (** hypervisor-locked register written from EL1 *)
  | El_denied of Sysreg.t  (** system register access from EL0 *)

type stop =
  | Svc of int  (** supervisor call: syscall entry *)
  | Brk of int
  | Hlt of int  (** the kernel-panic primitive *)
  | Fault of { fault : fault; pc : int64 }
  | Eret_done  (** ERET retired; EL/PC already restored *)
  | Sentinel_return  (** control returned to the host orchestrator *)
  | Insn_limit

type t

(** Verdict returned by a step hook: execute the decoded instruction
    normally, or suppress its effects (the instruction still fetches,
    charges its cycles and appears in the trace ring, but only the PC
    advances — the instruction-skip fault model). *)
type hook_action = Exec | Skip

(** The execution-tier selector. All three tiers are bit-identical in
    guest terms — state, cycles, telemetry and fault kinds never differ
    (the three-tier differential fuzzer in [test/test_fuzz.ml] enforces
    this); the selector only trades host-side speed:

    - [Interp]: plain fetch/decode/execute, the decoded-instruction
      cache disabled;
    - [Icache]: the decoded-instruction cache + micro-TLB (the
      default);
    - [Traces]: hot straight-line regions additionally compile into
      superblocks of pre-linked closures with block-to-block chaining;
      cold and cut code still executes through the icache path. *)
type tier = Interp | Icache | Traces

val tier_name : tier -> string

(** [tier_of_string s] — parse ["interp" | "icache" | "traces"]. *)
val tier_of_string : string -> tier option

(** All tiers, [Interp] first (for tier-matrix tests and benches). *)
val all_tiers : tier list

(** [create ()] builds a machine with fresh memory and translation
    tables. [has_pauth] selects an ARMv8.3 core; with [false] the
    PAC/AUT 1716 hint forms execute as NOP and all other PAuth
    instructions are undefined, modeling an ARMv8.0 part.

    [mem]/[mmu] substitute shared storage and translation tables: an
    SMP {!Machine} passes the same pair to every core so that all cores
    observe one physical memory while keeping private register files,
    EL state, banked SPs, key registers and cycle counters.

    [icache] substitutes a shared decoded-instruction cache (a
    {!Machine} passes one instance to every core — entries depend only
    on (EL, VA page) and the shared tables, never on per-core state);
    without it a private cache is created over this core's memory and
    MMU, disabled on an [Interp] core. The cache is a host-speed
    optimization only: execution with it on or off is bit-identical,
    including cycles and telemetry.

    [tier] selects the execution tier (default [Icache]). A [Traces]
    core creates a private superblock trace cache over its memory/MMU
    pair — traces are per-core (compiled blocks capture this core's
    register file), unlike the shared icache.

    [trace_depth] sizes the retired-instruction ring buffer behind
    {!recent_trace} (default 32); deep call chains in oops dumps may
    want more. [id] is the core number reported by {!id} (default 0). *)
val create :
  ?cost:Cost.profile ->
  ?has_pauth:bool ->
  ?user_cfg:Vaddr.config ->
  ?kernel_cfg:Vaddr.config ->
  ?cipher:Qarma.Block.t ->
  ?mem:Mem.t ->
  ?mmu:Mmu.t ->
  ?icache:Icache.t ->
  ?tier:tier ->
  ?trace_depth:int ->
  ?id:int ->
  unit ->
  t

val mem : t -> Mem.t
val mmu : t -> Mmu.t

(** The decoded-instruction cache this core fetches through. *)
val icache : t -> Icache.t

(** The execution tier this core was created with. *)
val tier : t -> tier

(** Superblock trace-cache counters, when this is a [Traces] core. *)
val trace_stats : t -> Traces.stats option

(** [id t] — the core number given at {!create} (0 on a uniprocessor). *)
val id : t -> int
val cipher : t -> Qarma.Block.t
val cost_profile : t -> Cost.profile
val has_pauth : t -> bool
val user_cfg : t -> Vaddr.config
val kernel_cfg : t -> Vaddr.config

(** [pointer_cfg t va] — the PAC layout governing [va], chosen by its
    translation-table select bit. *)
val pointer_cfg : t -> int64 -> Vaddr.config

val reg : t -> Insn.reg -> int64
val set_reg : t -> Insn.reg -> int64 -> unit
val sysreg : t -> Sysreg.t -> int64
val set_sysreg : t -> Sysreg.t -> int64 -> unit
val pc : t -> int64
val set_pc : t -> int64 -> unit
val el : t -> El.t
val set_el : t -> El.t -> unit

(** Banked stack pointers. *)
val sp_of : t -> El.t -> int64

val set_sp_of : t -> El.t -> int64 -> unit

val cycles : t -> int64
val insns_retired : t -> int64

(** [flags_bits t] — the NZCV flags packed as [N:3 Z:2 C:1 V:0], for
    state fingerprints. *)
val flags_bits : t -> int

(** [charge t n] adds [n] cycles of orchestrator-accounted cost (e.g.
    exception entry performed by the host-side kernel layer). *)
val charge : t -> int -> unit

(** [set_sysreg_lock t f] installs the hypervisor lockdown predicate:
    EL1 writes to registers for which [f] returns [true] fault with
    [Hyp_denied]. *)
val set_sysreg_lock : t -> (Sysreg.t -> bool) -> unit

(** [set_step_hook t h] installs (or with [None] removes) a pre-execute
    observation point: [h] runs after fetch + decode and before the
    instruction executes, receiving the core, the current PC and the
    decoded instruction. The hook may mutate machine state (registers,
    key registers, memory) — this is the fault-injection attachment
    point — and its verdict decides whether the instruction executes or
    is skipped. The hook must not call {!step} reentrantly. *)
val set_step_hook : t -> (t -> pc:int64 -> Insn.t -> hook_action) option -> unit

(** [attach_telemetry t sink] connects a per-core telemetry endpoint:
    every retired instruction is classified into the sink's counter
    file and cycle-attribution profile, and the machine/kernel layers
    emit structured events through it. Telemetry is pure observation —
    attaching a sink never changes architectural state or cycle
    totals (the PMEVCNTRn sysregs excepted, which read 0 without a
    sink). *)
val attach_telemetry : t -> Telemetry.Sink.t -> unit

val detach_telemetry : t -> unit
val telemetry : t -> Telemetry.Sink.t option

(** [class_of_insn i] / [origin_of_insn i] — the telemetry taxonomy:
    retirement class (mirrors the cost model's grouping) and
    instrumentation origin (PAC construction / authentication /
    reserved-register modifier arithmetic / baseline). Exposed for the
    profiler's tests. *)
val class_of_insn : Insn.t -> Telemetry.Counters.insn_class

val origin_of_insn : Insn.t -> Telemetry.Profile.origin

(** The host-return address: jumping here stops execution with
    [Sentinel_return]. It is canonical (so it survives PAC/AUT round
    trips in instrumented prologues) but never mapped. *)
val sentinel : int64

(** [step t] executes one instruction; [None] means normal retirement. *)
val step : t -> stop option

(** [run ?max_insns t] steps until a stop (default limit 10 million).
    When neither a step hook nor a telemetry sink is attached, the loop
    commits to a fast path that skips both disabled-path checks — the
    selection is made once per call, not per step. *)
val run : ?max_insns:int -> t -> stop

(** [last_run_tier t] — the tier the most recent {!run} actually
    executed under: a [Traces] core with a step hook or telemetry sink
    attached drops to the icache path and reports [Icache]. Before any
    run it reports the configured tier. *)
val last_run_tier : t -> tier

(** [call ?max_insns t addr] sets LR to {!sentinel}, jumps to [addr] and
    runs; a well-behaved function ends with [Sentinel_return]. *)
val call : ?max_insns:int -> t -> int64 -> stop

(** [pac_key t k] reads key [k] from the system registers. *)
val pac_key : t -> Sysreg.pauth_key -> Pac.key

(** [pauth_enabled t k] — SCTLR_EL1 enable bit for [k] ([GA] is always
    enabled on a PAuth part). *)
val pauth_enabled : t -> Sysreg.pauth_key -> bool

(** [recent_trace ?limit t] — the most recently retired (pc, insn)
    pairs, oldest first (up to [trace_depth] are retained). Powers the
    kernel's oops dumps. *)
val recent_trace : ?limit:int -> t -> (int64 * Insn.t) list

(** [dump_state t] — multi-line pretty-printed machine state: core id,
    PC, EL, cycle and retirement counters, the general registers, banked
    stack pointers, flags, the telemetry counter snapshot (when a sink
    is attached), and the last [trace_limit] retired instructions
    disassembled (default: the full configured trace depth). Used by
    the kernel's oops and panic paths. *)
val dump_state : ?trace_limit:int -> t -> string

val fault_to_string : fault -> string
val stop_to_string : stop -> string

(** [fold_sysregs t f acc] folds over every system register that has
    been written, in a deterministic (sorted) order — the fingerprint
    enumeration. Registers never written (which read as 0 or are
    synthesized from counters) are not visited. *)
val fold_sysregs : t -> ('a -> Sysreg.t -> int64 -> 'a) -> 'a -> 'a

(** Full per-core mutable state capture for {!Machine} snapshots:
    registers, banked SPs, PC, EL, flags, system registers (PAuth keys
    included), cycle/retirement counters, the trace ring, and host-side
    attachments (step hook, hypervisor lock predicate, last run tier).
    [restore] writes the sysreg table back directly without the
    per-write icache flush of {!set_sysreg} — callers restoring a whole
    machine must flush the shared icache once afterwards, which is what
    {!Machine.restore} does. *)
type captured

val capture : t -> captured
val restore : t -> captured -> unit
