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

(** An instruction compiled by {!op_of}: applied to a core, it executes
    the instruction on that core and reads and writes nothing else. *)
type op = t -> unit

(** Verdict returned by a step hook: execute the decoded instruction
    normally, or suppress its effects (the instruction still fetches,
    charges its cycles and appears in the trace ring, but only the PC
    advances — the instruction-skip fault model). *)
type hook_action = Exec | Skip

(** The execution-tier selector. All three tiers are bit-identical in
    guest terms — state, cycles, telemetry and fault kinds never differ
    (the three-tier differential fuzzer in [test/test_fuzz.ml] enforces
    this); the selector only trades host-side speed:

    Every tier runs the same {!op_of} ops:

    - [Interp]: fetch, decode, compile and run once per instruction,
      the decoded-instruction cache disabled, and every MAC from the
      cipher itself;
    - [Icache]: the decoded-instruction cache + micro-TLB (the
      default); a line holds its op, compiled at fill, so a hit runs
      it directly, and PAC ops look MACs up in the core's PAC memo;
    - [Traces]: hot straight-line regions additionally chain their
      lines' ops into superblocks with block-to-block chaining; cold
      and cut code still takes the single-step path through the
      icache. *)
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

    [icache] substitutes a shared decoded-instruction cache compiling
    with {!op_of} (a {!Machine} passes one instance to every core —
    entries and their ops depend only on (EL, VA page) and the shared
    tables, never on per-core state); without it a private cache is
    created over this core's memory and MMU, disabled on an [Interp]
    core. The cache is a host-speed optimization only: execution with
    it on or off is bit-identical, including cycles and telemetry.

    Each core keeps a {!Pac.memo} over [cipher] with {!Vaddr.linux_user}
    and {!Vaddr.linux_kernel} as its layouts: a caching one on the
    [Icache] and [Traces] tiers, where every PAC, AUT and PACGA op, the
    1716 forms and the authenticated branches included, looks its MAC
    up before it runs [cipher], and an uncached one on [Interp], which
    runs [cipher] for every MAC. Entries are keyed on values, so key
    writes and {!restore} leave the memo warm. It caches MACs, not
    verdicts: a wrong PAC fails AUT on every tier alike.

    [tier] selects the execution tier (default [Icache]). A [Traces]
    core creates a private superblock trace cache — traces are per-core
    (a block's chain captures this core), unlike the shared icache —
    and registers its flush with {!Icache.on_stale}: a store to code, a
    moved MMU generation or a flushing MSR on any core sharing the
    icache kills this core's blocks. Its icache must be enabled
    ([Invalid_argument] otherwise), or no store would reach them.

    [trace_depth] sizes the retired-instruction ring buffer behind
    {!recent_trace} (default 32); deep call chains in oops dumps may
    want more. [id] is the core number reported by {!id} (default 0). *)
val create :
  ?cost:Cost.profile ->
  ?has_pauth:bool ->
  ?cipher:Qarma.Block.t ->
  ?mem:Mem.t ->
  ?mmu:Mmu.t ->
  ?icache:op Icache.t ->
  ?tier:tier ->
  ?trace_depth:int ->
  ?id:int ->
  unit ->
  t

val mem : t -> Mem.t
val mmu : t -> Mmu.t

(** The decoded-instruction cache this core fetches through. *)
val icache : t -> op Icache.t

(** [op_of insn ~el ~next] compiles [insn], decoded at [next - 4] under
    [el], into an op: the one definition of what every instruction does,
    run by every tier. Compile time binds operands, immediates, [next],
    branch targets and [el]'s SP bank; keys, SCTLR, the sysreg lock and
    the telemetry sink are read from the core at run time, so one op
    serves every core sharing an icache. Memory ops carry a one-page
    cache of the last frame they touched, valid while the MMU generation
    stands still; BFI and UBFX bind their masks, and one whose field is
    out of range raises [Val64]'s [Invalid_argument] when it runs. The
    PAC family runs {!Pac}'s slot-addressed entry points on the core's
    state with the key's slots bound, so a memo hit allocates nothing.
    Apply an op only to a core at [el] whose PC is the instruction's
    address; it sets the PC after everything that can fault, and a stop
    (SVC, ERET, BRK, HLT, a denied sysreg access) or a translation fault
    escapes it as an exception that {!run} turns into a {!stop}. *)
val op_of : Insn.t -> el:El.t -> next:int64 -> op

(** The execution tier this core was created with. *)
val tier : t -> tier

(** Superblock trace-cache counters, when this is a [Traces] core. *)
val trace_stats : t -> Traces.stats option

(** PAC memo counters: MACs the core's ops looked up, and how many of
    them the memo answered without running the cipher. Host-side only:
    they reach no fingerprint, replay log or report. *)
type pac_memo_stats = { lookups : int; hits : int }

(** [pac_memo_stats t] — a copy of the counters. An [Interp] core
    makes no lookups. *)
val pac_memo_stats : t -> pac_memo_stats

(** [id t] — the core number given at {!create} (0 on a uniprocessor). *)
val id : t -> int
val cipher : t -> Qarma.Block.t
val cost_profile : t -> Cost.profile
val has_pauth : t -> bool

(** The PAC layouts of user and kernel pointers: {!Vaddr.linux_user}
    and {!Vaddr.linux_kernel} on every core. *)
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

(** [set_flags_bits t bits] — the inverse of {!flags_bits}. *)
val set_flags_bits : t -> int -> unit

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
    key registers, memory, translation tables) — this is the
    fault-injection attachment point — and its verdict decides whether
    the instruction executes or is skipped. The instruction already
    fetched runs as fetched, even if the hook rewrote its word; if the
    hook moved the MMU generation it runs a freshly compiled op, so no
    stale page cache outlives the hook. The hook must not change the
    core's EL or PC (the fetched op is bound to both) and must not call
    {!run} reentrantly. It may install or remove the step hook of any
    core, this one included, and set their horizons. Installing or
    removing a hook resets the core's horizon to 0. *)
val set_step_hook : t -> (t -> pc:int64 -> Insn.t -> hook_action) option -> unit

(** [set_step_horizon t c] records the step hook's promise that it acts
    on no instruction that starts (is hooked) below cycle [c] of this
    core: called there, it would return [Exec] and change no machine
    state. A [Traces] core with no sink then runs compiled blocks while
    its cycle count is below [c] and calls the hook on no instruction
    there (see {!run}). A horizon of 0 (the default, and what
    {!set_step_hook} sets) or one the cycle count has passed asks for
    the hook on every instruction; one at or past 2^62 cycles may read
    as an earlier one, so the hook is called sooner than it asked, never
    later. The horizon belongs to the hook: {!capture} and {!restore}
    carry it along with it. *)
val set_step_horizon : t -> int64 -> unit

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

(** The host-return address: jumping here stops execution with
    [Sentinel_return]. It is canonical (so it survives PAC/AUT round
    trips in instrumented prologues) but never mapped. *)
val sentinel : int64

(** [run ?max_insns t] executes until a stop (default limit 10 million
    instructions) in the one run loop every tier shares. Hot code on a
    [Traces] core with no telemetry sink runs as chained blocks, with
    no step hook at all or while the cycle count is below the hook's
    horizon ({!set_step_horizon}). There the blocks run under an
    instruction budget of ceil((horizon - cycles) / c) instructions,
    where c is the most cycles an instruction that does not stop the
    run charges (5 on cortex-a53, for BLRA, BRA and RETA), so no
    instruction that skips the hook starts at or past the horizon. From
    the horizon on the core single-steps with the hook, and it goes back
    to blocks within the same run once the hook is removed or its
    horizon moves ahead. Every other instruction takes the single-step
    path (fetch, hook, charge, retire, sink, run the line's op). *)
val run : ?max_insns:int -> t -> stop

(** [last_run_tier t] — the tier the most recent {!run} actually
    executed under. A [Traces] core reports [Traces] for a run that ran
    under its trace cache, with no sink and either no step hook or one
    whose horizon lay ahead for part of the run, and [Icache] for a run
    that only single-stepped: one with a telemetry sink, or with a hook
    whose horizon it had passed and that stayed attached. Other tiers
    report their own. Before any run it reports the configured tier. *)
val last_run_tier : t -> tier

(** [call ?max_insns t addr] sets LR to {!sentinel}, jumps to [addr] and
    runs; a well-behaved function ends with [Sentinel_return]. *)
val call : ?max_insns:int -> t -> int64 -> stop

(** [pac_key t k] reads key [k] from the system registers, for host-side
    callers; the ops read the key's slots themselves. *)
val pac_key : t -> Sysreg.pauth_key -> Pac.key

(** [pauth_enabled t k] — SCTLR_EL1 enable bit for [k] ([GA] is always
    enabled on a PAuth part). *)
val pauth_enabled : t -> Sysreg.pauth_key -> bool

(** [recent_trace ?limit t] — the most recently retired (pc, insn)
    pairs, oldest first (up to [trace_depth] are retained). Powers the
    kernel's oops dumps. *)
val recent_trace : ?limit:int -> t -> (int64 * Insn.t) list

(** [dump_state t] — multi-line pretty-printed architectural state:
    core id, PC, EL, cycle and retirement counters, the general
    registers, banked stack pointers, flags, and the last [trace_limit]
    retired instructions disassembled (default: the full configured
    trace depth). An attached telemetry sink adds nothing, so a dump is
    the same whether or not the run was observed. Used by the kernel's
    oops and panic paths. *)
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
    attachments (step hook and its horizon, hypervisor lock predicate,
    last run tier).
    [restore] writes the sysreg table back directly without the
    per-write cache flush of {!set_sysreg}, and flushes neither the
    icache nor the trace cache: ops read sysregs only at run time, and
    the costs a block binds depend on none. The PAC memo is neither
    captured nor restored: it is keyed on key values, so every MAC it
    holds stays true whatever keys a restore writes back. Callers
    restoring code or translation tables invalidate through [Mem] and
    the [Mmu] generation, as {!Machine.restore} does. *)
type captured

val capture : t -> captured
val restore : t -> captured -> unit
