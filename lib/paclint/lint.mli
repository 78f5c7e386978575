(** Forward abstract interpretation of PAC state over a CFG.

    Each general-purpose register is tracked through a small lattice of
    pointer provenances; the stack pointer is tracked as a byte delta
    from its value at function entry. The fixpoint is a may-analysis:
    joins keep the most dangerous provenance, so a value that is
    attacker-derived on any path stays attacker-derived. Diagnostics are
    reported in a deterministic second pass over the fixed point.

    Checks and the paper claims they machine-check:
    - key-register / SCTLR accesses outside the audited setter
      (Camouflage §4.1, §6.2.2) — flow-insensitive, applied even to
      unreachable blocks;
    - unprotected returns and SP-modifier mismatches (Camouflage §4.2);
    - signing oracles, unauthenticated indirect branches, and
      authenticated-pointer spills ("PAC it up" §5, "PACTight" §3). *)

open Aarch64

(** What the code under analysis promised. Derived from [Config.t] by
    [Core.Verifier.policy]; kept structural here so paclint sits below
    core in the dependency order. *)
type policy = {
  protect_return : bool;
      (** scheme signs return addresses: RET needs an authenticated LR *)
  protect_pointers : bool;
      (** function pointers are signed at rest: BR/BLR need an
          authenticated or code-generated target *)
  sp_modifier : bool;
      (** the modifier embeds SP ([Sp_only]/[Parts]/[Camouflage]):
          sign/authenticate SP deltas must pair up *)
  allowed_key_writer : int64 -> bool;
      (** addresses of the audited key setter, where MSRs to key
          registers and SCTLR are legitimate *)
}

(** Registers the instrumentation reserves as scratch and a raw function
    body must not write: x15 ([Core.Instrument.scratch]), x16, x17. *)
val reserved_registers : Insn.reg list

(** Parallel-map capability. paclint sits below [lib/fleet] in the
    library order, so it cannot name [Fleet.Pool]; callers that want
    parallel whole-image analysis plug [Fleet.Pool.map] in through this
    record. The function must place result [i] at slot [i] — index
    merging is what makes reports byte-identical for any worker count. *)
type par = { pmap : 'a. jobs:int -> (int -> 'a) -> 'a array }

(** Sequential {!par}: a plain [Array.init]. *)
val seq_par : par

(** {1 Abstract domain}

    Exposed so {!Summary} can seed entry states, join exit states and
    translate states across call boundaries. *)

(** Provenance of a register value. The join order is by attacker reach:
    [Raw] (loaded from writable memory, never authenticated) dominates
    [Stripped] (had its PAC removed) dominates [Signed] (carries a PAC
    that was never checked) dominates everything code-controlled
    ([Const], [Sp_snap], [Authenticated], [Top]); unequal
    code-controlled values join to [Top]. *)
type pv =
  | Const
  | Sp_snap of int  (** SP + delta snapshot, for modifier tracking *)
  | Raw
  | Signed of Sysreg.pauth_key
  | Authenticated
  | Stripped
  | Top

type state = { regs : pv array; (* x0..x30 *) mutable delta : int option }

(** Fresh function-entry state: every register [Top], SP delta 0. *)
val entry_state : unit -> state

val copy : state -> state
val equal_state : state -> state -> bool
val join_state : state -> state -> state

(** [analyze policy cfg ~entry ~call ~indirect_resolved ~visit] — the
    one dataflow driver: the worklist fixpoint of the transfer function
    over [cfg] from [entry] (copied) at each of [cfg.entries], then one
    reporting pass over the fixed point in block order. Returns the
    normalized diagnostics: the transfer function's findings on reached
    blocks, the key rule ({!key_access}) on unreached ones, and — under
    [policy.sp_modifier] — the SP-modifier pairing, judged per entry
    over the blocks it reaches.

    - [call va insn st] fires at BL/BLR/BLRA before the conservative
      clobber; return [true] after applying a callee summary to [st] to
      suppress the clobber.
    - [indirect_resolved va] is [true] when the BR/BRA at [va] has
      statically resolved targets, suppressing the unresolved-indirect
      diagnostic.
    - [visit va insn st] sees each reached instruction once, in the
      reporting pass, with the state before it; [st] is the driver's own
      and changes after the call, so copy what must outlive it. *)
val analyze :
  policy ->
  Cfg.t ->
  entry:state ->
  call:(int64 -> Insn.t -> state -> bool) ->
  indirect_resolved:(int64 -> bool) ->
  visit:(int64 -> Insn.t -> state -> unit) ->
  Diag.t list

(** [key_access ~allowed va insn] — the flow-insensitive key-register
    rule on one instruction: key reads are always flagged, key and
    SCTLR writes outside [allowed]. *)
val key_access : allowed:(int64 -> bool) -> int64 -> Insn.t -> Diag.t option

(** [decode_region ~read32 ~base ~size] — decode every word of
    [base, base+size); words that do not decode are skipped (data cannot
    execute). *)
val decode_region :
  read32:(int64 -> int32) -> base:int64 -> size:int -> (int64 * Insn.t) array

(** [lint_insns ~policy ?entries insns] — analyze an instruction
    listing. [entries] are function-entry addresses (default: the lowest
    address); in-range BL targets are added automatically. Diagnostics
    come back in ascending address order. *)
val lint_insns :
  policy:policy -> ?entries:int64 list -> (int64 * Insn.t) list -> Diag.t list

(** [check_body items] — the reserved-register rule over a raw,
    pre-instrumentation function body: warn on any write to
    {!reserved_registers}. Writes to x16/x17 that feed a 1716-form or
    combined-branch PAuth instruction within the next few instructions
    are the architectural idiom and exempt. Diagnostic [va]s are byte
    offsets into the body (it has no address yet). Instrumented streams
    legitimately use the scratch registers, so this check runs on bodies
    only. *)
val check_body : Asm.item list -> Diag.t list
