(** Deterministic fault injector.

    A fault specification pairs a {e trigger} (when to strike: a cycle
    window, a PC range, a step count) with a
    {e model} (what breaks: bit flips in a memory word, a GPR, the PAC
    field of a signed pointer, or a PAuth key register; or skipping the
    triggered instruction) and a {e persistence} ([Transient] faults
    strike once, [Stuck] faults model a stuck-at hardware defect that
    keeps forcing the flipped bits for the rest of the run — the only
    way to defeat state the kernel rewrites on every entry, such as the
    key registers re-installed by the XOM setter).

    The injector attaches to cores through {!Cpu.set_step_hook}: it is
    evaluated between decode and execute of each instruction it may act
    on, so a machine run with an armed injector that never triggers
    retires the exact same instruction stream, cycle for cycle, as an
    uninstrumented one. Which instructions those are follows the
    trigger and the strike:
    - an [At_cycle_window] trigger cannot be due below its [lo], so
      arming it sets each core's horizon ({!Cpu.set_step_horizon}) to
      [lo], and a traces core runs compiled blocks until then;
    - every other trigger is evaluated on every instruction until the
      fault strikes;
    - a [Transient] fault is spent once it strikes, so the injector
      removes its hook from every core it is armed on;
    - a [Stuck] fault is re-forced on whichever core runs next, so every
      armed core's horizon drops to 0 and the hook sees every later
      instruction.
    Everything is plain deterministic state: the same spec against the
    same machine gives the same injection at the same instruction, on
    every execution tier. *)

open Aarch64

type trigger =
  | Always  (** strike at the first opportunity *)
  | At_cycle_window of { lo : int64; hi : int64 }
      (** strike at the first instruction whose core cycle counter lies
          in \[lo, hi\] *)
  | In_pc_range of { lo : int64; hi : int64 }  (** inclusive PC range *)
  | After_steps of int  (** strike once [n] hooked instructions retired *)

type model =
  | Mem_flip of { va : int64; bits : int list }
      (** flip the given bit positions of the 64-bit word at [va]
          (kernel or user), bypassing permissions like a physical flip *)
  | Gpr_flip of { reg : int; bits : int list }  (** flip bits of X[reg] *)
  | Pac_field_flip of { va : int64; rank : int }
      (** flip one bit {e inside the PAC field} of the signed pointer
          stored at [va]: [rank] indexes the configured PAC bit
          positions (modulo their count) *)
  | Key_flip of { key : Sysreg.pauth_key; high_half : bool; bit : int }
      (** flip one bit of a PAuth key register on the struck core *)
  | Skip_insn  (** suppress the triggered instruction (it still issues) *)

type persistence = Transient | Stuck

type spec = { trigger : trigger; model : model; persistence : persistence }

val spec_to_string : spec -> string

type t

(** [create spec] — fresh injector state (not yet attached). *)
val create : spec -> t

(** [arm t cpu] installs the injector as [cpu]'s step hook, with the
    horizon of its trigger (the window's [lo] for [At_cycle_window], 0
    otherwise), and adds [cpu] to the cores it is armed on. A single
    injector may be armed on several cores ({!arm_all}); its
    trigger/once state is shared, so a [Transient] fault strikes once
    machine-wide and then leaves every armed core, and a [Stuck] fault
    is re-forced on all of them. A snapshot restore brings back a
    core's hook and horizon as they were captured, so arm again after
    one. *)
val arm : t -> Cpu.t -> unit

(** [arm_all t machine] arms every core. *)
val arm_all : t -> Machine.t -> unit

(** [fired t] — has the fault struck at least once? *)
val fired : t -> bool

(** [injections t] — how many times the model was applied: 1 for the
    strike, plus, for a [Stuck] fault, one for each later re-application
    (the flipped bits forced again before every later hooked
    instruction, or the instruction skipped again each time the trigger
    is due). *)
val injections : t -> int

(** [first_strike t] — [(cpu, pc)] of the first injection, if any. *)
val first_strike : t -> (int * int64) option
