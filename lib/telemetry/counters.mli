(** PMU-style per-core counter file (PR 4 tentpole, layer 1).

    One [t] hangs off each core's telemetry sink; the interpreter calls
    {!retire} once per executed instruction with the instruction's
    class and cycle charge, and the kernel/machine layers bump the
    discrete event counters. Everything is plain int64 arithmetic so a
    disabled run pays only the [option] match in the interpreter.

    The library deliberately does not depend on [Aarch64]: the
    instruction taxonomy here is telemetry's own, and [Cpu] maps its
    [Insn.t] values into it. *)

(** Retirement class of one instruction. [Pac] covers PACIA/PACIB/
    PACDA/PACDB/PACIA1716; [Pacga] the generic-key MAC; [Aut] the
    non-branching authenticators; [Auth_branch] RETA*/BRA*/BLRA*;
    [Sys] MRS/MSR/ISB; [Exception] SVC/ERET/BRK/HLT. *)
type insn_class =
  | Alu
  | Load
  | Store
  | Branch
  | Pac
  | Pacga
  | Aut
  | Auth_branch
  | Xpac
  | Sys
  | Exception

val class_count : int

type t

(** Immutable copy of a counter file. [classes] is indexed by
    the declaration order of {!insn_class} and must not be mutated by
    callers. *)
type snapshot = {
  retired : int64;
  cycles : int64;
  classes : int64 array;
  auth_failures : int64;
  key_installs : int64;
  exception_entries : int64;
  exception_returns : int64;
  mmu_walks : int64;
  ipis_sent : int64;
  ipis_received : int64;
}

val create : unit -> t

(** Record one retired instruction of class [cls] costing [cycles]. *)
val retire : t -> cls:insn_class -> cycles:int -> unit

val count_auth_failure : t -> unit
val count_key_install : t -> unit
val count_exception_entry : t -> unit
val count_exception_return : t -> unit
val count_mmu_walk : t -> unit
val count_ipi_sent : t -> unit
val count_ipi_received : t -> unit

val snapshot : t -> snapshot

(** [restore t s] overwrites the live counter file with [s] — the
    inverse of {!snapshot}, used by machine state restore so an
    observed forked run matches an observed booted one bit-for-bit. *)
val restore : t -> snapshot -> unit

val zero : snapshot

(** [diff ~after ~before] — element-wise [after - before]. *)
val diff : after:snapshot -> before:snapshot -> snapshot

(** Element-wise sum, for folding per-core files into a machine view. *)
val merge : snapshot -> snapshot -> snapshot

(** Derived: PAC-constructing ops ([Pac] + [Pacga] classes). *)
val pac_ops : snapshot -> int64

(** Derived: authenticating ops ([Aut] + [Auth_branch] classes). *)
val aut_ops : snapshot -> int64

(** Live reads for the guest-visible PMEVCNTRn sysregs. *)
val live_pac_ops : t -> int64

val live_aut_ops : t -> int64
val live_auth_failures : t -> int64

val to_string : snapshot -> string

(** One-line JSON object; keys in a fixed order, byte-stable. *)
val to_json : snapshot -> string
