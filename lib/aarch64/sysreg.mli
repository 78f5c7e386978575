(** System registers of the model machine.

    The ten PAuth key halves, the control registers the Camouflage
    verifier must protect (SCTLR_EL1 PAuth-enable flags, translation
    table bases), and the exception-handling registers. Key registers
    are shared between exception levels — they are not banked — which is
    the root cause of the paper's key-switching requirement. *)

type t =
  | APIAKeyLo_EL1
  | APIAKeyHi_EL1
  | APIBKeyLo_EL1
  | APIBKeyHi_EL1
  | APDAKeyLo_EL1
  | APDAKeyHi_EL1
  | APDBKeyLo_EL1
  | APDBKeyHi_EL1
  | APGAKeyLo_EL1
  | APGAKeyHi_EL1
  | SCTLR_EL1
  | CONTEXTIDR_EL1
  | TTBR0_EL1
  | TTBR1_EL1
  | VBAR_EL1
  | ELR_EL1
  | SPSR_EL1
  | ESR_EL1
  | FAR_EL1
  | TPIDR_EL1
  | CNTVCT_EL0  (** virtual counter, read-only: the cycle counter *)
  | PMCCNTR_EL0  (** PMU cycle counter (always live) *)
  | PMICNTR_EL0  (** PMU instructions-retired counter (always live) *)
  | PMEVCNTR0_EL0  (** PMU event 0: PAC-constructing ops (telemetry) *)
  | PMEVCNTR1_EL0  (** PMU event 1: authenticating ops (telemetry) *)
  | PMEVCNTR2_EL0  (** PMU event 2: authentication failures (telemetry) *)

(** PAuth key selector; GA signs generic data via PACGA. *)
type pauth_key = IA | IB | DA | DB | GA

(** [key_halves k] is the (hi, lo) register pair configuring key [k]. *)
val key_halves : pauth_key -> t * t

(** [is_pauth_key r] is [true] for the ten AP*Key* registers — exactly
    the registers the static verifier forbids reading. *)
val is_pauth_key : t -> bool

(** [is_mmu_control r] — registers whose modification the hypervisor
    locks down (TTBRs and SCTLR). *)
val is_mmu_control : t -> bool

(** [el0_readable r] — registers user code may MRS without trapping:
    the virtual counter and the PMU counters. *)
val el0_readable : t -> bool

(** [sctlr_enable_bit k] — the SCTLR_EL1 bit enabling key [k]; raises
    [Invalid_argument] for [GA], which has no enable bit. *)
val sctlr_enable_bit : pauth_key -> int

(** Stable numeric id, the register's position in {!all}: the
    instruction encoding's field and the register's offset among a
    core's system-register slots. Constant time; [of_id] inverts it. *)
val to_id : t -> int

val of_id : int -> t option
val all : t list
val name : t -> string
