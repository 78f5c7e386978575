(** Typed diagnostics for the PAC-state lint.

    Each finding carries the virtual address, the offending instruction,
    a kind with its evidence, and a one-line fix hint. Severity is
    derived from the kind: anything that lets an attacker forge, strip
    or replay a PAC — or touch the key registers — is an [Error];
    defence-in-depth findings (TOCTOU spills, reserved-register
    clobbers, SP-conditional modifier collisions) are [Warning]s;
    visibility findings that flag analysis limits or object-conditional
    weaknesses rather than code bugs are [Info]s. The loader rejects on
    errors only. *)

open Aarch64

type severity = Info | Warning | Error

(** How a colliding modifier class depends on run-time values. [Static]
    classes are bit-identical at every site (substitution probability
    1); [Sp_dependent] classes collide whenever the stack pointers are
    congruent (attacker-influenceable: stack depths repeat);
    [Object_dependent] classes embed an object address and collide only
    for the same object. *)
type dynamism = Static | Sp_dependent | Object_dependent

(** One modifier-collision class from the census: [sites] PAC/AUT sites
    across more than one function share [(key, cls)], yielding [pairs]
    cross-function substitution-gadget pairs. *)
type collision = {
  ckey : Sysreg.pauth_key;
  cls : string;  (** canonical modifier-expression class *)
  sites : int;
  pairs : int;  (** cross-function (sign, auth) pairs *)
  dynamism : dynamism;
}

type kind =
  | Key_register_read of Sysreg.t
      (** MRS of an AP*Key* register anywhere (§4.1: the kernel never
          reads its keys). *)
  | Key_register_write of Sysreg.t
      (** MSR to an AP*Key* register outside the audited setter
          (§6.2.2). *)
  | Sctlr_write
      (** MSR to SCTLR_EL1 outside the audited setter — could clear the
          PAuth enable bits. *)
  | Unprotected_return
      (** RET reachable with a link register that is raw, stripped, or
          still signed, under a return-protecting scheme. *)
  | Unauthenticated_branch of Insn.reg
      (** BR/BLR through a register whose value came from memory and was
          never authenticated ("PAC it up" forward-edge bypass). *)
  | Signing_oracle of Insn.reg
      (** PAC over a value loaded from memory with no intervening AUT —
          reusable by an attacker to forge pointers ("PAC it up" §5.2). *)
  | Toctou_spill of Insn.reg
      (** An authenticated pointer written back to memory before its
          consuming use — re-load is a time-of-check-to-time-of-use
          window ("PACTight"). *)
  | Modifier_sp_mismatch of int
      (** AUT whose SP-derived modifier offset matches no signing site
          in the same function; payload is the authenticate-site SP
          delta. *)
  | Reserved_clobber of Insn.reg
      (** A function body writes x15/x16/x17, which the instrumentation
          reserves as scratch. *)
  | Unresolved_indirect of Insn.reg
      (** BR/BRA through a register with no statically resolved target:
          the control-flow graph is truncated at this site, so anything
          the analysis reports downstream is best-effort. *)
  | Modifier_collision of collision
      (** The census found a modifier class shared across functions:
          every pointer signed in the class is substitutable at every
          authenticating site of the class (severity by {!dynamism}). *)
  | Scheme_violation of string
      (** A per-scheme rule pack found code that does not follow the
          scheme's modifier discipline; the payload is the rule's own
          sentence. *)

type t = { va : int64; insn : Insn.t; kind : kind }

val severity : t -> severity
val is_error : t -> bool

(** Stable kebab-case identifier for the kind (used in JSON output). *)
val kind_name : kind -> string

(** ["IA"], ["IB"], ["DA"], ["DB"], ["GA"]. *)
val key_name : Sysreg.pauth_key -> string

(** ["static"] / ["sp-dependent"] / ["object-dependent"]. *)
val dynamism_name : dynamism -> string

(** ["0x<va>: <severity>: <message> (<insn>); hint: <hint>"]. *)
val to_string : t -> string

(** [normalize ds] — sort by (va, kind name, severity, payload) and drop
    structural duplicates. Applied by {!list_to_json} and by every lint
    entry point before reporting. *)
val normalize : t list -> t list

(** A findings list as a JSON array, normalized first. *)
val list_to_json : t list -> string
