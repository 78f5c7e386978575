(** The model-ISA instruction set.

    A register-level subset of A64 sufficient to express the paper's
    instrumentation (Listings 1-4), the XOM key setter, syscall
    entry/exit, context switching, and the attack payloads. Instructions
    are held in memory as 32-bit words in a self-consistent encoding
    (see {!Encode}); this AST is what the interpreter executes and the
    static verifier inspects. *)

(** General-purpose register operand. [R n] for X0..X30; [SP] is the
    banked stack pointer; [XZR] reads as zero and discards writes. *)
type reg = R of int | SP | XZR

val fp : reg
(** X29, the frame pointer. *)

val lr : reg
(** X30, the link register. *)

val ip0 : reg
(** X16, first intra-procedure-call scratch register. *)

val ip1 : reg
(** X17, second intra-procedure-call scratch register. *)

(** Condition codes for [Bcond] (driven by [Subs]/[Cmp]). *)
type cond = Eq | Ne | Lt | Ge | Gt | Le

(** Addressing modes: signed byte offset, pre-indexed (writeback before
    access: [\[xn, #off\]!]) and post-indexed ([\[xn\], #off]). *)
type amode = Off of reg * int | Pre of reg * int | Post of reg * int

type t =
  (* Data processing *)
  | Movz of reg * int * int  (** rd, imm16, left shift in \{0,16,32,48\} *)
  | Movk of reg * int * int  (** keep other bits *)
  | Mov of reg * reg  (** register move; legal to/from SP *)
  | Add_imm of reg * reg * int
  | Sub_imm of reg * reg * int
  | Add_reg of reg * reg * reg
  | Sub_reg of reg * reg * reg
  | Subs_reg of reg * reg * reg  (** sets NZCV; [Subs_reg XZR] is CMP *)
  | Subs_imm of reg * reg * int
  | And_reg of reg * reg * reg
  | Orr_reg of reg * reg * reg
  | Eor_reg of reg * reg * reg
  | Lsl_imm of reg * reg * int
  | Lsr_imm of reg * reg * int
  | Bfi of reg * reg * int * int  (** rd, rn, lsb, width: bit-field insert *)
  | Ubfx of reg * reg * int * int  (** rd, rn, lsb, width: bit-field extract *)
  | Adr of reg * int64  (** PC-relative address materialization *)
  (* Memory *)
  | Ldr of reg * amode
  | Str of reg * amode
  | Ldrb of reg * amode
  | Strb of reg * amode
  | Ldp of reg * reg * amode
  | Stp of reg * reg * amode
  (* Branches *)
  | B of int64
  | Bl of int64
  | Br of reg
  | Blr of reg
  | Ret
  | Cbz of reg * int64
  | Cbnz of reg * int64
  | Bcond of cond * int64
  (* Pointer authentication *)
  | Pac of Sysreg.pauth_key * reg * reg  (** sign rd with modifier rm *)
  | Aut of Sysreg.pauth_key * reg * reg  (** authenticate rd with modifier rm *)
  | Pac1716 of Sysreg.pauth_key  (** hint-space: sign X17 with modifier X16 *)
  | Aut1716 of Sysreg.pauth_key
  | Xpac of reg  (** strip the PAC *)
  | Pacga of reg * reg * reg  (** rd := generic 32-bit MAC of rn under rm *)
  | Blra of Sysreg.pauth_key * reg * reg  (** authenticated BLR (BLRAA/BLRAB) *)
  | Bra of Sysreg.pauth_key * reg * reg  (** authenticated BR *)
  | Reta of Sysreg.pauth_key  (** authenticated RET, modifier SP *)
  (* System *)
  | Mrs of reg * Sysreg.t
  | Msr of Sysreg.t * reg
  | Svc of int
  | Eret
  | Isb
  | Nop
  | Brk of int
  | Hlt of int  (** model halt; the kernel panic primitive *)

val to_string : t -> string

(** [reg_name r] — assembly spelling ([x7], [fp], [lr], [sp], [xzr]). *)
val reg_name : reg -> string

(** [is_pauth i] — true for the PAC*/AUT*/XPAC/PACGA family and the
    authenticated branches. *)
val is_pauth : t -> bool

(** [reads_sysreg i] is [Some r] when [i] reads system register [r]. *)
val reads_sysreg : t -> Sysreg.t option

(** [writes_sysreg i] is [Some r] when [i] writes system register [r]. *)
val writes_sysreg : t -> Sysreg.t option

(** [defs_uses i] — the general-purpose registers [i] writes and reads,
    in operand order. [XZR] appears literally when an operand names it;
    consumers decide whether to discard it. Pre/post-indexed addressing
    makes the base register both a use and a def; [Pac]/[Aut] read and
    rewrite the pointer register; the 1716 hint forms touch X16/X17;
    [Bl]/[Blr]/[Blra] define LR; [Reta] reads LR and SP (its implicit
    modifier). This is the register-access metadata the paclint
    dataflow runs on — a register missing here is invisible to it. *)
val defs_uses : t -> reg list * reg list
