(** Whole-image function partitioning and call edges.

    The decoded image is split into functions at every known entry:
    given symbols, BL targets, and best-effort resolved indirect-branch
    targets. A function spans from its entry to the next entry (or the
    end of the image) — the classic linear-sweep convention, which is
    exact for the assembler-produced layouts this repo builds.

    Indirect targets (BLR/BLRA/BR/BRA) are resolved by a forward
    constant-propagation sweep per function: ADR materializations and
    MOVZ/MOVK chains feeding the branch register resolve to their
    absolute address when it lands on a decoded instruction. Unresolved
    sites are kept and surfaced (the lint reports them; the CFG stays
    truncated there). *)

open Aarch64

type edge_kind =
  | Direct  (** BL *)
  | Indirect  (** BLR / BLRA, statically resolved *)
  | Tail  (** B / BR / BRA leaving the function, statically resolved *)

type call = {
  site : int64;  (** address of the call instruction *)
  target : int64 option;  (** [None] when the indirect target is unresolved *)
  kind : edge_kind;
}

type fn = {
  entry : int64;
  name : string option;  (** from the symbol table, when named *)
  lo : int;  (** index of the first instruction in [code] *)
  hi : int;  (** one past the last instruction *)
  calls : call list;  (** in ascending site order *)
}

type t = {
  code : (int64 * Insn.t) array;
  fns : fn array;  (** ascending entry order *)
}

(** [build ~symbols code] — [code] sorted by ascending address, no
    duplicates (gaps allowed). Symbol addresses outside [code] are
    ignored. *)
val build : ?symbols:(string * int64) list -> (int64 * Insn.t) array -> t

(** Index of the function whose entry is exactly [va]. *)
val fn_index : t -> int64 -> int option

(** Instruction slice of function [i]. *)
val code_of : t -> int -> (int64 * Insn.t) array

(** [hints t va] — resolved targets of the indirect branch at [va]
    (empty for direct branches and unresolved sites). Feed to
    {!Cfg.build}; a non-empty list is what {!Lint.analyze}'s
    [indirect_resolved] reports. *)
val hints : t -> int64 -> int64 list

(** [(callers t).(i)] — indices of the functions with a resolved call
    edge into function [i], ascending, deduplicated; one pass over every
    call site. *)
val callers : t -> int list array

(** Number of call sites whose indirect target could not be resolved. *)
val unresolved_count : t -> int

(** Byte-stable JSON: functions in entry order with their call edges. *)
val to_json : t -> string
