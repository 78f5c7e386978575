(** Control-flow graph reconstruction over decoded code.

    Blocks are maximal straight-line runs split at every control-flow
    instruction (B/BL/BR/BLR/RET/RETA*/BRA*/BLRA*/CBZ/CBNZ/B.cond/SVC/
    ERET/BRK/HLT), at every in-range branch target, and at address gaps
    (words that did not decode). Calls (BL/BLR/BLRA) fall through — the
    analysis assumes callees return — and an in-range BL target is
    recorded as a function entry rather than an edge, so each function
    is analyzed from its own entry state. *)

open Aarch64

type block = {
  start : int64;  (** address of the first instruction *)
  insns : (int64 * Insn.t) array;
  succs : int list;  (** indices of successor blocks *)
}

type t = {
  blocks : block array;  (** in ascending address order *)
  entries : int list;  (** analysis entry blocks: given entries + BL targets *)
}

(** [build ~entries ~hints code] — [code] must be sorted by ascending
    address with no duplicates; gaps are allowed. Entry addresses
    outside [code] and branch targets outside [code] are ignored.
    [hints va] supplies statically resolved targets for the indirect
    branch at [va] (from {!Callgraph}): BR/BRA hints become real CFG
    edges, BLR/BLRA hints become function entries (call semantics, like
    BL). Unhinted indirect branches still terminate their block with no
    successors — the lint reports those as unresolved. *)
val build :
  ?entries:int64 list -> ?hints:(int64 -> int64 list) -> (int64 * Insn.t) array -> t

(** [index_of code va] — index of the instruction at [va] in [code]
    (sorted by ascending address), or [-1]: a binary search. *)
val index_of : (int64 * Insn.t) array -> int64 -> int

(** [reachable t b] — per-block reachability from block [b] along CFG
    edges (calls excluded, as in {!build}). *)
val reachable : t -> int -> bool array
