(** Program builder: a minimal assembler with labels.

    Kernel routines, the XOM key setter, instrumented function bodies
    and attack payloads are written as item lists; [assemble] lays the
    functions out from a base address, resolves labels to absolute
    targets and produces encodable instructions. Function names are
    global symbols; other labels are local to the function that defines
    them. *)

type item

(** [ins i] — an instruction with no unresolved label. *)
val ins : Insn.t -> item

(** [label name] — bind a function-local label here. *)
val label : string -> item

(** [b_to l], [bl_to l], [cbz_to r l], [cbnz_to r l], [bcond_to c l] —
    branches to a label (local first, then global). *)
val b_to : string -> item

val bl_to : string -> item
val cbz_to : Insn.reg -> string -> item
val cbnz_to : Insn.reg -> string -> item
val bcond_to : Insn.cond -> string -> item

(** [adr_of r l] — materialize the address of a label. *)
val adr_of : Insn.reg -> string -> item

(** [mov_addr r l] — materialize the full 64-bit address of label [l]
    into [r] with a MOVZ/MOVK sequence (4 instructions); unlike
    {!adr_of} this has unlimited range. *)
val mov_addr : Insn.reg -> string -> item list

(** [item_insn item] — the instruction an item carries, with any label
    fixup applied to a placeholder address of 0; [None] for labels.
    For shape-level inspection (opcode, registers) of unassembled
    listings — the branch target is not meaningful. *)
val item_insn : item -> Insn.t option

(** [instruction_count items] — instructions among [items] (labels are
    zero-size). *)
val instruction_count : item list -> int

type program

val create : unit -> program

(** [add_function p ~name items] appends a function; [name] becomes a
    global symbol at its first instruction. Raises [Invalid_argument] on
    duplicate names. *)
val add_function : program -> name:string -> item list -> unit

type layout = {
  base : int64;
  size : int;  (** bytes of code *)
  symbols : (string * int64) list;  (** global symbols in layout order *)
  code : (int64 * Insn.t) array;  (** address, resolved instruction *)
}

exception Undefined_label of string

(** [assemble p ~base] resolves all labels. [extra_symbols] supplies
    imported globals (e.g. kernel exports visible to a module); local
    and program-global labels take precedence over imports. *)
val assemble : ?extra_symbols:(string * int64) list -> program -> base:int64 -> layout

(** [symbol layout name] — address of a global symbol.
    Raises [Not_found]. *)
val symbol : layout -> string -> int64

(** [encode_into layout ~write32] encodes every instruction and hands
    the (va, word) pairs to [write32] — the caller owns translation. *)
val encode_into : layout -> write32:(int64 -> int32 -> unit) -> unit

(** [disassemble layout] — printable listing, for reports and tests. *)
val disassemble : layout -> string
