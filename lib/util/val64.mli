(** 64-bit word manipulation helpers.

    All values are OCaml [int64] treated as unsigned 64-bit machine words.
    Bit positions are numbered 0 (least significant) to 63 (most
    significant), matching the ARM Architecture Reference Manual
    convention used throughout the Camouflage paper. *)

type t = int64

(** [mask width] is a word with the low [width] bits set.
    [width] must be in [0, 64]. *)
val mask : int -> t

(** [extract ~lo ~width x] reads the bit field [x\[lo + width - 1 : lo\]]
    as an unsigned value placed at bit 0. *)
val extract : lo:int -> width:int -> t -> t

(** [insert ~lo ~width ~field x] overwrites the bit field
    [x\[lo + width - 1 : lo\]] with the low [width] bits of [field],
    like the AArch64 [BFI] instruction. *)
val insert : lo:int -> width:int -> field:t -> t -> t

(** [bit i x] is [true] iff bit [i] of [x] is set. *)
val bit : int -> t -> bool

(** [set_bit i b x] sets bit [i] of [x] to [b]. *)
val set_bit : int -> bool -> t -> t

(** [ror x n] rotates [x] right by [n] bit positions ([n] taken mod 64). *)
val ror : t -> int -> t

(** [to_hex x] is the 16-digit lowercase hexadecimal rendering of [x]. *)
val to_hex : t -> string

(** [of_hex s] parses a hexadecimal string (no "0x" prefix required,
    but accepted). Raises [Invalid_argument] on malformed input. *)
val of_hex : string -> t

(** [nibble i x] is the [i]-th 4-bit cell of [x] where cell 0 is the
    most significant nibble, the cell ordering used by QARMA. *)
val nibble : int -> t -> int

(** [set_nibble i v x] writes 4-bit value [v] into QARMA cell [i]. *)
val set_nibble : int -> int -> t -> t
