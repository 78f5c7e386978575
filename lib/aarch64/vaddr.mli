(** VMSAv8 virtual-address layout (Appendix A of the paper).

    AArch64 pointers are 64-bit values of which only [va_bits] (at most
    48 without LVA) address memory. Bit 55 selects the translation table:
    0 for the user range (TTBR0) and 1 for the kernel range (TTBR1). The
    bits between the top of the address and bit 55 are sign extension —
    unless top-byte-ignore (TBI) reserves bits 63:56 as a tag. PAuth
    stores the PAC exactly in those otherwise-meaningless bits, which is
    why the PAC width depends on the configuration (15 bits in the
    typical Ubuntu-like kernel configuration of the paper). *)

type space = User | Kernel | Invalid

type config = {
  va_bits : int;  (** virtual address size, typically 39 or 48 *)
  tbi : bool;  (** top-byte-ignore enabled for this range *)
}

(** The configuration evaluated in the paper: 48-bit VA; Linux enables
    TBI for user space and leaves it disabled for the kernel. *)
val linux_user : config

val linux_kernel : config

(** [space_of va] classifies an address per Table 1: addresses whose
    upper bits are not a proper sign extension of bit 47..55 are
    [Invalid]. This classification ignores PAC/tag bits and uses only
    bit 55, as the hardware translation-table select does. *)
val select : int64 -> space

(** [canonical cfg va] rewrites the upper bits of [va] into proper sign
    extension of the [cfg.va_bits]-bit address, preserving bit 55 and,
    with TBI, the tag byte. This is the pointer a PAC is computed over. *)
val canonical : config -> int64 -> int64

(** [pac_field cfg] is the list of (lo, width) bit ranges available to
    hold a PAC under [cfg], excluding bit 55 and any tag byte,
    most-significant range first. *)
val pac_field : config -> (int * int) list

(** [pac_bits cfg] is the total PAC width available under [cfg];
    15 for the paper's kernel configuration. *)
val pac_bits : config -> int

(** [insert_pac cfg ~pac va] scatters the low [pac_bits cfg] bits of
    [pac] into the PAC field of [va]. *)
val insert_pac : config -> pac:int64 -> int64 -> int64

(** [extract_pac cfg va] gathers the PAC field of [va] into the low bits
    of the result. *)
val extract_pac : config -> int64 -> int64

(** [strip_pac cfg va] is [canonical cfg va]: the XPAC operation. *)
val strip_pac : config -> int64 -> int64

(** [poison cfg va] makes the pointer non-canonical in a way that is
    stable and recognizable: the behaviour of a failed AUT* on ARMv8.3,
    which flips a bit pattern in the extension bits so that any
    subsequent dereference or branch faults. *)
val poison : config -> int64 -> int64

(** [is_poisoned cfg va] recognizes [poison]'s bit pattern. *)
val is_poisoned : config -> int64 -> bool

(** [page_of va] is the page number of [va]: the full 64-bit value
    shifted right by 12, so kernel (0xffff...) and user pages never
    collide as table keys. *)
val page_of : int64 -> int64
