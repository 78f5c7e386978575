module Val64 = Camo_util.Val64

type space = User | Kernel | Invalid

type config = { va_bits : int; tbi : bool }

let linux_user = { va_bits = 48; tbi = true }
let linux_kernel = { va_bits = 48; tbi = false }

let select va = if Val64.bit 55 va then Kernel else User

let check_config cfg =
  if cfg.va_bits < 32 || cfg.va_bits > 52 then invalid_arg "Vaddr: va_bits"

(* The extension bits, which must equal bit 55 for the pointer to
   translate and which hold the PAC: [va_bits, 55) and, without TBI, the
   top byte [56, 64). The PAC fills the low range from its bit 0, then
   the top byte. Every operation below is a few masks and shifts of these
   two ranges. *)
let low_width cfg = 55 - cfg.va_bits
let low_mask cfg = Int64.shift_left (Int64.pred (Int64.shift_left 1L (low_width cfg))) cfg.va_bits
let top_byte = 0xff00000000000000L

let extension_mask cfg =
  check_config cfg;
  if cfg.tbi then low_mask cfg else Int64.logor (low_mask cfg) top_byte

let pac_field cfg =
  check_config cfg;
  let low = (cfg.va_bits, low_width cfg) in
  if cfg.tbi then [ low ] else [ (56, 8); low ]

let pac_bits cfg =
  check_config cfg;
  if cfg.tbi then low_width cfg else low_width cfg + 8

let canonical cfg va =
  let ext = extension_mask cfg in
  if Val64.bit 55 va then Int64.logor va ext else Int64.logand va (Int64.lognot ext)

let is_canonical cfg va = Int64.equal (canonical cfg va) va

let insert_pac cfg ~pac va =
  let ext = extension_mask cfg in
  let low = Int64.logand (Int64.shift_left pac cfg.va_bits) (low_mask cfg) in
  let field =
    if cfg.tbi then low
    else Int64.logor low (Int64.shift_left (Int64.shift_right_logical pac (low_width cfg)) 56)
  in
  Int64.logor (Int64.logand va (Int64.lognot ext)) field

let extract_pac cfg va =
  check_config cfg;
  let low = Int64.shift_right_logical (Int64.logand va (low_mask cfg)) cfg.va_bits in
  if cfg.tbi then low
  else Int64.logor low (Int64.shift_left (Int64.shift_right_logical va 56) (low_width cfg))

let strip_pac = canonical

(* A failed AUT on ARMv8.3 writes an error code into two extension bits
   (one per key class), guaranteeing a translation fault on use. We model
   it by flipping the two extension bits just above the address. *)
let poison cfg va = Int64.logxor (canonical cfg va) (Int64.shift_left 3L cfg.va_bits)

let is_poisoned cfg va = (not (is_canonical cfg va)) && va = poison cfg (canonical cfg va)

let page_of va = Int64.shift_right_logical va 12
