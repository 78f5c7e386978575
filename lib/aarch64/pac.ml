type key = { hi : int64; lo : int64 }

type words = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

(* --- Pointer layouts. ---

   The masks of one {!Vaddr.config}, computed once. [canonical],
   [insert] and the poison pattern restate {!Vaddr.canonical},
   {!Vaddr.insert_pac} and {!Vaddr.poison} over them: a call into
   [Vaddr] would box every pointer it takes and returns, since no call
   across modules is inlined. Test [vaddr 9] ties the two for every
   [va_bits] and [tbi]. *)

type layout = {
  va_bits : int;
  low_width : int;  (* the extension bits below bit 55, [va_bits, 55) *)
  tbi : bool;
  low : int64;  (* those bits *)
  ext : int64;  (* every extension bit: [low], and the top byte without TBI *)
  keep : int64;  (* the complement of [ext] *)
  poison : int64;  (* the two bits a failed AUT flips *)
}

let layout (cfg : Vaddr.config) =
  (* [Vaddr.pac_bits] validates [va_bits] *)
  ignore (Vaddr.pac_bits cfg : int);
  let low_width = 55 - cfg.va_bits in
  let low = Int64.shift_left (Int64.pred (Int64.shift_left 1L low_width)) cfg.va_bits in
  let ext = if cfg.tbi then low else Int64.logor low 0xff00000000000000L in
  {
    va_bits = cfg.va_bits;
    low_width;
    tbi = cfg.tbi;
    low;
    ext;
    keep = Int64.lognot ext;
    poison = Int64.shift_left 3L cfg.va_bits;
  }

let[@inline] bit55 va = Int64.to_int (Int64.shift_right_logical va 55) land 1 = 1

let[@inline] canonical l va =
  if bit55 va then Int64.logor va l.ext else Int64.logand va l.keep

(* [c] canonical: the low PAC bits from [va_bits] up, the rest in the
   top byte without TBI *)
let[@inline] insert l c pac =
  let low = Int64.logand (Int64.shift_left pac l.va_bits) l.low in
  let field =
    if l.tbi then low
    else Int64.logor low (Int64.shift_left (Int64.shift_right_logical pac l.low_width) 56)
  in
  Int64.logor (Int64.logand c l.keep) field

(* --- The MAC memo. ---

   A cached memo is a 2-way set-associative table of the MACs last
   computed, 256 sets of two entries, each entry five words: key hi,
   key lo, tweak (the modifier), plaintext (the canonical pointer, or
   PACGA's value) and MAC. It is keyed on the cipher's whole 256-bit
   input and holds a MAC, not a verdict: AUT still compares the pointer
   it is given with the MAC of that pointer's canonical form, so a
   flipped PAC bit, a forged pointer or a flipped key fails exactly as
   it would without the memo. Every entry starts as a true fact, the
   all-zero input and its MAC, so no entry needs a valid bit and none
   can answer for an input it was not computed from. Keys are compared
   by value, so key installs, key flips and restores need no flush.

   A set holds its most recently used entry first. A hit on the second
   swaps the two; a miss first overwrites the second (the least
   recently used) with the new input and its MAC, then swaps, so two
   hot inputs whose hash picks one set both stay.

   An uncached memo runs the cipher on every MAC and keeps one word,
   where the MAC it just computed sits. Either way a MAC is read from
   the table by the index [mac_at] returns: a MAC read straight from a
   table and one returned by a call cannot share an unboxed result, so
   returning the value would box a hit. The table is [Bytes], not a
   bigarray: the host-side entry points build an uncached memo per
   call, and a small [Bytes] is a minor-heap block where a bigarray is
   a malloc'd custom block (12 against 64 ns to create on a 2-core
   x86-64 host). *)

type memo = {
  cipher : Qarma.Block.t;
  cached : bool;
  entries : Bytes.t;
  user : layout;
  kernel : layout;
  mutable n_lookups : int;
  mutable n_hits : int;
}

(* unchecked: every index below lies inside [entries] by construction *)
external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] word e i = get e (i lsl 3)
let[@inline] set_word e i v = set e (i lsl 3) v
let set_bits = 8

(* words per entry, and per set *)
let width = 5
let set_width = 2 * width
let mult = 0x9E3779B97F4A7C15L

(* A multiplicative hash of all four words, top [set_bits] bits (an
   xor-fold of the words lets modifier and pointer bits cancel): the
   first word of the set. No helper below is a local function: a
   function holding a closure is never inlined, and one that is not
   inlined boxes every int64 it takes. *)
let[@inline] step h w = Int64.mul (Int64.logxor h w) mult

let[@inline] set_of hi lo tweak data =
  let h = step (step (step (Int64.mul hi mult) lo) tweak) data in
  set_width * Int64.to_int (Int64.shift_right_logical h (64 - set_bits))

let cipher_mac cipher ~hi ~lo ~tweak data =
  Qarma.Block.encrypt cipher ~key:(Qarma.Block.key_of_pair (hi, lo)) ~tweak data

let make ~cached ~user ~kernel cipher =
  let entries =
    if cached then begin
      let e = Bytes.make (8 * (set_width lsl set_bits)) '\000' in
      let zero_mac = cipher_mac cipher ~hi:0L ~lo:0L ~tweak:0L 0L in
      for i = 0 to (2 lsl set_bits) - 1 do
        set_word e ((width * i) + 4) zero_mac
      done;
      e
    end
    else Bytes.make 8 '\000'
  in
  { cipher; cached; entries; user; kernel; n_lookups = 0; n_hits = 0 }

let memo ~cached ~user ~kernel cipher =
  make ~cached ~user:(layout user) ~kernel:(layout kernel) cipher

let lookups m = m.n_lookups
let hits m = m.n_hits

let[@inline] swap e i j =
  for w = 0 to width - 1 do
    let v = word e (i + w) in
    set_word e (i + w) (word e (j + w));
    set_word e (j + w) v
  done

(* whether the entry at word [i] holds the input (hi, lo, tweak, data) *)
let[@inline] holds e i hi lo tweak data =
  let d =
    Int64.logor
      (Int64.logor (Int64.logxor (word e i) hi) (Int64.logxor (word e (i + 1)) lo))
      (Int64.logor (Int64.logxor (word e (i + 2)) tweak) (Int64.logxor (word e (i + 3)) data))
  in
  Int64.to_int d = 0 && Int64.equal d 0L

(* The word of [m.entries] that holds the MAC of [data] under (hi, lo)
   with [tweak]. *)
let[@inline] mac_at m ~hi ~lo ~tweak data =
  let e = m.entries in
  if not m.cached then begin
    set_word e 0 (cipher_mac m.cipher ~hi ~lo ~tweak data);
    0
  end
  else begin
    let i = set_of hi lo tweak data in
    m.n_lookups <- m.n_lookups + 1;
    if holds e i hi lo tweak data then m.n_hits <- m.n_hits + 1
    else begin
      let i' = i + width in
      if holds e i' hi lo tweak data then m.n_hits <- m.n_hits + 1
      else begin
        set_word e i' hi;
        set_word e (i' + 1) lo;
        set_word e (i' + 2) tweak;
        set_word e (i' + 3) data;
        set_word e (i' + 4) (cipher_mac m.cipher ~hi ~lo ~tweak data)
      end;
      swap e i i'
    end;
    i + 4
  end

let[@inline] mac m ~hi ~lo ~tweak data = word m.entries (mac_at m ~hi ~lo ~tweak data)

(* --- The PAC arithmetic, once. ---

   Every op and every host-side call runs these three. *)

(* PAC: the PAC of the canonical form, written into its extension bits. *)
let[@inline] sign m l ~hi ~lo ~modifier ptr =
  let c = canonical l ptr in
  insert l c (mac m ~hi ~lo ~tweak:modifier c)

(* AUT: the canonical form if [ptr] carries its PAC, else the poisoned
   pointer. The two differ, so the result equals the canonical form iff
   AUT passed. *)
let[@inline] authenticate m l ~hi ~lo ~modifier ptr =
  let c = canonical l ptr in
  if Int64.equal ptr (insert l c (mac m ~hi ~lo ~tweak:modifier c)) then c
  else Int64.logxor c l.poison

(* PACGA: the top half of the MAC of the raw value. *)
let[@inline] generic_mac m ~hi ~lo ~modifier value =
  Int64.logand (mac m ~hi ~lo ~tweak:modifier value) 0xffffffff00000000L

(* --- Slot-addressed entry points. ---

   A core's ops pass its state array and the slots of their operands,
   so no int64 crosses into this module. [st] is annotated: a bigarray
   access compiles to a plain load only where its kind is known. *)

module A = Bigarray.Array1

let[@inline] layout_of m va = if bit55 va then m.kernel else m.user

let pac m (st : words) ~hi ~lo ~ptr ~modifier ~dst =
  let p = A.unsafe_get st ptr in
  A.unsafe_set st dst
    (sign m (layout_of m p) ~hi:(A.unsafe_get st hi) ~lo:(A.unsafe_get st lo)
       ~modifier:(A.unsafe_get st modifier) p)

let aut m (st : words) ~hi ~lo ~ptr ~modifier ~dst =
  let p = A.unsafe_get st ptr in
  let l = layout_of m p in
  let r =
    authenticate m l ~hi:(A.unsafe_get st hi) ~lo:(A.unsafe_get st lo)
      ~modifier:(A.unsafe_get st modifier) p
  in
  A.unsafe_set st dst r;
  Int64.equal r (canonical l p)

let pacga m (st : words) ~hi ~lo ~value ~modifier ~dst =
  A.unsafe_set st dst
    (generic_mac m ~hi:(A.unsafe_get st hi) ~lo:(A.unsafe_get st lo)
       ~modifier:(A.unsafe_get st modifier) (A.unsafe_get st value))

let xpac m (st : words) ~src ~dst =
  let v = A.unsafe_get st src in
  A.unsafe_set st dst (canonical (layout_of m v) v)

(* --- Host-side entry points: an uncached memo over [cfg]. --- *)

let host cipher l = make ~cached:false ~user:l ~kernel:l cipher

let compute ~cipher ~key ~cfg ~modifier ptr =
  let l = layout cfg in
  sign (host cipher l) l ~hi:key.hi ~lo:key.lo ~modifier ptr

let auth ~cipher ~key ~cfg ~modifier ptr =
  let l = layout cfg in
  let r = authenticate (host cipher l) l ~hi:key.hi ~lo:key.lo ~modifier ptr in
  if Int64.equal r (canonical l ptr) then Ok r else Error r

(* PACGA reads no layout *)
let linux_user = layout Vaddr.linux_user

let generic ~cipher ~key ~value ~modifier =
  generic_mac (host cipher linux_user) ~hi:key.hi ~lo:key.lo ~modifier value
