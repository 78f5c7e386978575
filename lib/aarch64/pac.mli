(** Pointer-authentication-code computation (Appendix B of the paper).

    A PAC is the truncation of a QARMA MAC — keyed by a 128-bit key,
    over the canonical 64-bit pointer with a 64-bit modifier as tweak —
    scattered into the extension bits of the pointer described by
    {!Vaddr.pac_field}. Authentication recomputes the MAC; a mismatch
    yields a deliberately non-canonical ("poisoned") pointer so that any
    later dereference or branch faults, exactly as AUT* behaves on
    ARMv8.3.

    The arithmetic is defined once. Every MAC comes from a {!memo}: a
    core on the cached tiers keeps a caching one, an [Interp] core an
    uncached one, and {!compute}, {!auth} and {!generic} build an
    uncached one per call. A core's ops reach the arithmetic through the
    slot-addressed entry points {!pac}, {!aut}, {!pacga} and {!xpac},
    which read and write the core's state array themselves, so that no
    int64 crosses a module boundary and a memo hit allocates nothing. *)

type key = { hi : int64; lo : int64 }

(** A core's state array (see {!Cpu}): one unboxed int64 per slot. *)
type words = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

(** A MAC source over [cipher], and the two pointer layouts the
    slot-addressed entry points sign under.

    A cached memo is a 2-way set-associative table of 512 MACs in 256
    sets, keyed on the cipher's whole input (key hi, key lo, modifier and
    canonical pointer or PACGA value), each set holding its most recently
    used entry first. Entries start as the all-zero input and its MAC
    and are keyed on values, so key writes and restores leave it warm.
    It caches MACs, not verdicts: a wrong PAC fails AUT with or without
    it. An uncached memo runs [cipher] on every MAC and counts nothing. *)
type memo

(** [memo ~cached ~user ~kernel cipher] — a memo over [cipher] whose
    slot-addressed entry points sign a pointer under [kernel] when its
    bit 55 is set and under [user] otherwise. Raises [Invalid_argument]
    if either layout's [va_bits] is outside 32-52. *)
val memo : cached:bool -> user:Vaddr.config -> kernel:Vaddr.config -> Qarma.Block.t -> memo

(** MACs a cached memo looked up, and how many of them it answered
    without running the cipher; both 0 on an uncached memo. *)
val lookups : memo -> int

val hits : memo -> int

(** {2 Slot-addressed entry points}

    Each reads its operands from slots of [st] and writes its result to
    slot [dst]: [hi] and [lo] hold the key, [ptr] the pointer (or
    [value] PACGA's operand) and [modifier] the modifier. Slots must lie
    inside [st]; they are not checked. *)

(** PAC: [dst] gets [ptr] with the PAC of its canonical form in its
    extension bits. A pointer that is not canonical (e.g. already
    signed) is signed over its canonical form, as the architecture does. *)
val pac : memo -> words -> hi:int -> lo:int -> ptr:int -> modifier:int -> dst:int -> unit

(** AUT: [dst] gets the canonical form of [ptr] if [ptr] carries its
    PAC, and the poisoned pointer AUT* would produce otherwise. [true]
    iff it passed. *)
val aut : memo -> words -> hi:int -> lo:int -> ptr:int -> modifier:int -> dst:int -> bool

(** PACGA: [dst] gets the top 32 bits of the MAC of [value], in the
    upper half with the lower half zero. *)
val pacga : memo -> words -> hi:int -> lo:int -> value:int -> modifier:int -> dst:int -> unit

(** XPAC: [dst] gets the canonical form of [src] ({!Vaddr.strip_pac}). *)
val xpac : memo -> words -> src:int -> dst:int -> unit

(** {2 Host-side entry points}

    The same arithmetic on values, under [cfg], with an uncached memo. *)

(** [compute ~cipher ~key ~cfg ~modifier ptr] signs [ptr], like {!pac}. *)
val compute :
  cipher:Qarma.Block.t -> key:key -> cfg:Vaddr.config -> modifier:int64 -> int64 -> int64

(** [auth ~cipher ~key ~cfg ~modifier ptr] verifies the PAC with one
    MAC, like {!aut}: [Ok stripped] on success, [Error poisoned]
    otherwise. *)
val auth :
  cipher:Qarma.Block.t ->
  key:key ->
  cfg:Vaddr.config ->
  modifier:int64 ->
  int64 ->
  (int64, int64) result

(** [generic ~cipher ~key ~value ~modifier] is PACGA, like {!pacga}. *)
val generic : cipher:Qarma.Block.t -> key:key -> value:int64 -> modifier:int64 -> int64
