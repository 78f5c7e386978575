(** Pointer-authentication-code computation (Appendix B of the paper).

    A PAC is the truncation of a QARMA MAC — keyed by a 128-bit key,
    over the canonical 64-bit pointer with a 64-bit modifier as tweak —
    scattered into the extension bits of the pointer described by
    {!Vaddr.pac_field}. Authentication recomputes the MAC; a mismatch
    yields a deliberately non-canonical ("poisoned") pointer so that any
    later dereference or branch faults, exactly as AUT* behaves on
    ARMv8.3.

    The arithmetic is defined once, by {!compute_with}, {!auth_with}
    and {!generic_with}, over a MAC source. {!compute}, {!auth} and
    {!generic} are those three with the plain cipher as the source; a
    core on the cached tiers passes its PAC memo instead (see
    {!Cpu.pac_memo_stats}). *)

type key = { hi : int64; lo : int64 }

(** A MAC source: [mac key ~modifier data] is the 64-bit QARMA MAC of
    [data] under [key], with [modifier] as the tweak. A source must be
    a pure function of those four words. *)
type mac = key -> modifier:int64 -> int64 -> int64

(** [cipher_mac cipher] runs [cipher] on every call. *)
val cipher_mac : Qarma.Block.t -> mac

(** [compute_with ~mac ~key ~cfg ~modifier ptr] signs [ptr]: the PAC of
    the canonical form of [ptr] is written into its extension bits.
    If [ptr] is not canonical (e.g. already signed), the PAC is computed
    over its canonical form, matching architectural behaviour. *)
val compute_with :
  mac:mac -> key:key -> cfg:Vaddr.config -> modifier:int64 -> int64 -> int64

(** [auth_with ~mac ~key ~cfg ~modifier ptr] verifies the PAC with one
    MAC. [Ok stripped] on success; [Error poisoned] otherwise, where
    [poisoned] is the non-canonical pointer AUT* would produce. *)
val auth_with :
  mac:mac ->
  key:key ->
  cfg:Vaddr.config ->
  modifier:int64 ->
  int64 ->
  (int64, int64) result

(** [generic_with ~mac ~key ~value ~modifier] is the PACGA operation: a
    32-bit MAC over an arbitrary 64-bit value, returned in the upper
    half of the result with the lower half zero. *)
val generic_with : mac:mac -> key:key -> value:int64 -> modifier:int64 -> int64

(** {!compute_with} over [cipher_mac cipher]. *)
val compute :
  cipher:Qarma.Block.t -> key:key -> cfg:Vaddr.config -> modifier:int64 -> int64 -> int64

(** {!auth_with} over [cipher_mac cipher]. *)
val auth :
  cipher:Qarma.Block.t ->
  key:key ->
  cfg:Vaddr.config ->
  modifier:int64 ->
  int64 ->
  (int64, int64) result

(** {!generic_with} over [cipher_mac cipher]. *)
val generic : cipher:Qarma.Block.t -> key:key -> value:int64 -> modifier:int64 -> int64
