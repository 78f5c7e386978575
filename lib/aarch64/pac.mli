(** Pointer-authentication-code computation (Appendix B of the paper).

    A PAC is the truncation of a QARMA MAC — keyed by a 128-bit key,
    over the canonical 64-bit pointer with a 64-bit modifier as tweak —
    scattered into the extension bits of the pointer described by
    {!Vaddr.pac_field}. Authentication recomputes the MAC; a mismatch
    yields a deliberately non-canonical ("poisoned") pointer so that any
    later dereference or branch faults, exactly as AUT* behaves on
    ARMv8.3. *)

type key = { hi : int64; lo : int64 }

(** [compute ~cipher ~key ~cfg ~modifier ptr] signs [ptr]: the PAC of
    the canonical form of [ptr] is written into its extension bits.
    If [ptr] is not canonical (e.g. already signed), the PAC is computed
    over its canonical form, matching architectural behaviour. *)
val compute :
  cipher:Qarma.Block.t -> key:key -> cfg:Vaddr.config -> modifier:int64 -> int64 -> int64

(** [auth ~cipher ~key ~cfg ~modifier ptr] verifies the PAC.
    [Ok stripped] on success; [Error poisoned] otherwise, where
    [poisoned] is the non-canonical pointer AUT* would produce. *)
val auth :
  cipher:Qarma.Block.t ->
  key:key ->
  cfg:Vaddr.config ->
  modifier:int64 ->
  int64 ->
  (int64, int64) result

(** [generic ~cipher ~key ~value ~modifier] is the PACGA operation: a
    32-bit MAC over an arbitrary 64-bit value, returned in the upper
    half of the result with the lower half zero. *)
val generic : cipher:Qarma.Block.t -> key:key -> value:int64 -> modifier:int64 -> int64
