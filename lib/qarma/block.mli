(** QARMA-64 tweakable block cipher (Avanzi, ToSC 2017).

    QARMA is the reference pointer-authentication-code algorithm of the
    ARMv8.3 PAuth extension: a three-round Even-Mansour construction with
    a keyed pseudo-reflector, 64-bit blocks, 64-bit tweaks and 128-bit
    keys. The Camouflage design computes every PAC with this cipher.

    A 64-bit block is a 4x4 array of 4-bit cells, cell 0 being the most
    significant nibble. Each layer of the round function (S-box, the
    cell shuffle tau with the involutory matrix M, the tweak-schedule
    permutation h with its LFSR) is evaluated as eight lookups in a
    byte-sliced table built once per process from the specification's
    constants. *)

(** The three S-boxes of the specification. *)
type sbox = Sigma0 | Sigma1 | Sigma2

type key = {
  w0 : int64;  (** whitening key half *)
  k0 : int64;  (** core key half *)
}

(** A cipher instance: S-box variant and number of forward rounds.
    The specification pairs sigma0 with r = 5, sigma1 with r = 6 and
    sigma2 with r = 7 in its test vectors. *)
type t

(** [create ?sbox ?rounds ()] — defaults to the [Sigma1], r = 6 instance
    recommended for pointer authentication. Raises [Invalid_argument] if
    [rounds] is not in [1, 8]. *)
val create : ?sbox:sbox -> ?rounds:int -> unit -> t

(** [encrypt t ~key ~tweak plaintext]. *)
val encrypt : t -> key:key -> tweak:int64 -> int64 -> int64

(** [key_of_pair (hi, lo)] — packs the two 64-bit halves of an ARM key
    register pair as a QARMA key, [hi] being [w0]. *)
val key_of_pair : int64 * int64 -> key
