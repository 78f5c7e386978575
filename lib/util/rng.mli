(** Deterministic pseudo-random number generation.

    The bootloader of the paper generates kernel PAuth keys from a PRNG
    seeded by firmware entropy (much like the kernel-ASLR seed passed via
    the flattened device tree). We model this with splitmix64: a small,
    well-distributed generator that keeps the whole simulation
    reproducible from a single seed. *)

type t

(** [create seed] makes a fresh generator. Equal seeds yield equal
    streams. *)
val create : int64 -> t

(** [next t] draws the next 64-bit value. *)
val next : t -> int64

(** [next_in t bound] draws a uniform value in [0, bound) for
    [bound > 0]. *)
val next_in : t -> int -> int

(** [key128 t] draws a 128-bit PAuth key as a (hi, lo) register pair. *)
val key128 : t -> int64 * int64

(** [state t] reads the internal state, for snapshotting. Restoring the
    same state with {!set_state} resumes the identical stream. *)
val state : t -> int64

(** [set_state t s] overwrites the internal state with a value obtained
    from {!state}. *)
val set_state : t -> int64 -> unit
