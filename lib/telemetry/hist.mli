(** Log-bucketed HDR-style latency histogram (PR 9 tentpole, layer 1).

    32 sub-buckets per power-of-two octave ([sub_bucket_bits] = 5):
    values below 32 are recorded exactly in unit buckets, larger values
    land in a bucket whose width is at most 1/32 (~3.1%) of its lower
    bound, so every reported percentile is the true value rounded down
    by less than one sub-bucket. Counts are int64 and {!merge} adds
    bucket-for-bucket, making [(empty, merge)] a commutative monoid —
    the law the fleet engine's index-order fold relies on, exactly as
    for {!Counters.merge}. *)

type t

val create : unit -> t

(** The merge identity. Shared and must never be recorded into; use
    {!create} for a histogram you intend to fill. *)
val empty : t

(** Record one sample. Negative values clamp to 0 (spans are derived
    with non-negative durations; the clamp keeps the histogram total
    equal to the number of recorded samples under any input). *)
val record : t -> int64 -> unit

(** Exact bucket-wise sum into a fresh histogram; commutative and
    associative, with {!empty} as identity. Arguments are unchanged. *)
val merge : t -> t -> t

(** Structural equality (counts, total, sum, min, max). *)
val equal : t -> t -> bool

val count : t -> int64
val is_empty : t -> bool
val sum : t -> int64

(** 0 when empty. *)
val min_value : t -> int64

(** 0 when empty. *)
val max_value : t -> int64

(** [percentile t q] for [0 < q <= 1]: lower bound of the bucket
    holding rank [ceil (q * count)] — exact below 32, within one
    sub-bucket above. 0 when empty. *)
val percentile : t -> float -> int64

val p50 : t -> int64
val p90 : t -> int64
val p99 : t -> int64

(** Byte-stable single-line JSON: fixed field order ([count], [sum],
    [min], [max], [p50], [p90], [p99], [p999], [buckets]) with the
    non-zero buckets as sorted [[index, count]] pairs. *)
val to_json : t -> string

(**/**)

(** Exposed for the percentile-accuracy property tests. *)
val index_of : int -> int

val bucket_low : int -> int64
