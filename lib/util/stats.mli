(** Small statistics helpers for the benchmark harness.

    The paper reports means with standard-deviation error bars over
    n = 20 runs, and the geometric mean of relative overheads
    (Figure 4). *)

(** [mean xs] — arithmetic mean. Raises [Invalid_argument] on []. *)
val mean : float list -> float

(** [stddev xs] — sample standard deviation (n - 1 denominator),
    0.0 for lists of length < 2. *)
val stddev : float list -> float

(** [geomean xs] — geometric mean; all inputs must be positive. *)
val geomean : float list -> float
