(** Brute-force mitigation (Section 5.4).

    With the typical configuration only 15 PAC bits remain for kernel
    pointers, well within reach of a local brute-force attack. Every
    PAC authentication failure therefore kills the offending process
    and is logged; once the system-wide failure count crosses the
    configured threshold, the kernel halts, treating the stream of
    failures as a strong signal of attempted exploitation.

    Failures are accounted per originating CPU as well, but the kill
    decision always uses the global count: distributing guesses over
    the cores of an SMP system must not enlarge the attack budget. *)

type verdict =
  | Kill_process  (** SIGKILL the faulting process; system continues *)
  | Panic  (** threshold exceeded: halt the system *)

type event = { pid : int; cpu : int; faulting_va : int64; at_failure : int }

type t

val create : threshold:int -> t

(** [record_failure ?cpu t ~pid ~faulting_va] accounts one PAC failure
    observed on core [cpu] (default 0). *)
val record_failure : ?cpu:int -> t -> pid:int -> faulting_va:int64 -> verdict

val failures : t -> int

(** [failures_on t ~cpu] — failures recorded against one core. *)
val failures_on : t -> cpu:int -> int

val log : t -> event list

(** Accounting-state capture for system snapshots (threshold is fixed
    at creation and not part of the capture). *)
type captured

val capture : t -> captured
val restore : t -> captured -> unit

(** [audit t] checks the SMP accounting invariant: the global counter
    equals the sum of the per-CPU tallies, equals the event-log length,
    and the event ordinals are the contiguous sequence 1..count — i.e.
    every failure was aggregated into the global counter exactly once,
    whichever core recorded it. *)
val audit : t -> bool
