(** Machine-wide telemetry: one {!Sink} per core plus merged views.
    [Aarch64.Machine] creates a hub when booted with telemetry and
    attaches sink [i] to core [i]. *)

type t

val create : cpus:int -> unit -> t
val cpus : t -> int
val sink : t -> int -> Sink.t

(** Merged counter snapshot over all cores. *)
val counters : t -> Counters.snapshot

val per_cpu : t -> Counters.snapshot array

(** All live events, sorted by (ts, cpu, arrival) — deterministic. *)
val events : t -> Event.t list

(** Per-kind latency histograms over the spans of {!events}, every
    {!Span.kind} present in declaration order. *)
val histograms : t -> (Span.kind * Hist.t) list

(** Total events overwritten across all rings. *)
val dropped : t -> int

(** Whole-hub capture (every per-core sink), for machine snapshots. *)
type captured

val capture : t -> captured
val restore : t -> captured -> unit
