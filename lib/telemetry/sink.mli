(** One per-core telemetry endpoint: a counter file, a bounded event
    ring and an attribution profile. The interpreter holds at most one
    sink per core ([Cpu.attach_telemetry]); when absent, the whole
    subsystem costs one [option] match per instruction. *)

type t

val create : cpu:int -> unit -> t
val counters : t -> Counters.t
val ring : t -> Ring.t
val profile : t -> Profile.t

(** Stamp and enqueue a structured event. *)
val emit : t -> ts:int64 -> Event.payload -> unit

(** Record one retired instruction into both the counter file and the
    profile. An active {!with_origin} override wins over [origin]. *)
val retire :
  t ->
  pc:int64 ->
  cls:Counters.insn_class ->
  origin:Profile.origin ->
  cycles:int ->
  unit

(** [with_origin t o f] — attribute every instruction retired during
    [f ()] to origin [o] (used around the XOM key-switch calls, whose
    generated code is otherwise indistinguishable from baseline ALU).
    Restores the previous override even on exception. *)
val with_origin : t -> Profile.origin -> (unit -> 'a) -> 'a

(** Full endpoint capture (counters + ring + profile + origin
    override), for machine snapshots. *)
type captured

val capture : t -> captured
val restore : t -> captured -> unit
