(** Chrome trace-event serialization (Perfetto / chrome://tracing).

    Layout: process 0 carries one thread ("track") per core, process 1
    one track per task pid. This module only renders {!Span.pairs}:
    the begin of each pair — syscall enter/exit, context-switch
    begin/done, the kernel->user key residency window — becomes a
    complete ("X") duration event and the pair's end is dropped; each
    IPI span is an X event on its sender's core track, beside the send
    and receive instants; everything else is an instant ("i"). Core
    tracks are paired by one pass over the whole stream, each task
    track by a pass over its own events, so a task's key window ends at
    its own next ["user"] key switch. Events within a track are emitted
    in ascending [ts] order, which Perfetto requires and {!validate}
    checks. Timestamps are core-local cycle counts reported in the
    [ts] microsecond field — at the model's 1-cycle granularity this
    gives a faithful relative timeline. *)

(** Full trace-event JSON document for the hub's live events. *)
val serialize : Hub.t -> string

(** Fleet view: one process per [(label, events)] lane with one thread
    per core, same span derivation as {!serialize}'s core tracks; each
    lane's [events] are in {!Hub.events} order.
    Lane order and labels come from the caller, so a fleet engine
    passing deterministic trial labels gets a byte-identical document
    regardless of how many workers produced the events. *)
val serialize_lanes : (string * Event.t list) list -> string

(** Compact per-line text dump of the merged timeline (newest last).
    [limit] keeps only the most recent events. *)
val text : ?limit:int -> Hub.t -> string

(** Validate a serialized trace: well-formed JSON, a [traceEvents]
    array, every event carrying [name]/[ph]/[ts]/[pid]/[tid], ["X"]
    events with a non-negative [dur], and [ts] monotone non-decreasing
    within each (pid, tid) track. Every rejection carries the source
    position ("line L, column C (offset N)") of the offending value. *)
val validate : string -> (unit, string) result
