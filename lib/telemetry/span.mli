(** Span derivation (PR 9 tentpole, layer 2).

    Spans are computed, never emitted: a pure pass over the already
    deterministic event stream pairs the begin/end markers the kernel
    records — [Syscall_enter]/[Syscall_exit], [Context_switch]/
    [Switch_done], [Ipi_send]/[Ipi_receive], and the kernel-key
    residency window between a ["kernel"] and the next ["user"]
    [Key_switch] on the same core. Observed runs therefore stay
    bit-identical to unobserved runs: asking for latency is a fold,
    not a probe.

    {!pairs} is the only code that pairs events: the histograms and
    every {!Chrome} duration event read it. Pairing is
    first-in-first-out per key. IPIs cross clock domains, so a send
    only pairs with a receive not before it — durations are always
    non-negative. *)

type kind = Syscall | Context_switch | Ipi | Key_domain

(** ["syscall"], ["context-switch"], ["ipi"], ["key-domain"]. *)
val kind_name : kind -> string

type t = {
  sp_kind : kind;
  sp_cpu : int;  (** core whose clock the span lives on (IPI: sender) *)
  sp_start : int64;
  sp_dur : int64;  (** always >= 0 *)
  sp_label : string;
}

(** The one pairing pass, over events in {!Hub.events} order: a begin
    waits under its key — (core, nr, pid) for a syscall, (core, from,
    to) for a context switch, the core for the kernel-key window,
    (source, destination, kind) for an IPI — and an end closes the
    oldest pending begin of its key unless that begin is after it.
    Each closed pair comes out as its span and the indices of its begin
    and end in [evs], in end-event order. *)
val pairs : Event.t array -> (t * int * int) list

(** The spans of {!pairs} over an event list (normally {!Hub.events}),
    in end-event order. Unmatched begin markers produce no span. *)
val of_events : Event.t list -> t list

(** Per-kind latency histograms over {!of_events}; every {!kind} is
    present (possibly empty) so fleet merges line up
    without keying. *)
val histograms : Event.t list -> (kind * Hist.t) list

(** Kind-wise {!Hist.merge}; missing kinds count as empty. *)
val merge_histograms :
  (kind * Hist.t) list -> (kind * Hist.t) list -> (kind * Hist.t) list

val empty_histograms : unit -> (kind * Hist.t) list

(** Byte-stable single-line JSON object keyed by {!kind_name} in
    declaration order, each value a {!Hist.to_json} rendering. *)
val histograms_to_json : (kind * Hist.t) list -> string
