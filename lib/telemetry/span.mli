(** Span derivation (PR 9 tentpole, layer 2).

    Spans are computed, never emitted: a pure pass over the already
    deterministic event stream pairs the begin/end markers the kernel
    records — [Syscall_enter]/[Syscall_exit], [Context_switch]/
    [Switch_done], [Ipi_send]/[Ipi_receive], and the kernel-key
    residency window between a ["kernel"] and the next ["user"]
    [Key_switch] on the same core. Observed runs therefore stay
    bit-identical to unobserved runs: asking for latency is a fold,
    not a probe.

    Pairing is first-in-first-out per (core, key) within one core's
    clock domain. IPIs cross clock domains, so a send only pairs with
    a receive not before it — durations are always non-negative. *)

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

(** Derive all spans from an event list (normally {!Hub.events}), in
    end-event order. Unmatched begin markers produce no span. *)
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
