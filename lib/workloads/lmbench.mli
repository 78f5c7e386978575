(** lmbench-style syscall latency micro-benchmarks (Figure 3).

    Each probe measures the average cycles of one kernel operation,
    entered exactly as a user SVC would enter it (exception cost, state
    save, key switch, handler, key restore, ERET). Probes are run under
    the three kernel builds of the paper's figure: full protection,
    backward-edge CFI only, and no protection; the figure's quantity is
    the latency of each build relative to the unprotected build. *)

type probe = {
  probe_name : string;
  runs : int;
}

type result = {
  name : string;
  cycles : float array;  (** per configuration, in [configs] order *)
  relative : float array;  (** vs the last (baseline) configuration *)
}

(** The three kernel builds, most protected first:
    full, backward-edge, none. *)
val configs : (string * Camouflage.Config.t) list

(** The probe suite, in report order: null (getpid), read, write, stat,
    fstat, open/close, notifier install and dispatch, pipe, socket,
    poll, timer, fork and context switch. *)
val probes : probe list

(** [run ?seed ()] — all probes under all configurations. *)
val run : ?seed:int64 -> unit -> result list

(** [geometric_mean_overhead results ~config_index] — geomean of the
    relative latencies for one configuration. *)
val geometric_mean_overhead : result list -> config_index:int -> float
