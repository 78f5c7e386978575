(** [camouflage serve]: a long-running campaign control plane speaking a
    line-oriented JSON protocol (PR 6 tentpole, layer 4).

    One request object per line on stdin, one response object per line
    on stdout. Submitted campaigns run asynchronously on a spawned
    domain (whose internal worker pool is itself sized by the request),
    so external drivers can pump many concurrent campaigns at one server
    and poll for completion.

    Requests ([{"req": ...}]):
    - [ping] — liveness check.
    - [metrics] — live server metrics (PR 9): uptime, job counts per
      state, trials completed/total and aggregate trials/sec over job
      runtimes, retry and quarantine counts, and the merged span
      latency histograms of every finished campaign as JSON. Sampled
      purely from atomics — worker domains are never interrupted, so
      polling metrics cannot perturb a campaign.
    - [submit] — start a campaign. [kind] is ["faults"] (fields: seed,
      trials, workers, cpus, tasks, rounds, quantum, quarantine, config)
      or ["bruteforce"] (fields: seed, machines, attempts, workers,
      threshold, config). Both kinds also accept [retries] (per-job
      pool retries before quarantine) and [timeout_ms] (a submit-time
      deadline: once it passes no further trial starts and the job
      finishes as [failed], distinct from a user [cancel]). Replies
      with a fresh job [id].
    - [status] — [{"id": n}]: state (running / done / cancelled /
      failed), completed/total job counts, and [failures] — the
      per-job quarantine records ([job], [attempts], [error]) of the
      completed campaign, [[]] while running or when everything
      succeeded.
    - [report] — [{"id": n}]: the merged report as an embedded JSON
      object, available once state is done. Fault-campaign reports are
      the byte-stable {!Faultinj.Campaign.report_to_json} rendering
      (newlines folded, since the protocol is line-oriented).
    - [cancel] — [{"id": n}]: stop scheduling the job's remaining
      work; in-flight trials finish, the report is discarded.
    - [shutdown] — cancel and drain running jobs, then exit the loop.

    Every malformed request (bad JSON, missing or unknown fields,
    unknown id, out-of-range parameters) gets a structured
    [{"ok": false, "error": ...}] response; nothing kills the server. *)

type t

val create : unit -> t

(** [handle t line] — process one request line, returning the response
    line (no trailing newline) and [false] when the server should stop
    ([shutdown]). Exposed so tests can drive the protocol without
    channels. *)
val handle : t -> string -> string * bool

(** [drain t] — join every spawned campaign domain, letting running
    jobs finish. Idempotent; called by {!loop} on EOF. *)
val drain : t -> unit

(** [loop t] — serve stdin to stdout until [shutdown] or EOF.
    Responses are flushed per line. *)
val loop : t -> unit
