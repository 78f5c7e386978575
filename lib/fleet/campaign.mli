(** Sharded fault-injection campaigns over the {!Pool}: the one
    campaign runner.

    Every worker domain boots {e once}: it creates a campaign session
    ({!Faultinj.Campaign.create_session} — boot, workload setup, golden
    run, post-setup snapshot) in domain-local storage, then serves each
    trial by restoring the snapshot
    ({!Faultinj.Campaign.run_random_trial_in}). A trial does not depend
    on the trials its session ran before it, so the report — and its
    JSON — is byte-identical for every worker count, and equal to each
    trial run on a session of its own (pinned by the fleet test suite).
    The sequential run is literally [~workers:1]. Trials are merged
    {e by job index, not completion order}; the per-trial RNG stream is
    keyed by [(seed, index)], so the work-stealing schedule cannot
    change which faults are drawn.

    A trial job that raises is retried and then quarantined by the pool
    ({!Pool.job_failure}): the campaign completes, the failed trial is
    absent from the report, and the failure is surfaced in [failures].

    With [record_dir] the campaign writes a deterministic replay log
    ({!Snapshot.Log}) of every trial — spec, outcome and post-trial
    state fingerprint — replayable with [camouflage replay].

    With [telemetry] every trial machine boots with telemetry (pure
    observation: the report bytes do not change) and the per-job counter
    files are folded with {!Telemetry.Counters.merge} into one
    fleet-wide view, alongside summed event-ring totals and per-kind
    span latency histograms folded with
    {!Telemetry.Span.merge_histograms}. Both folds run in job-index
    order, so the merged summary — and any JSON rendered from it — is
    byte-identical for every worker count (the merges are commutative
    monoids, so any other order would agree anyway). *)

type telemetry_summary = {
  counters : Telemetry.Counters.snapshot;
      (** all cores of all trial machines, merged *)
  events : int;  (** events live in the rings at harvest, summed *)
  dropped : int;  (** ring overwrites, summed *)
  hists : (Telemetry.Span.kind * Telemetry.Hist.t) list;
      (** span latency per kind, merged over all trials *)
  lanes : (string * Telemetry.Event.t list) list;
      (** raw event streams of the first [lanes] trials by index, for
          {!Telemetry.Chrome.serialize_lanes}; [[]] unless [run] was
          given [~lanes] *)
}

type result = {
  report : Faultinj.Campaign.report;
  telemetry : telemetry_summary option;  (** with [~telemetry:true] *)
  stats : Pool.stats;
  failures : Pool.job_failure list;
      (** trial jobs quarantined after exhausting their retries *)
  record_path : string option;
      (** the replay log written when [record_dir] was given *)
}

(** [run ~seed ~trials ()] — golden run, then [trials] pool jobs forked
    from per-worker snapshots. Returns [None] only when [should_stop]
    fired before every trial completed (the cancelled-campaign path of
    [camouflage serve]). [progress] is called once per finished trial
    from worker domains. [record_dir] names an existing directory; the
    log lands in [<record_dir>/faults-<seed>-<trials>.replay].
    [job_hook] is a test-only hook invoked with the trial index at the
    start of every job attempt; raising from it simulates a worker
    failure. [lanes] (default 0) keeps the raw event streams of the
    first [lanes] trials by index for fleet Chrome traces. An omitted
    [config], [cpus], [tasks], [rounds] or [quantum] takes the
    {!Faultinj.Campaign.create_session} default, and the report records
    the value used; [config_name] defaults to ["full"]. *)
val run :
  ?config:Camouflage.Config.t ->
  ?config_name:string ->
  ?cpus:int ->
  ?tasks:int ->
  ?rounds:int ->
  ?quantum:int ->
  ?quarantine_after:int ->
  ?workers:int ->
  ?retries:int ->
  ?telemetry:bool ->
  ?tier:Aarch64.Cpu.tier ->
  ?lanes:int ->
  ?record_dir:string ->
  ?job_hook:(int -> unit) ->
  ?progress:(unit -> unit) ->
  ?should_stop:(unit -> bool) ->
  seed:int64 ->
  trials:int ->
  unit ->
  result option
