(** Seeded fault-injection campaigns over the SMP kernel.

    A campaign {!session} boots one system, sets up a fixed multi-task
    console workload, snapshots it and runs the workload once
    uninjected (the {e golden} run). Every trial then restores that
    snapshot, arms one fault spec ({!Injector}) and runs the workload
    again: a randomly drawn spec ({!run_random_trial_in}) or a
    hand-built one ({!run_trial_in}). [Fleet.Campaign.run] shards the
    random trials over worker domains, one session each. Trial
    outcomes are classified against the golden run:

    - [Detected_by_pac]: a task was killed on a PAC authentication
      failure (the poisoned-address path),
    - [Detected_by_mmu]: a task was killed on an ordinary translation
      fault or kernel oops,
    - [Panicked]: the system halted (brute-force threshold or explicit
      panic) — fail-stop, counted as detected,
    - [Task_killed]: a task died for another policed reason (watchdog,
      context-integrity, plain SIGKILL),
    - [Silent_corruption]: everything "succeeded" but the exits or
      console output differ from the golden run (or work was lost),
    - [Benign]: indistinguishable from the golden run.

    Everything derives from the single campaign seed: trial [i] uses a
    splitmix64 stream seeded with [seed ⊕ mix(i)], so the same seed and
    parameters give a byte-identical report. *)

type outcome =
  | Detected_by_pac
  | Detected_by_mmu
  | Panicked
  | Task_killed
  | Silent_corruption
  | Benign

val outcome_name : outcome -> string

type trial = {
  index : int;
  spec : Injector.spec;
  spec_desc : string;
  fired : bool;
  outcome : outcome;
  detail : string;  (** kill message / deviation note, [""] when benign *)
  makespan : int64;
  offlined : int list;
}

type report = {
  seed : int64;
  trials : int;
  config_name : string;
  cpus : int;
  tasks : int;
  rounds : int;
  quantum : int;
  quarantine_after : int option;
  golden_makespan : int64;
  fired_count : int;
  n_detected_by_pac : int;
  n_detected_by_mmu : int;
  n_panicked : int;
  n_task_killed : int;
  n_silent : int;
  n_benign : int;
  detection_rate : float;
      (** detected / (detected + silent), over trials whose fault had any
          effect; [1.0] when no trial had an effect *)
  mean_makespan : float;
  trial_list : trial list;
}

(** The workload every trial runs per task: [rounds] iterations of
    {e write(1, "xx", 2); getpid}, exiting with the completed round
    count — console output and exit codes make silent corruption
    observable. *)
val workload_program : rounds:int -> Aarch64.Asm.program

(** [check_params ~trials ()] — the parameter ranges every front end
    of a campaign accepts (the CLI, [serve] requests and replay-log
    headers): trials 1–1,000,000, cpus 1–16, tasks 1–64, rounds
    1–10,000, quantum 50–100,000 and quarantine 1–1,000,000. An omitted
    parameter is the {!create_session} default, which is in range.
    [Error] names the first field out of range. Sessions themselves do
    not check. *)
val check_params :
  ?cpus:int ->
  ?tasks:int ->
  ?rounds:int ->
  ?quantum:int ->
  ?quarantine_after:int ->
  trials:int ->
  unit ->
  (unit, string) result

(** The uninjected reference run a session's trials are classified
    against. *)
type golden = {
  g_exits : (int * Kernel.System.user_exit) list;  (** sorted by pid *)
  g_console : string;
  g_makespan : int64;
}

(** Telemetry harvested from one trial's machine when its session was
    created with [~telemetry:true]: the merged per-core counter file, an
    event-ring summary, and the per-kind span latency histograms. Fold
    with {!Telemetry.Counters.merge} / {!Telemetry.Span.merge_histograms}
    to build fleet-wide views. [jt_ring] carries the raw event stream
    only when the trial was harvested with [keep_events] (Chrome trace
    lanes); it is [[]] otherwise so bulk campaigns stay lean. *)
type job_telemetry = {
  jt_counters : Telemetry.Counters.snapshot;
  jt_events : int;
  jt_dropped : int;
  jt_hists : (Telemetry.Span.kind * Telemetry.Hist.t) list;
  jt_ring : Telemetry.Event.t list;
}

(** A snapshot-forked campaign session: one boot + workload setup,
    captured with {!Kernel.System.snapshot}, plus the golden run. Each
    trial restores the post-setup snapshot instead of re-booting.
    Restore returns the exact captured state and clears trial-armed
    injector hooks, so a trial's outcome does not depend on the trials
    the session ran before it. [telemetry] (default [false]) boots with
    telemetry — pure observation, every trial outcome is bit-identical
    either way — and fills each trial's [tr_telemetry]. A session wraps
    one mutable system: callers must not share it across domains —
    fleet workers each create their own. *)
type session

(** [create_session ~seed ()] — boot, set up the workload, snapshot and
    run the golden run. The defaults are the campaign's: config
    [Camouflage.Config.full], 2 cpus, 4 tasks, 8 rounds and a quantum
    of 400 user instructions; every front end that omits a parameter
    gets these. *)
val create_session :
  ?config:Camouflage.Config.t ->
  ?cpus:int ->
  ?tasks:int ->
  ?rounds:int ->
  ?quantum:int ->
  ?telemetry:bool ->
  ?tier:Aarch64.Cpu.tier ->
  seed:int64 ->
  unit ->
  session

val session_golden : session -> golden

(** State fingerprint ({!Snapshot.Fingerprint.of_system}) taken right
    after the golden run — the replay log's identity anchor. *)
val session_golden_fingerprint : session -> string

val session_system : session -> Kernel.System.t

type trial_result = {
  tr_trial : trial;
  tr_telemetry : job_telemetry option;
  tr_fingerprint : string option;
      (** post-trial system state; [Some] iff the trial was run with
          [~fingerprint:true] *)
}

(** [run_random_trial_in ses ~index ()] — trial [index] of the
    campaign keyed by the session's seed: restores the base snapshot,
    draws the [(seed, index)]-keyed spec, arms it and runs. The per-trial
    RNG stream depends only on [(seed, index)], so any partition of the
    index space over any number of workers replays the identical
    trials. [keep_events] (default [false]) copies the trial's raw event
    stream into [jt_ring] for trace-lane capture.

    [fingerprint] (default [false]) also takes the post-trial state
    fingerprint ({!Snapshot.Fingerprint.of_system}) into
    [tr_fingerprint]. Only a replay log reads it — record mode writes
    it, {!Replay} compares against it — and it costs a serialization of
    all of memory, so a campaign that neither records nor replays
    leaves it off. Taking it never changes the trial. *)
val run_random_trial_in :
  session ->
  ?quarantine_after:int ->
  ?keep_events:bool ->
  ?fingerprint:bool ->
  index:int ->
  unit ->
  trial_result

(** [run_trial_in ses ~spec ()] — one trial with a hand-built fault:
    restores the base snapshot, arms [spec] (given the restored system,
    the mapped workload layout and the spawned tasks — so tests can
    compute concrete addresses), runs and classifies. The record's
    [index] is 0. *)
val run_trial_in :
  session ->
  spec:
    (Kernel.System.t -> Aarch64.Asm.layout -> Kernel.System.task list -> Injector.spec) ->
  unit ->
  trial

(** [report_of_trials ses ~config_name trials] — aggregate trials
    classified against [ses]'s golden run into a campaign report, which
    records [ses]'s seed and shape. [config_name] and [quarantine_after]
    are only recorded. All aggregates (counts, rates, mean makespan) are
    computed from the list in the order given, so pass trials sorted by
    index for a report that does not depend on how they were
    scheduled. *)
val report_of_trials :
  session -> config_name:string -> ?quarantine_after:int -> trial list -> report

(** Deterministic JSON rendering: fixed field order, fixed float
    formatting — the same report always serializes to the same bytes. *)
val report_to_json : report -> string

val report_to_string : report -> string

(** Per-CPU quarantine demonstration: two cores, a stuck-at bit flip in
    core 1's data-key register (armed on core 1 only), brute-force
    threshold 3. The baseline run panics when core 1's repeated PAC
    failures cross the threshold; with [quarantine_after 2] the kernel
    offlines core 1 after two failures, migrates its queue to core 0 and
    every surviving task completes. *)
type demo = {
  demo_spec : string;
  baseline_panicked : bool;
  baseline_completed : int;  (** clean exits without quarantine *)
  baseline_failures : int;
  quarantine_panicked : bool;
  quarantine_completed : int;
  quarantine_killed : int;
  quarantine_offlined : int list;
}

val quarantine_demo : ?seed:int64 -> unit -> demo

val demo_to_string : demo -> string
