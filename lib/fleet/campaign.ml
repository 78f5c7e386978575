module FC = Faultinj.Campaign
module L = Snapshot.Log

type telemetry_summary = {
  counters : Telemetry.Counters.snapshot;
  events : int;
  dropped : int;
  hists : (Telemetry.Span.kind * Telemetry.Hist.t) list;
  (* Chrome trace lanes: (label, raw events) for the first [lanes]
     trials *by index*, so the rendered fleet trace is byte-identical
     however the work-stealing pool scattered those trials. *)
  lanes : (string * Telemetry.Event.t list) list;
}

type result = {
  report : FC.report;
  telemetry : telemetry_summary option;
  stats : Pool.stats;
  failures : Pool.job_failure list;
  record_path : string option;
}

let empty_telemetry =
  {
    counters = Telemetry.Counters.zero;
    events = 0;
    dropped = 0;
    hists = Telemetry.Span.empty_histograms ();
    lanes = [];
  }

let merge_telemetry a b =
  {
    counters = Telemetry.Counters.merge a.counters b.counters;
    events = a.events + b.events;
    dropped = a.dropped + b.dropped;
    hists = Telemetry.Span.merge_histograms a.hists b.hists;
    lanes = a.lanes @ b.lanes;
  }

(* Boot-once, fork-per-trial: every worker domain keeps one campaign
   session (boot + workload setup + golden run, snapshotted) in
   domain-local storage and serves its trials by restoring the snapshot.
   The cache is keyed by the full parameter tuple, so interleaved
   campaigns with different shapes each get their own session; a repeat
   campaign on the same domain (the serve control plane, test suites)
   reuses the session outright. An omitted shape parameter stays [None]
   here and takes the session's default. *)
type session_params = {
  sp_config : Camouflage.Config.t option;
  sp_cpus : int option;
  sp_tasks : int option;
  sp_rounds : int option;
  sp_quantum : int option;
  sp_telemetry : bool;
  sp_tier : Aarch64.Cpu.tier option;
  sp_seed : int64;
}

let session_key : (session_params * FC.session) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let session_for p =
  match Domain.DLS.get session_key with
  | Some (q, ses) when q = p -> ses
  | _ ->
      let ses =
        FC.create_session ?config:p.sp_config ?cpus:p.sp_cpus ?tasks:p.sp_tasks
          ?rounds:p.sp_rounds ?quantum:p.sp_quantum ~telemetry:p.sp_telemetry
          ?tier:p.sp_tier ~seed:p.sp_seed ()
      in
      Domain.DLS.set session_key (Some (p, ses));
      ses

let run ?config ?(config_name = "full") ?cpus ?tasks ?rounds ?quantum
    ?quarantine_after ?workers ?retries ?(telemetry = false) ?tier ?(lanes = 0)
    ?record_dir ?job_hook ?progress ?should_stop ~seed ~trials () =
  let params =
    {
      sp_config = config;
      sp_cpus = cpus;
      sp_tasks = tasks;
      sp_rounds = rounds;
      sp_quantum = quantum;
      sp_telemetry = telemetry;
      sp_tier = tier;
      sp_seed = seed;
    }
  in
  (* the calling domain is pool worker 0: its DLS session doubles as
     the golden run and the report's shape, so the boot is not paid
     twice *)
  let ses0 = session_for params in
  let outcome =
    Pool.run ?workers ?retries ?progress ?should_stop ~jobs:trials
      (fun index ->
        (match job_hook with Some h -> h index | None -> ());
        FC.run_random_trial_in (session_for params) ?quarantine_after
          ~keep_events:(index < lanes) ~fingerprint:(record_dir <> None) ~index ())
  in
  if outcome.Pool.stats.Pool.stopped then None
  else
    let jobs = List.filter_map Fun.id (Array.to_list outcome.Pool.results) in
    let trial_list = List.map (fun tr -> tr.FC.tr_trial) jobs in
    let telemetry_summary =
      if not telemetry then None
      else
        (* fold in index order: deterministic, and the merge-monoid
           property (tested) makes any other order equivalent anyway *)
        Some
          (List.fold_left
             (fun acc tr ->
               match tr.FC.tr_telemetry with
               | None -> acc
               | Some jt ->
                   merge_telemetry acc
                     {
                       counters = jt.FC.jt_counters;
                       events = jt.FC.jt_events;
                       dropped = jt.FC.jt_dropped;
                       hists = jt.FC.jt_hists;
                       lanes =
                         (match jt.FC.jt_ring with
                         | [] -> []
                         | ring ->
                             [
                               ( Printf.sprintf "trial %d"
                                   tr.FC.tr_trial.FC.index,
                                 ring );
                             ]);
                     })
             empty_telemetry jobs)
    in
    let report = FC.report_of_trials ses0 ~config_name ?quarantine_after trial_list in
    let record_path =
      match record_dir with
      | None -> None
      | Some dir ->
          let header =
            {
              L.h_kind = "faults";
              h_seed = seed;
              h_trials = trials;
              h_config = config_name;
              h_cpus = report.FC.cpus;
              h_tasks = report.FC.tasks;
              h_rounds = report.FC.rounds;
              h_quantum = report.FC.quantum;
              h_quarantine_after = quarantine_after;
              h_golden_makespan = report.FC.golden_makespan;
              h_golden_fingerprint = FC.session_golden_fingerprint ses0;
            }
          in
          let entries =
            List.map
              (fun tr ->
                Faultinj.Replay.entry_of_trial
                  ~fingerprint:(Option.get tr.FC.tr_fingerprint) tr.FC.tr_trial)
              jobs
          in
          let path =
            Filename.concat dir
              (Printf.sprintf "faults-%Ld-%d.replay" seed trials)
          in
          L.write ~path { L.header; entries };
          Some path
    in
    Some
      {
        report;
        telemetry = telemetry_summary;
        stats = outcome.Pool.stats;
        failures = outcome.Pool.failures;
        record_path;
      }
