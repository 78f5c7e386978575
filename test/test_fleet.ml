(* The fleet engine: claiming from other blocks, pool determinism and
   cancellation, campaign/sweep byte-stability across worker counts
   (including against every trial run on a session of its own),
   telemetry merging, and the serve control-plane protocol. *)

module F = Fleet
module FC = Faultinj.Campaign
module J = Camo_util.Json

(* --- pool --------------------------------------------------------- *)

let domain_id () = (Domain.self () :> int)

(* The helper's block (jobs 20-39) waits until the caller's domain has
   run one of its jobs, which it can only do by claiming from the
   helper's block once its own is drained. The first waiting job gives
   up after 2 s and later ones stop waiting, so a pool whose drained
   worker stops fails here in seconds instead of hanging. *)
let test_drained_worker_claims () =
  let caller = domain_id () in
  let claimed = Atomic.make false and gave_up = Atomic.make false in
  let outcome =
    F.Pool.run ~workers:2 ~retries:0 ~jobs:40 (fun i ->
        (if i < 20 then ()
         else if domain_id () = caller then Atomic.set claimed true
         else
           let deadline = Unix.gettimeofday () +. 2.0 in
           while not (Atomic.get claimed || Atomic.get gave_up) do
             if Unix.gettimeofday () > deadline then Atomic.set gave_up true
             else Unix.sleepf 0.0005
           done);
        i)
  in
  let stats = outcome.F.Pool.stats in
  Alcotest.(check (list int)) "no failures" []
    (List.map (fun f -> f.F.Pool.job) outcome.F.Pool.failures);
  Alcotest.(check bool) "the caller ran a job of the helper's block" true
    (Atomic.get claimed);
  Alcotest.(check bool) "the claim is counted as a steal" true
    (stats.F.Pool.steals.(0) >= 1);
  Alcotest.(check int) "40 jobs ran" 40
    (Array.fold_left ( + ) 0 stats.F.Pool.jobs_run)

let test_pool_map_matches_sequential () =
  let f i = (i * i) + 7 in
  let expected = Array.init 40 f in
  List.iter
    (fun workers ->
      Alcotest.(check (array int))
        (Printf.sprintf "map at %d workers = sequential" workers)
        expected
        (F.Pool.map ~workers ~jobs:40 f))
    [ 1; 2; 3; 8 ]

(* 33 jobs on 4 workers; 0 jobs on 8 run one worker with no slots; 3
   jobs on 8 clamp to 3 workers, whose blocks hold one job each. *)
let test_pool_accounts_every_job () =
  List.iter
    (fun (workers, jobs, expected_workers) ->
      let outcome = F.Pool.run ~workers ~jobs (fun i -> i) in
      let label what = Printf.sprintf "%d jobs on %d workers: %s" jobs workers what in
      Alcotest.(check int) (label "worker count recorded") expected_workers
        outcome.F.Pool.stats.F.Pool.workers;
      Alcotest.(check int) (label "every job ran exactly once") jobs
        (Array.fold_left ( + ) 0 outcome.F.Pool.stats.F.Pool.jobs_run);
      Alcotest.(check bool) (label "not stopped") false
        outcome.F.Pool.stats.F.Pool.stopped;
      Alcotest.(check (array (option int))) (label "slots filled in index order")
        (Array.init jobs Option.some) outcome.F.Pool.results)
    [ (4, 33, 4); (8, 0, 1); (8, 3, 3) ]

let test_pool_cancellation () =
  let completed = Atomic.make 0 in
  let outcome =
    F.Pool.run ~workers:2 ~jobs:100
      ~progress:(fun () -> Atomic.incr completed)
      ~should_stop:(fun () -> Atomic.get completed >= 5)
      (fun i -> i)
  in
  Alcotest.(check bool) "stop latched" true outcome.F.Pool.stats.F.Pool.stopped;
  Alcotest.(check bool) "some jobs were shed" true
    (Array.exists Option.is_none outcome.F.Pool.results);
  let ran = Array.fold_left ( + ) 0 outcome.F.Pool.stats.F.Pool.jobs_run in
  Alcotest.(check bool)
    (Printf.sprintf "completed count bounded (ran %d)" ran)
    true
    (ran >= 5 && ran < 100)

let test_pool_quarantines_poisoned_job () =
  (* a job that always raises is retried, then quarantined: the pool
     completes, every other slot is filled, nothing is re-raised *)
  let attempts_seen = Atomic.make 0 in
  let outcome =
    F.Pool.run ~workers:3 ~retries:2 ~jobs:12 (fun i ->
        if i = 7 then begin
          Atomic.incr attempts_seen;
          failwith "boom"
        end
        else i)
  in
  (match outcome.F.Pool.failures with
  | [ f ] ->
      Alcotest.(check int) "failed job index" 7 f.F.Pool.job;
      Alcotest.(check int) "attempts = 1 + retries" 3 f.F.Pool.attempts;
      let contains sub s =
        let n = String.length sub and m = String.length s in
        let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "error text preserved" true
        (contains "boom" f.F.Pool.error)
  | fs -> Alcotest.fail (Printf.sprintf "expected 1 failure, got %d" (List.length fs)));
  Alcotest.(check int) "job was attempted exactly 3 times" 3
    (Atomic.get attempts_seen);
  Alcotest.(check bool) "pool not stopped by the failure" false
    outcome.F.Pool.stats.F.Pool.stopped;
  Array.iteri
    (fun i slot ->
      if i = 7 then
        Alcotest.(check (option int)) "poisoned slot stays empty" None slot
      else
        Alcotest.(check (option int))
          (Printf.sprintf "slot %d unaffected" i)
          (Some i) slot)
    outcome.F.Pool.results

let test_pool_retry_recovers_transient_failure () =
  (* a job that fails twice then succeeds: retries absorb it *)
  let tries = Atomic.make 0 in
  let outcome =
    F.Pool.run ~workers:1 ~retries:2 ~jobs:3 (fun i ->
        if i = 1 && Atomic.fetch_and_add tries 1 < 2 then failwith "flaky"
        else i * 10)
  in
  Alcotest.(check (list int)) "no failures recorded" []
    (List.map (fun f -> f.F.Pool.job) outcome.F.Pool.failures);
  Alcotest.(check (option int)) "flaky job eventually succeeded" (Some 10)
    outcome.F.Pool.results.(1);
  (* map raises when a job is quarantined for good *)
  match F.Pool.map ~workers:1 ~retries:0 ~jobs:2 (fun i -> if i = 0 then failwith "dead" else i) with
  | exception Failure m ->
      Alcotest.(check bool) "map reports the quarantined job" true
        (String.length m > 0)
  | _ -> Alcotest.fail "map ignored a quarantined job"

(* Kept helpers: jobs sleep ~1 ms so that both the caller and the
   helper run some of them. *)
let slow_job i =
  Unix.sleepf 0.001;
  i

(* the domains other than the caller's that ran a two-worker run *)
let helper_domains () =
  let caller = domain_id () in
  let seen = Array.make 40 caller in
  let outcome =
    F.Pool.run ~workers:2 ~jobs:40 (fun i ->
        seen.(i) <- domain_id ();
        slow_job i)
  in
  Alcotest.(check int) "every job ran" 40
    (Array.fold_left ( + ) 0 outcome.F.Pool.stats.F.Pool.jobs_run);
  List.sort_uniq compare (List.filter (( <> ) caller) (Array.to_list seen))

let test_pool_keeps_helper () =
  ignore (helper_domains ());
  let first = helper_domains () in
  let second = helper_domains () in
  Alcotest.(check int) "one helper ran jobs" 1 (List.length first);
  Alcotest.(check (list int)) "the next run reuses the parked helper" first second

let test_pool_helper_exception_reaches_caller () =
  let caller = domain_id () in
  (match
     F.Pool.run ~workers:2 ~jobs:40
       ~progress:(fun () -> if domain_id () <> caller then failwith "helper progress")
       slow_job
   with
  | _ -> Alcotest.fail "an exception raised on the helper was swallowed"
  | exception Failure m -> Alcotest.(check string) "the helper's exception" "helper progress" m);
  let outcome = F.Pool.run ~workers:2 ~jobs:40 slow_job in
  Array.iteri
    (fun i slot ->
      Alcotest.(check (option int)) (Printf.sprintf "slot %d filled" i) (Some i) slot)
    outcome.F.Pool.results

let test_pool_nested_runs () =
  (* every job of the outer run starts an inner two-worker run while the
     outer run's helper is busy: inner runs must spawn, not wait *)
  let sums =
    F.Pool.map ~workers:2 ~jobs:4 (fun i ->
        Array.fold_left ( + ) i (F.Pool.map ~workers:2 ~jobs:8 slow_job))
  in
  Alcotest.(check (array int)) "nested runs complete" [| 28; 29; 30; 31 |] sums

(* --- fleet campaign: byte-stable across worker counts -------------- *)

let campaign_json ?telemetry workers =
  let result =
    Option.get (F.Campaign.run ?telemetry ~workers ~seed:5L ~trials:6 ())
  in
  (Faultinj.Campaign.report_to_json result.F.Campaign.report, result)

let test_campaign_workers_byte_identical () =
  let w1, _ = campaign_json 1 in
  let w2, _ = campaign_json 2 in
  let w8, _ = campaign_json 8 in
  Alcotest.(check string) "1 worker = 2 workers" w1 w2;
  Alcotest.(check string) "1 worker = 8 workers" w1 w8

(* The reference runs every trial on a session of its own and folds
   them in index order: no trial may depend on the worker, or on the
   trials a shared session ran before it. *)
let test_campaign_matches_fresh_sessions () =
  let seed = 5L in
  let trial index =
    (FC.run_random_trial_in (FC.create_session ~seed ()) ~index ()).FC.tr_trial
  in
  let reference =
    FC.report_to_json
      (FC.report_of_trials (FC.create_session ~seed ()) ~config_name:"full"
         (List.init 6 trial))
  in
  let fleet, _ = campaign_json 3 in
  Alcotest.(check string) "fleet report = fresh-session trials" reference fleet

let test_campaign_telemetry_merge () =
  let plain, _ = campaign_json 2 in
  let observed, result = campaign_json ~telemetry:true 2 in
  (* observation stays pure: the report bytes cannot move *)
  Alcotest.(check string) "telemetry does not perturb the report" plain observed;
  match result.F.Campaign.telemetry with
  | None -> Alcotest.fail "telemetry summary missing"
  | Some t ->
      Alcotest.(check bool) "merged counters retired work" true
        (Int64.compare t.F.Campaign.counters.Telemetry.Counters.retired 0L > 0);
      Alcotest.(check bool) "event rings observed" true (t.F.Campaign.events > 0)

(* Merged histograms and fleet Chrome lanes must not see the
   work-stealing schedule: byte-identical for 1/2/8 workers (PR 9). *)
let test_campaign_hists_and_lanes_byte_identical () =
  let artifacts workers =
    let result =
      Option.get
        (F.Campaign.run ~telemetry:true ~lanes:3 ~workers ~seed:5L ~trials:6 ())
    in
    let t = Option.get result.F.Campaign.telemetry in
    ( Telemetry.Span.histograms_to_json t.F.Campaign.hists,
      Telemetry.Chrome.serialize_lanes t.F.Campaign.lanes )
  in
  let h1, c1 = artifacts 1 in
  let h2, c2 = artifacts 2 in
  let h8, c8 = artifacts 8 in
  Alcotest.(check string) "hist JSON: 1 worker = 2 workers" h1 h2;
  Alcotest.(check string) "hist JSON: 1 worker = 8 workers" h1 h8;
  Alcotest.(check string) "chrome lanes: 1 worker = 2 workers" c1 c2;
  Alcotest.(check string) "chrome lanes: 1 worker = 8 workers" c1 c8;
  (match Telemetry.Chrome.validate c1 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "fleet lane trace rejected: %s" e);
  (* the campaign actually observed latency: syscall spans exist *)
  match J.parse h1 with
  | Error e -> Alcotest.failf "hist JSON unparsable: %s" e
  | Ok v -> (
      match Option.bind (J.member "syscall" v) (J.member "count") with
      | Some (J.Int n) ->
          Alcotest.(check bool) "merged syscall spans non-empty" true (n > 0L)
      | _ -> Alcotest.fail "hist JSON lacks a syscall count")

(* --- brute-force sweep -------------------------------------------- *)

let sweep_json workers =
  let report, _, _ =
    Option.get (F.Sweep.run ~workers ~seed:9L ~machines:6 ~attempts:8 ())
  in
  report

let test_sweep_workers_byte_identical () =
  let w1 = sweep_json 1 and w3 = sweep_json 3 in
  Alcotest.(check string) "sweep report byte-identical across workers"
    (F.Sweep.report_to_json w1) (F.Sweep.report_to_json w3)

let test_sweep_audits_and_threshold () =
  let r = sweep_json 2 in
  Alcotest.(check int) "accounting audit passes on every machine" 0
    r.F.Sweep.sw_audit_failures;
  Alcotest.(check int) "default threshold keeps machines alive" 0
    r.F.Sweep.sw_panicked;
  Alcotest.(check int) "every machine made its guesses" (6 * 8)
    r.F.Sweep.sw_total_attempts;
  (* a tight threshold must halt every machine before its budget *)
  let tight, _, _ =
    Option.get
      (F.Sweep.run ~threshold:4 ~workers:2 ~seed:9L ~machines:6 ~attempts:8 ())
  in
  Alcotest.(check int) "threshold 4: every machine panics" 6
    tight.F.Sweep.sw_panicked;
  Alcotest.(check bool) "panic stops the guessing loop early" true
    (tight.F.Sweep.sw_total_attempts < 6 * 8)

let parse_ok s =
  match J.parse s with
  | Ok v -> v
  | Error e -> Alcotest.fail ("json rejected " ^ s ^ ": " ^ e)

(* --- serve: the control-plane protocol ----------------------------- *)

let request srv fmt =
  Printf.ksprintf
    (fun line ->
      let response, _ = F.Serve.handle srv line in
      parse_ok response)
    fmt

let str_of v name = Option.bind (J.member name v) J.to_string
let int_of v name = Option.bind (J.member name v) J.to_int
let is_ok v = Option.bind (J.member "ok" v) J.to_bool = Some true

let poll srv id ~until =
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec go () =
    let v = request srv {|{"req": "status", "id": %d}|} id in
    match str_of v "state" with
    | Some s when List.mem s until -> (s, v)
    | Some _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.02;
        go ()
    | Some s -> Alcotest.fail (Printf.sprintf "job %d stuck in state %s" id s)
    | None -> Alcotest.fail "status response carries no state"
  in
  go ()

let test_serve_round_trip () =
  let srv = F.Serve.create () in
  let pong = request srv {|{"req": "ping"}|} in
  Alcotest.(check (option string)) "ping" (Some "pong") (str_of pong "reply");
  let sub =
    request srv
      {|{"req": "submit", "kind": "faults", "seed": 5, "trials": 4, "workers": 2}|}
  in
  Alcotest.(check bool) "submit accepted" true (is_ok sub);
  let id = Option.get (int_of sub "id") in
  Alcotest.(check (option int)) "total echoes trials" (Some 4) (int_of sub "total");
  let state, status = poll srv id ~until:[ "done"; "failed" ] in
  Alcotest.(check string) "campaign completes" "done" state;
  Alcotest.(check (option int)) "progress reached total" (Some 4)
    (int_of status "completed");
  let rep = request srv {|{"req": "report", "id": %d}|} id in
  Alcotest.(check bool) "report fetch ok" true (is_ok rep);
  let report = Option.get (J.member "report" rep) in
  Alcotest.(check (option string)) "embedded campaign report"
    (Some "camouflage-faultinj")
    (str_of report "campaign");
  (* the served report carries the same trial outcomes as a direct run *)
  Alcotest.(check (option int)) "served trials" (Some 4) (int_of report "trials");
  F.Serve.drain srv

let test_serve_metrics () =
  let srv = F.Serve.create () in
  (* metrics on a fresh server: zeros across the board, valid JSON *)
  let m0 = request srv {|{"req": "metrics"}|} in
  Alcotest.(check bool) "metrics ok on idle server" true (is_ok m0);
  Alcotest.(check (option string)) "reply tag" (Some "metrics")
    (str_of m0 "reply");
  Alcotest.(check bool) "uptime is reported" true
    (match int_of m0 "uptime_ms" with Some n -> n >= 0 | None -> false);
  let jobs0 = Option.get (J.member "jobs" m0) in
  Alcotest.(check (option int)) "no jobs submitted yet" (Some 0)
    (Option.bind (J.member "submitted" jobs0) J.to_int);
  (* run a campaign to completion, then sample again *)
  let sub =
    request srv
      {|{"req": "submit", "kind": "faults", "seed": 5, "trials": 4, "workers": 2}|}
  in
  let id = Option.get (int_of sub "id") in
  let state, _ = poll srv id ~until:[ "done"; "failed" ] in
  Alcotest.(check string) "campaign completes" "done" state;
  let m = request srv {|{"req": "metrics"}|} in
  let jobs = Option.get (J.member "jobs" m) in
  Alcotest.(check (option int)) "one job submitted" (Some 1)
    (Option.bind (J.member "submitted" jobs) J.to_int);
  Alcotest.(check (option int)) "one job done" (Some 1)
    (Option.bind (J.member "done" jobs) J.to_int);
  let trials = Option.get (J.member "trials" m) in
  Alcotest.(check (option int)) "all trials counted" (Some 4)
    (Option.bind (J.member "completed" trials) J.to_int);
  Alcotest.(check (option int)) "nothing quarantined" (Some 0)
    (int_of m "quarantined");
  (* the finished campaign contributed span histograms *)
  (match
     Option.bind
       (Option.bind (J.member "span_hists" m) (J.member "syscall"))
       (J.member "count")
   with
  | Some n ->
      Alcotest.(check bool) "syscall spans surfaced in metrics" true
        (match J.to_int n with Some c -> c > 0 | None -> false)
  | None -> Alcotest.fail "metrics carry no span_hists.syscall.count");
  F.Serve.drain srv

let test_serve_rejects_malformed () =
  let srv = F.Serve.create () in
  let checks =
    [
      ("bad JSON", "{nope");
      ("missing req", {|{"id": 3}|});
      ("unknown req", {|{"req": "frobnicate"}|});
      ("unknown kind", {|{"req": "submit", "kind": "pizza"}|});
      ("unknown id", {|{"req": "status", "id": 99}|});
      ("report before submit", {|{"req": "report", "id": 99}|});
      ("out-of-range workers", {|{"req": "submit", "kind": "faults", "workers": 0}|});
      ("out-of-range cpus", {|{"req": "submit", "kind": "faults", "cpus": 100000}|});
      ("out-of-range trials", {|{"req": "submit", "kind": "faults", "trials": -1}|});
      ("out-of-range quantum", {|{"req": "submit", "kind": "faults", "quantum": 0}|});
      ("out-of-range quarantine", {|{"req": "submit", "kind": "faults", "quarantine": 0}|});
    ]
  in
  List.iter
    (fun (label, line) ->
      let v = parse_ok (fst (F.Serve.handle srv line)) in
      Alcotest.(check bool) (label ^ ": rejected") false (is_ok v);
      Alcotest.(check bool)
        (label ^ ": error is explained")
        true
        (match str_of v "error" with Some e -> e <> "" | None -> false))
    checks;
  (* a garbage line must not kill the server *)
  let pong = request srv {|{"req": "ping"}|} in
  Alcotest.(check bool) "server survives" true (is_ok pong);
  F.Serve.drain srv

let test_serve_cancel_and_shutdown () =
  let srv = F.Serve.create () in
  let sub =
    request srv
      {|{"req": "submit", "kind": "bruteforce", "seed": 9, "machines": 400, "attempts": 8, "workers": 2}|}
  in
  let id = Option.get (int_of sub "id") in
  let cancel = request srv {|{"req": "cancel", "id": %d}|} id in
  Alcotest.(check bool) "cancel accepted" true (is_ok cancel);
  let state, _ = poll srv id ~until:[ "cancelled"; "done" ] in
  Alcotest.(check string) "job cancelled" "cancelled" state;
  let rep = request srv {|{"req": "report", "id": %d}|} id in
  Alcotest.(check bool) "no report after cancel" false (is_ok rep);
  let bye, continue = F.Serve.handle srv {|{"req": "shutdown"}|} in
  Alcotest.(check bool) "shutdown stops the loop" false continue;
  Alcotest.(check (option string)) "shutdown acks" (Some "bye")
    (str_of (parse_ok bye) "reply");
  F.Serve.drain srv

(* serve names configurations with the CLI's vocabulary: a campaign
   under a scheme beyond the original four runs to a report. *)
let test_serve_sp_only_campaign () =
  let srv = F.Serve.create () in
  let sub =
    request srv
      {|{"req": "submit", "kind": "faults", "config": "sp-only", "seed": 5, "trials": 2, "workers": 1}|}
  in
  Alcotest.(check bool) "sp-only submit accepted" true (is_ok sub);
  let id = Option.get (int_of sub "id") in
  let state, _ = poll srv id ~until:[ "done"; "failed" ] in
  Alcotest.(check string) "sp-only campaign completes" "done" state;
  let report = Option.get (J.member "report" (request srv {|{"req": "report", "id": %d}|} id)) in
  Alcotest.(check (option string)) "report names the config" (Some "sp-only")
    (str_of report "config");
  Alcotest.(check (option int)) "served trials" (Some 2) (int_of report "trials");
  F.Serve.drain srv

(* ... and a configuration the kernel cannot boot is refused with a
   structured error at submit time, for both job kinds, instead of
   failing every trial. *)
let test_serve_refuses_chained () =
  let srv = F.Serve.create () in
  List.iter
    (fun kind ->
      let v =
        request srv {|{"req": "submit", "kind": "%s", "config": "chained"}|} kind
      in
      Alcotest.(check bool) (kind ^ ": chained refused") false (is_ok v);
      Alcotest.(check bool)
        (kind ^ ": error names the scheme")
        true
        (match str_of v "error" with
        | Some e -> String.starts_with ~prefix:{|config "chained"|} e
        | None -> false))
    [ "faults"; "bruteforce" ];
  let metrics = request srv {|{"req": "metrics"}|} in
  Alcotest.(check (option int)) "no job registered" (Some 0)
    (Option.bind (J.member "submitted" (Option.get (J.member "jobs" metrics))) J.to_int);
  F.Serve.drain srv

(* serve is total: a random line, or a line of a request corpus with one
   byte cut, overwritten, inserted or deleted, gets one single-line JSON
   response on a fresh server, with "ok" true or a non-empty "error",
   and never an exception, within 5 s. Every submit in the corpus asks
   for one trial on one worker, so one damaged byte starts at most one
   small campaign (a damaged "trials" key falls back to the default
   16); each case drains its server, so none leaves a domain running. *)
let serve_corpus =
  [|
    {|{"req": "ping"}|};
    {|{"req": "metrics"}|};
    {|{"req": "status", "id": 1}|};
    {|{"req": "report", "id": 1}|};
    {|{"req": "cancel", "id": 1}|};
    {|{"req": "shutdown"}|};
    {|{"req": "submit", "kind": "faults", "seed": 5, "trials": 1, "workers": 1}|};
    {|{"req": "submit", "kind": "faults", "config": "parts", "tier": "traces", "trials": 1, "workers": 1, "timeout_ms": 60000}|};
  |]

type serve_line = Noise of string | Damaged of int * Test_json.damage * int * char

let serve_line_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun s -> Noise s) string;
        map2
          (fun i (kind, pos, c) -> Damaged (i, kind, pos, c))
          (int_bound (Array.length serve_corpus - 1))
          Test_json.damage_gen;
      ])

let serve_line = function
  | Noise s -> s
  | Damaged (i, kind, pos, c) -> Test_json.damage serve_corpus.(i) (kind, pos, c)

let print_serve_line = function
  | Noise s -> Printf.sprintf "random line %S" s
  | Damaged (i, kind, pos, c) ->
      Printf.sprintf "request %d, %s: %S" i
        (Test_json.print_damage (kind, pos, c))
        (serve_line (Damaged (i, kind, pos, c)))

let prop_serve_total =
  QCheck.Test.make ~count:300
    ~name:"serve answers random and damaged lines with ok or an error"
    (QCheck.make ~print:print_serve_line serve_line_gen)
    (fun l ->
      let srv = F.Serve.create () in
      let t0 = Unix.gettimeofday () in
      let response, _ = F.Serve.handle srv (serve_line l) in
      let took = Unix.gettimeofday () -. t0 in
      F.Serve.drain srv;
      if took > 5.0 then QCheck.Test.fail_reportf "answered after %.1f s" took;
      if String.contains response '\n' then
        QCheck.Test.fail_reportf "a multi-line response: %S" response;
      match J.parse response with
      | Error e -> QCheck.Test.fail_reportf "response %S is not JSON: %s" response e
      | Ok v -> (
          match (Option.bind (J.member "ok" v) J.to_bool, str_of v "error") with
          | Some true, _ -> true
          | Some false, Some e when e <> "" -> true
          | _ -> QCheck.Test.fail_reportf "neither ok nor an error: %S" response))

let suite =
  [
    Alcotest.test_case "a drained worker claims from another block" `Quick
      test_drained_worker_claims;
    Alcotest.test_case "pool map = sequential at any width" `Quick
      test_pool_map_matches_sequential;
    Alcotest.test_case "pool runs every job exactly once" `Quick
      test_pool_accounts_every_job;
    Alcotest.test_case "pool cancellation sheds queued jobs" `Quick
      test_pool_cancellation;
    Alcotest.test_case "pool quarantines a poisoned job" `Quick
      test_pool_quarantines_poisoned_job;
    Alcotest.test_case "pool retries recover transient failures" `Quick
      test_pool_retry_recovers_transient_failure;
    Alcotest.test_case "campaign bytes: workers 1 = 2 = 8" `Quick
      test_campaign_workers_byte_identical;
    Alcotest.test_case "campaign bytes: fleet = new sessions" `Quick
      test_campaign_matches_fresh_sessions;
    Alcotest.test_case "campaign telemetry merges without perturbing" `Quick
      test_campaign_telemetry_merge;
    Alcotest.test_case "campaign hists and lanes: workers 1 = 2 = 8" `Quick
      test_campaign_hists_and_lanes_byte_identical;
    Alcotest.test_case "sweep bytes: workers 1 = 3" `Quick
      test_sweep_workers_byte_identical;
    Alcotest.test_case "sweep audits pass; tight threshold panics" `Quick
      test_sweep_audits_and_threshold;
    Alcotest.test_case "serve: submit, poll, fetch report" `Quick
      test_serve_round_trip;
    Alcotest.test_case "serve: metrics sample the live plane" `Quick
      test_serve_metrics;
    Alcotest.test_case "serve: malformed requests get errors" `Quick
      test_serve_rejects_malformed;
    Alcotest.test_case "serve: cancel and shutdown" `Quick
      test_serve_cancel_and_shutdown;
    Alcotest.test_case "serve: sp-only campaign runs" `Quick
      test_serve_sp_only_campaign;
    Alcotest.test_case "serve: chained config refused" `Quick
      test_serve_refuses_chained;
    Alcotest.test_case "pool: consecutive runs reuse the helper" `Quick
      test_pool_keeps_helper;
    Alcotest.test_case "pool: helper exception reaches the caller" `Quick
      test_pool_helper_exception_reaches_caller;
    Alcotest.test_case "pool: nested runs do not deadlock" `Quick
      test_pool_nested_runs;
    QCheck_alcotest.to_alcotest prop_serve_total;
  ]
