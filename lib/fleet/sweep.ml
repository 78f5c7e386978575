module C = Camouflage
module K = Kernel

type machine_report = {
  m_index : int;
  m_attempts : int;
  m_successes : int;
  m_detected : int;
  m_panicked : bool;
  m_audit_ok : bool;
}

type report = {
  sw_seed : int64;
  sw_machines : int;
  sw_attempts : int;
  sw_threshold : int;
  sw_config_name : string;
  sw_total_attempts : int;
  sw_total_successes : int;
  sw_total_detected : int;
  sw_panicked : int;
  sw_audit_failures : int;
  sw_machine_list : machine_report list;
  sw_hists : (Telemetry.Span.kind * Telemetry.Hist.t) list;
      (* merged in machine-index order; all-empty without telemetry *)
}

(* The same odd multiplier the campaign uses to spread per-index seeds
   across the splitmix64 space. *)
let seed_mix = 0x9e3779b97f4a7c15L

let machine_seed seed index =
  Int64.add seed (Int64.mul seed_mix (Int64.of_int (index + 1)))

(* Boot-once, fork-per-machine: each worker domain boots a single
   system for the sweep's (config, seed), snapshots the post-boot
   state, and serves every machine index by restoring it. Machines then
   differ only in their attack-RNG stream — statistically equivalent to
   booting fresh machines, because a random forgery guess is accepted
   with probability 2^-pac_bits regardless of the key value, so sharing
   one key schedule across machines does not bias acceptance,
   detection or panic counts. Every worker boots the identical state,
   which keeps per-index results worker-count-invariant. *)
type sweep_params = {
  swp_config : C.Config.t;
  swp_seed : int64;
  swp_telemetry : bool;
}

let machine_key : (sweep_params * (K.System.t * K.System.snapshot)) option
                  Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let machine_for p =
  match Domain.DLS.get machine_key with
  | Some (q, m) when q = p -> m
  | _ ->
      let sys =
        K.System.boot ~config:p.swp_config ~seed:p.swp_seed
          ~telemetry:p.swp_telemetry ()
      in
      let m = (sys, K.System.snapshot sys) in
      Domain.DLS.set machine_key (Some (p, m));
      m

let run_machine ~config ~seed ~telemetry ~attempts index =
  let mseed = machine_seed seed index in
  let sys, base =
    machine_for { swp_config = config; swp_seed = seed; swp_telemetry = telemetry }
  in
  K.System.restore sys base;
  let r =
    Attacks.Bruteforce_attack.run sys ~attempts
      ~seed:(Int64.logxor mseed 0x5deece66d1ce4e5bL)
  in
  let hists =
    match K.System.telemetry sys with
    | Some hub when telemetry -> Telemetry.Hub.histograms hub
    | _ -> Telemetry.Span.empty_histograms ()
  in
  ( {
      m_index = index;
      m_attempts = r.Attacks.Bruteforce_attack.attempts;
      m_successes = r.Attacks.Bruteforce_attack.successes;
      m_detected = r.Attacks.Bruteforce_attack.detected;
      m_panicked = r.Attacks.Bruteforce_attack.panicked;
      m_audit_ok = C.Bruteforce.audit (K.System.bruteforce sys);
    },
    hists )

let machines_range = (1, 1_000_000)
let attempts_range = (1, 100_000)
let threshold_range = (1, 1_000_000)

let run ?(config = C.Config.full) ?threshold ?workers ?retries
    ?(telemetry = false) ?progress ?should_stop ~seed ~machines ~attempts () =
  let config =
    match threshold with
    | None -> config
    | Some t -> { config with C.Config.bruteforce_threshold = t }
  in
  let outcome =
    Pool.run ?workers ?retries ?progress ?should_stop ~jobs:machines
      (run_machine ~config ~seed ~telemetry ~attempts)
  in
  if outcome.Pool.stats.Pool.stopped then None
  else
    (* quarantined machines (if any) are simply absent from the list
       and reported out-of-band in the returned failures *)
    let rows = List.filter_map Fun.id (Array.to_list outcome.Pool.results) in
    let list = List.map fst rows in
    let sum f = List.fold_left (fun acc m -> acc + f m) 0 list in
    let count p = List.length (List.filter p list) in
    let hists =
      (* machine-index order (the results array is index-keyed), so
         the merged histograms are worker-count-invariant *)
      List.fold_left
        (fun acc (_, h) -> Telemetry.Span.merge_histograms acc h)
        (Telemetry.Span.empty_histograms ())
        rows
    in
    Some
      ( {
          sw_seed = seed;
          sw_machines = machines;
          sw_attempts = attempts;
          sw_threshold = config.C.Config.bruteforce_threshold;
          sw_config_name = C.Config.name config;
          sw_total_attempts = sum (fun m -> m.m_attempts);
          sw_total_successes = sum (fun m -> m.m_successes);
          sw_total_detected = sum (fun m -> m.m_detected);
          sw_panicked = count (fun m -> m.m_panicked);
          sw_audit_failures = count (fun m -> not m.m_audit_ok);
          sw_machine_list = list;
          sw_hists = hists;
        },
        outcome.Pool.stats,
        outcome.Pool.failures )

let report_to_json r =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\n";
  add "  \"campaign\": \"camouflage-bruteforce-sweep\",\n";
  add "  \"seed\": %Ld,\n" r.sw_seed;
  add "  \"machines\": %d,\n" r.sw_machines;
  add "  \"attempts_per_machine\": %d,\n" r.sw_attempts;
  add "  \"threshold\": %d,\n" r.sw_threshold;
  add "  \"config\": \"%s\",\n" (Camo_util.Json.escape r.sw_config_name);
  add "  \"total_attempts\": %d,\n" r.sw_total_attempts;
  add "  \"total_successes\": %d,\n" r.sw_total_successes;
  add "  \"total_detected\": %d,\n" r.sw_total_detected;
  add "  \"panicked_machines\": %d,\n" r.sw_panicked;
  add "  \"audit_failures\": %d,\n" r.sw_audit_failures;
  (* count from the list, not sw_machines: quarantined machines are
     absent, and the last present row must not grow a comma *)
  let rows = List.length r.sw_machine_list in
  add "  \"machine_list\": [\n";
  List.iteri
    (fun i m ->
      add
        "    {\"index\": %d, \"attempts\": %d, \"successes\": %d, \
         \"detected\": %d, \"panicked\": %b, \"audit_ok\": %b}%s\n"
        m.m_index m.m_attempts m.m_successes m.m_detected m.m_panicked
        m.m_audit_ok
        (if i = rows - 1 then "" else ","))
    r.sw_machine_list;
  add "  ],\n";
  add "  \"span_hists\": %s\n" (Telemetry.Span.histograms_to_json r.sw_hists);
  add "}\n";
  Buffer.contents b

let report_to_string r =
  let b = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add
    "brute-force sweep: seed=%Ld machines=%d attempts=%d/machine threshold=%d \
     config=%s\n"
    r.sw_seed r.sw_machines r.sw_attempts r.sw_threshold r.sw_config_name;
  add "  attempts made    : %d\n" r.sw_total_attempts;
  add "  forgeries accepted: %d\n" r.sw_total_successes;
  add "  failures detected : %d\n" r.sw_total_detected;
  add "  machines panicked : %d/%d\n" r.sw_panicked r.sw_machines;
  add "  accounting audits : %s\n"
    (if r.sw_audit_failures = 0 then "all passed"
     else Printf.sprintf "%d FAILED" r.sw_audit_failures);
  Buffer.contents b
