module C = Camouflage
module L = Snapshot.Log
module Json = Camo_util.Json

let ( let* ) = Result.bind

type log = Campaign.shape L.t

(* The CLI hands reports the display name ([Config.name]); serve hands
   them the request token — a recorded log may carry either, so resolve
   both. *)
let config_of_name name =
  match C.Config.of_name name with
  | Some c -> Some c
  | None ->
      Option.map snd
        (List.find_opt (fun (_, c) -> C.Config.name c = name) C.Config.named)

let entry_of_trial ~fingerprint (t : Campaign.trial) =
  {
    L.e_index = t.Campaign.index;
    e_spec = t.Campaign.spec_desc;
    e_fired = t.Campaign.fired;
    e_outcome = Campaign.outcome_name t.Campaign.outcome;
    e_detail = t.Campaign.detail;
    e_makespan = t.Campaign.makespan;
    e_offlined = t.Campaign.offlined;
    e_fingerprint = fingerprint;
  }

(* The header carries the shape's members between config and
   golden_makespan, in the order of the report's. *)
let codec =
  {
    L.shape_to_json =
      (fun (s : Campaign.shape) ->
        Printf.sprintf
          "\"cpus\": %d, \"tasks\": %d, \"rounds\": %d, \"quantum\": %d, \
           \"quarantine_after\": %s"
          s.cpus s.tasks s.rounds s.quantum
          (match s.quarantine_after with None -> "null" | Some n -> string_of_int n));
    shape_of_json =
      (fun json ->
        let* cpus = L.field "cpus" Json.to_int json in
        let* tasks = L.field "tasks" Json.to_int json in
        let* rounds = L.field "rounds" Json.to_int json in
        let* quantum = L.field "quantum" Json.to_int json in
        let* quarantine_after =
          match Json.member "quarantine_after" json with
          | Some Json.Null -> Ok None
          | Some v -> (
              match Json.to_int v with
              | Some n -> Ok (Some n)
              | None -> Error "ill-typed field \"quarantine_after\"")
          | None -> Error "missing field \"quarantine_after\""
        in
        Ok { Campaign.cpus; tasks; rounds; quantum; quarantine_after });
  }

let read ~path = L.read codec ~path
let write ~path log = L.write codec ~path log

let record ~path ~trials ses (report : Campaign.report) results =
  let header =
    {
      L.h_kind = "faults";
      h_seed = report.seed;
      h_trials = trials;
      h_config = report.config_name;
      h_shape = report.shape;
      h_golden_makespan = report.golden_makespan;
      h_golden_fingerprint = Campaign.session_golden_fingerprint ses;
    }
  in
  let entry (tr : Campaign.trial_result) =
    entry_of_trial ~fingerprint:(Option.get tr.tr_fingerprint) tr.tr_trial
  in
  write ~path { L.header; entries = List.map entry results }

(* Everything a header must satisfy before anything boots: a known
   kind and config, and a shape within the ranges the CLI and serve
   accept. *)
let check_header (h : Campaign.shape L.header) =
  if h.L.h_kind <> "faults" then
    Error (Printf.sprintf "cannot replay %S logs (only \"faults\")" h.L.h_kind)
  else
    match config_of_name h.L.h_config with
    | None -> Error (Printf.sprintf "unknown config %S in log header" h.L.h_config)
    | Some config -> (
        match Campaign.check ~trials:h.L.h_trials h.L.h_shape with
        | Ok () -> Ok config
        | Error m -> Error ("log header: " ^ m))

(* Entry indices name distinct trials of the recorded campaign. Fewer
   entries than trials is legal: quarantined trials are absent. *)
let check_entries (log : log) =
  let trials = log.L.header.L.h_trials in
  let seen = Hashtbl.create 64 in
  let bad (e : L.entry) =
    let i = e.L.e_index in
    if i < 0 || i >= trials then
      Some (Printf.sprintf "log entry index %d outside [0, %d)" i trials)
    else if Hashtbl.mem seen i then
      Some (Printf.sprintf "log entry index %d repeats" i)
    else (
      Hashtbl.add seen i ();
      None)
  in
  match List.find_map bad log.L.entries with
  | Some m -> Error m
  | None -> Ok ()

let boot_session ?tier config (h : Campaign.shape L.header) =
  (* Telemetry is pure observation and the fingerprint excludes it, so
     replay always runs telemetry-off. *)
  let ses =
    Campaign.create_session ~config ~shape:h.L.h_shape ?tier ~seed:h.L.h_seed ()
  in
  let golden = Campaign.session_golden ses in
  if golden.Campaign.g_makespan <> h.L.h_golden_makespan then
    Error
      (Printf.sprintf "golden makespan diverges: recorded %Ld, replayed %Ld"
         h.L.h_golden_makespan golden.Campaign.g_makespan)
  else if Campaign.session_golden_fingerprint ses <> h.L.h_golden_fingerprint
  then
    Error
      (Printf.sprintf
         "golden state fingerprint diverges: recorded %s, replayed %s"
         h.L.h_golden_fingerprint
         (Campaign.session_golden_fingerprint ses))
  else Ok ses

type verdict = {
  v_index : int;
  v_spec_ok : bool;
  v_fingerprint_ok : bool;
  v_bytes_ok : bool;
  v_recorded : L.entry;
  v_replayed : L.entry;
}

let verdict_ok v = v.v_spec_ok && v.v_fingerprint_ok && v.v_bytes_ok

let replay_entry ses (recorded : L.entry) =
  let tr =
    Campaign.run_random_trial_in ses ~fingerprint:true ~index:recorded.L.e_index ()
  in
  let replayed =
    entry_of_trial
      ~fingerprint:(Option.get tr.Campaign.tr_fingerprint)
      tr.Campaign.tr_trial
  in
  {
    v_index = recorded.L.e_index;
    v_spec_ok = replayed.L.e_spec = recorded.L.e_spec;
    v_fingerprint_ok = replayed.L.e_fingerprint = recorded.L.e_fingerprint;
    v_bytes_ok = L.entry_to_json replayed = L.entry_to_json recorded;
    v_recorded = recorded;
    v_replayed = replayed;
  }

let replay ?index ?tier (log : log) =
  let* config = check_header log.L.header in
  let* () = check_entries log in
  let* entries =
    match index with
    | None -> Ok log.L.entries
    | Some i -> (
        match L.find_entry log i with
        | Some e -> Ok [ e ]
        | None -> Error (Printf.sprintf "log has no entry for trial %d" i))
  in
  let* ses = boot_session ?tier config log.L.header in
  Ok (List.map (replay_entry ses) entries)

let verdict_to_string v =
  if verdict_ok v then
    Printf.sprintf "trial %d: MATCH %s fingerprint %s" v.v_index
      v.v_recorded.L.e_spec v.v_recorded.L.e_fingerprint
  else
    Printf.sprintf
      "trial %d: DIVERGED\n  recorded: %s\n  replayed: %s" v.v_index
      (L.entry_to_json v.v_recorded)
      (L.entry_to_json v.v_replayed)
