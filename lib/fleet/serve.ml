module C = Camouflage
module Json = Camo_util.Json

type job_state =
  | Running
  | Done of string  (* single-line report JSON *)
  | Cancelled
  | Failed of string

(* The mutable cells one campaign domain reports through, sampled by
   the server loop without touching the workers. *)
type cells = {
  c_completed : int Atomic.t;
  c_stop : bool Atomic.t;
  c_state : job_state Atomic.t;
  c_failures : string Atomic.t;  (* rendered JSON array of quarantined jobs *)
  c_finished : float Atomic.t;  (* 0.0 while running *)
  c_retries : int Atomic.t;  (* attempts burned by quarantined jobs *)
  c_quarantined : int Atomic.t;
  c_hists : (Telemetry.Span.kind * Telemetry.Hist.t) list Atomic.t;
}

type entry = {
  e_id : int;
  e_kind : string;
  e_total : int;
  e_cells : cells;
  e_started : float;
  e_domain : unit Domain.t;
  mutable e_joined : bool;
}

type t = {
  mutable next_id : int;
  entries : (int, entry) Hashtbl.t;
  created : float;
}

let create () =
  { next_id = 1; entries = Hashtbl.create 16; created = Unix.gettimeofday () }

(* --- response rendering: tiny, single-line, deterministic field order *)

let error fmt =
  Printf.ksprintf
    (fun m -> Printf.sprintf "{\"ok\": false, \"error\": \"%s\"}" (Json.escape m))
    fmt

(* The report serializers are multi-line for humans; the protocol is
   line-oriented, so fold the newlines away — everything inside strings
   is already escaped, making this a pure formatting change. *)
let single_line s = String.concat "" (String.split_on_char '\n' s)

let state_name = function
  | Running -> "running"
  | Done _ -> "done"
  | Cancelled -> "cancelled"
  | Failed _ -> "failed"

(* --- request field helpers *)

let str_field obj name = Option.bind (Json.member name obj) Json.to_string
let int_field obj name = Option.bind (Json.member name obj) Json.to_int
let int64_field obj name = Option.bind (Json.member name obj) Json.to_int64
let dflt d = Option.value ~default:d

let failures_json fs =
  "["
  ^ String.concat ", "
      (List.map
         (fun f ->
           Printf.sprintf "{\"job\": %d, \"attempts\": %d, \"error\": \"%s\"}"
             f.Pool.job f.Pool.attempts (Json.escape f.Pool.error))
         fs)
  ^ "]"

exception Bad_request of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad_request m)) fmt

let in_range name (lo, hi) v =
  if v < lo || v > hi then bad "%s %d out of range (%d-%d)" name v lo hi;
  v

(* The pool fields both job kinds take. *)
let workers_field obj =
  in_range "workers" Pool.workers_range
    (dflt (Pool.default_workers ()) (int_field obj "workers"))

let retries_field obj = Option.map (in_range "retries" (0, 100)) (int_field obj "retries")

let timeout_ms_field obj =
  Option.map (in_range "timeout_ms" (1, 86_400_000)) (int_field obj "timeout_ms")

(* Both job kinds boot the kernel, so a configuration it cannot boot is
   refused here rather than failing every trial. *)
let parse_config obj =
  match str_field obj "config" with
  | None -> (C.Config.full, "full")
  | Some name -> (
      match C.Config.of_name name with
      | None -> bad "unknown config %S" name
      | Some c -> (
          match Kernel.System.check_config c with
          | Ok () -> (c, name)
          | Error m -> bad "config %S: %s" name m))

(* --- job bookkeeping *)

(* Campaign epilogue shared by both kinds: failure bookkeeping,
   retry/quarantine counts and the finish timestamp. *)
let finish_job cells fs =
  Atomic.set cells.c_failures (failures_json fs);
  Atomic.set cells.c_quarantined (List.length fs);
  Atomic.set cells.c_retries
    (List.fold_left (fun acc f -> acc + max 0 (f.Pool.attempts - 1)) 0 fs);
  Atomic.set cells.c_finished (Unix.gettimeofday ())

let register t ~kind ~total spawn =
  let id = t.next_id in
  t.next_id <- id + 1;
  let cells =
    {
      c_completed = Atomic.make 0;
      c_stop = Atomic.make false;
      c_state = Atomic.make Running;
      c_failures = Atomic.make "[]";
      c_finished = Atomic.make 0.0;
      c_retries = Atomic.make 0;
      c_quarantined = Atomic.make 0;
      c_hists = Atomic.make (Telemetry.Span.empty_histograms ());
    }
  in
  let domain = spawn cells in
  Hashtbl.replace t.entries id
    {
      e_id = id;
      e_kind = kind;
      e_total = total;
      e_cells = cells;
      e_started = Unix.gettimeofday ();
      e_domain = domain;
      e_joined = false;
    };
  Printf.sprintf "{\"ok\": true, \"id\": %d, \"kind\": \"%s\", \"total\": %d}" id
    kind total

(* A submit-time deadline folds into the campaign's stop predicate:
   once it passes, no further trial starts and the job lands in Failed
   (a timed-out campaign is an error, not a user cancellation). *)
let deadline_stop ~stop timeout_ms =
  let timed_out = Atomic.make false in
  let deadline =
    Option.map
      (fun ms -> Unix.gettimeofday () +. (float_of_int ms /. 1000.0))
      timeout_ms
  in
  let should_stop () =
    Atomic.get stop
    ||
    match deadline with
    | Some d when Unix.gettimeofday () > d ->
        Atomic.set timed_out true;
        true
    | _ -> false
  in
  (should_stop, timed_out)

let cancelled_state ~timed_out timeout_ms =
  if Atomic.get timed_out then
    Failed
      (Printf.sprintf "timeout after %d ms: campaign cancelled"
         (Option.value ~default:0 timeout_ms))
  else Cancelled

let submit_faults t obj =
  let config, config_name = parse_config obj in
  let seed = dflt 42L (int64_field obj "seed") in
  let trials = dflt 16 (int_field obj "trials") in
  let workers = workers_field obj in
  (* absent shape fields stay omitted: the campaign session's defaults *)
  let cpus = int_field obj "cpus" in
  let tasks = int_field obj "tasks" in
  let rounds = int_field obj "rounds" in
  let quantum = int_field obj "quantum" in
  let quarantine_after = int_field obj "quarantine" in
  (match
     Faultinj.Campaign.check_params ?cpus ?tasks ?rounds ?quantum
       ?quarantine_after ~trials ()
   with
  | Ok () -> ()
  | Error m -> bad "%s" m);
  let retries = retries_field obj in
  let tier =
    match str_field obj "tier" with
    | None -> None
    | Some name -> (
        match Aarch64.Cpu.tier_of_string name with
        | Some _ as t -> t
        | None -> bad "unknown tier %S (interp|icache|traces)" name)
  in
  let timeout_ms = timeout_ms_field obj in
  register t ~kind:"faults" ~total:trials (fun cells ->
      Domain.spawn (fun () ->
          let should_stop, timed_out =
            deadline_stop ~stop:cells.c_stop timeout_ms
          in
          match
            Campaign.run ~config ~config_name ?cpus ?tasks ?rounds ?quantum
              ?quarantine_after ~workers ?retries ~telemetry:true ?tier
              ~progress:(fun () -> Atomic.incr cells.c_completed)
              ~should_stop ~seed ~trials ()
          with
          | Some result ->
              finish_job cells result.Campaign.failures;
              (match result.Campaign.telemetry with
              | Some ts -> Atomic.set cells.c_hists ts.Campaign.hists
              | None -> ());
              Atomic.set cells.c_state
                (Done
                   (single_line
                      (Faultinj.Campaign.report_to_json
                         result.Campaign.report)))
          | None ->
              Atomic.set cells.c_state (cancelled_state ~timed_out timeout_ms)
          | exception e ->
              Atomic.set cells.c_state (Failed (Printexc.to_string e))))

let submit_bruteforce t obj =
  let config, _ = parse_config obj in
  let seed = dflt 42L (int64_field obj "seed") in
  let machines =
    in_range "machines" Sweep.machines_range (dflt 8 (int_field obj "machines"))
  in
  let attempts =
    in_range "attempts" Sweep.attempts_range (dflt 8 (int_field obj "attempts"))
  in
  let workers = workers_field obj in
  let threshold =
    Option.map (in_range "threshold" Sweep.threshold_range) (int_field obj "threshold")
  in
  let retries = retries_field obj in
  let timeout_ms = timeout_ms_field obj in
  register t ~kind:"bruteforce" ~total:machines (fun cells ->
      Domain.spawn (fun () ->
          let should_stop, timed_out =
            deadline_stop ~stop:cells.c_stop timeout_ms
          in
          match
            Sweep.run ~config ?threshold ~workers ?retries ~telemetry:true
              ~progress:(fun () -> Atomic.incr cells.c_completed)
              ~should_stop ~seed ~machines ~attempts ()
          with
          | Some (report, _, fs) ->
              finish_job cells fs;
              Atomic.set cells.c_hists report.Sweep.sw_hists;
              Atomic.set cells.c_state
                (Done (single_line (Sweep.report_to_json report)))
          | None ->
              Atomic.set cells.c_state (cancelled_state ~timed_out timeout_ms)
          | exception e ->
              Atomic.set cells.c_state (Failed (Printexc.to_string e))))

let find t obj =
  match int_field obj "id" with
  | None -> bad "request needs an integer \"id\""
  | Some id -> (
      match Hashtbl.find_opt t.entries id with
      | Some e -> e
      | None -> bad "unknown id %d" id)

let status_response e =
  let state = Atomic.get e.e_cells.c_state in
  let extra =
    match state with
    | Failed m -> Printf.sprintf ", \"error\": \"%s\"" (Json.escape m)
    | _ -> ""
  in
  Printf.sprintf
    "{\"ok\": true, \"id\": %d, \"kind\": \"%s\", \"state\": \"%s\", \
     \"completed\": %d, \"total\": %d, \"failures\": %s%s}"
    e.e_id e.e_kind (state_name state)
    (min (Atomic.get e.e_cells.c_completed) e.e_total)
    e.e_total (Atomic.get e.e_cells.c_failures) extra

let report_response e =
  match Atomic.get e.e_cells.c_state with
  | Done report ->
      Printf.sprintf
        "{\"ok\": true, \"id\": %d, \"kind\": \"%s\", \"state\": \"done\", \
         \"report\": %s}"
        e.e_id e.e_kind report
  | state ->
      error "job %d is %s, no report available" e.e_id (state_name state)

(* Live metrics, sampled purely from atomics: the campaign domains and
   their worker pools are never interrupted or locked. Entries are
   aggregated in id order so the response layout is stable. *)
let metrics_response t =
  let now = Unix.gettimeofday () in
  let entries =
    Hashtbl.fold (fun _ e acc -> e :: acc) t.entries []
    |> List.sort (fun a b -> compare a.e_id b.e_id)
  in
  let state_count want =
    List.length
      (List.filter
         (fun e ->
           match (Atomic.get e.e_cells.c_state, want) with
           | Running, `Running | Done _, `Done | Cancelled, `Cancelled
           | Failed _, `Failed ->
               true
           | _ -> false)
         entries)
  in
  let sum f = List.fold_left (fun acc e -> acc + f e) 0 entries in
  let completed = sum (fun e -> min (Atomic.get e.e_cells.c_completed) e.e_total) in
  let total = sum (fun e -> e.e_total) in
  (* job runtimes, not wall uptime: jobs overlap, so this is aggregate
     throughput over busy time *)
  let busy =
    List.fold_left
      (fun acc e ->
        let fin = Atomic.get e.e_cells.c_finished in
        acc +. ((if fin > 0.0 then fin else now) -. e.e_started))
      0.0 entries
  in
  let per_sec = if busy > 0.0 then float_of_int completed /. busy else 0.0 in
  let hists =
    List.fold_left
      (fun acc e -> Telemetry.Span.merge_histograms acc (Atomic.get e.e_cells.c_hists))
      (Telemetry.Span.empty_histograms ())
      entries
  in
  Printf.sprintf
    "{\"ok\": true, \"reply\": \"metrics\", \"uptime_ms\": %d, \
     \"jobs\": {\"submitted\": %d, \"running\": %d, \"done\": %d, \
     \"cancelled\": %d, \"failed\": %d}, \
     \"trials\": {\"completed\": %d, \"total\": %d, \"per_sec\": %.1f}, \
     \"retries\": %d, \"quarantined\": %d, \"span_hists\": %s}"
    (int_of_float ((now -. t.created) *. 1000.0))
    (List.length entries)
    (state_count `Running) (state_count `Done) (state_count `Cancelled)
    (state_count `Failed) completed total per_sec
    (sum (fun e -> Atomic.get e.e_cells.c_retries))
    (sum (fun e -> Atomic.get e.e_cells.c_quarantined))
    (Telemetry.Span.histograms_to_json hists)

let cancel_response e =
  Atomic.set e.e_cells.c_stop true;
  Printf.sprintf "{\"ok\": true, \"id\": %d, \"state\": \"%s\"}" e.e_id
    (match Atomic.get e.e_cells.c_state with
    | Running -> "cancelling"
    | s -> state_name s)

let drain t =
  Hashtbl.iter
    (fun _ e ->
      if not e.e_joined then begin
        e.e_joined <- true;
        Domain.join e.e_domain
      end)
    t.entries

(* Cancel everything still running, then join: shutdown must not block
   behind a campaign that would otherwise run for minutes. In-flight
   trials finish (workers poll the stop flag between jobs); queued work
   is shed. *)
let shutdown t =
  Hashtbl.iter (fun _ e -> Atomic.set e.e_cells.c_stop true) t.entries;
  drain t

let handle t line =
  let continue = ref true in
  let response =
    match Json.parse line with
    | Result.Error msg -> error "parse error: %s" msg
    | Result.Ok obj -> (
        try
          match str_field obj "req" with
          | None -> error "request needs a \"req\" field"
          | Some "ping" -> "{\"ok\": true, \"reply\": \"pong\"}"
          | Some "submit" -> (
              match str_field obj "kind" with
              | Some "faults" -> submit_faults t obj
              | Some "bruteforce" -> submit_bruteforce t obj
              | Some other -> error "unknown kind %S (try: faults, bruteforce)" other
              | None -> error "submit needs a \"kind\" field")
          | Some "metrics" -> metrics_response t
          | Some "status" -> status_response (find t obj)
          | Some "report" -> report_response (find t obj)
          | Some "cancel" -> cancel_response (find t obj)
          | Some "shutdown" ->
              continue := false;
              "{\"ok\": true, \"reply\": \"bye\"}"
          | Some other -> error "unknown req %S" other
        with Bad_request m -> error "%s" m)
  in
  (response, !continue)

let loop t =
  let rec go () =
    (* EOF lets running jobs finish; an explicit shutdown cancels them
       first so the exit cannot block behind a long campaign *)
    match input_line stdin with
    | exception End_of_file -> drain t
    | line when String.trim line = "" -> go ()
    | line ->
        let response, continue = handle t line in
        print_string response;
        print_char '\n';
        flush stdout;
        if continue then go () else shutdown t
  in
  go ()
