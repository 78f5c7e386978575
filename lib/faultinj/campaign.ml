open Aarch64
module C = Camouflage
module K = Kernel
module Rng = Camo_util.Rng
module Json = Camo_util.Json

type outcome =
  | Detected_by_pac
  | Detected_by_mmu
  | Panicked
  | Task_killed
  | Silent_corruption
  | Benign

let outcome_name = function
  | Detected_by_pac -> "detected-by-pac"
  | Detected_by_mmu -> "detected-by-mmu"
  | Panicked -> "panicked"
  | Task_killed -> "task-killed"
  | Silent_corruption -> "silent-corruption"
  | Benign -> "benign"

type trial = {
  index : int;
  spec : Injector.spec;
  spec_desc : string;
  fired : bool;
  outcome : outcome;
  detail : string;
  makespan : int64;
  offlined : int list;
}

type shape = {
  cpus : int;
  tasks : int;
  rounds : int;
  quantum : int;
  quarantine_after : int option;
}

let default_shape =
  { cpus = 2; tasks = 4; rounds = 8; quantum = 400; quarantine_after = None }

type report = {
  seed : int64;
  trials : int;
  config_name : string;
  shape : shape;
  golden_makespan : int64;
  fired_count : int;
  n_detected_by_pac : int;
  n_detected_by_mmu : int;
  n_panicked : int;
  n_task_killed : int;
  n_silent : int;
  n_benign : int;
  detection_rate : float;
  mean_makespan : float;
  trial_list : trial list;
}

(* The per-task workload: [rounds] times { write(1, "xx", 2); getpid },
   exit with the completed round count. Both the console stream and the
   exit codes are predictable, so any undetected deviation from the
   golden run is visible as silent corruption. *)
let workload_program ~rounds =
  let data_lo = Int64.to_int (Int64.logand K.Layout.user_data_base 0xffffL) in
  let data_hi = Int64.to_int (Int64.shift_right_logical K.Layout.user_data_base 16) in
  let prog = Asm.create () in
  Asm.add_function prog ~name:"main"
    [
      Asm.ins (Insn.Movz (Insn.R 21, 0, 0));
      Asm.ins (Insn.Movz (Insn.R 20, rounds land 0xffff, 0));
      (* place "xx" in the user data page *)
      Asm.ins (Insn.Movz (Insn.R 9, 0x7878, 0));
      Asm.ins (Insn.Movz (Insn.R 1, data_lo, 0));
      Asm.ins (Insn.Movk (Insn.R 1, data_hi land 0xffff, 16));
      Asm.ins (Insn.Str (Insn.R 9, Insn.Off (Insn.R 1, 0)));
      Asm.label "round";
      Asm.ins (Insn.Movz (Insn.R 0, 1, 0));
      Asm.ins (Insn.Movz (Insn.R 1, data_lo, 0));
      Asm.ins (Insn.Movk (Insn.R 1, data_hi land 0xffff, 16));
      Asm.ins (Insn.Movz (Insn.R 2, 2, 0));
      Asm.ins (Insn.Svc K.Kbuild.sys_write);
      Asm.ins (Insn.Svc K.Kbuild.sys_getpid);
      Asm.ins (Insn.Add_imm (Insn.R 21, Insn.R 21, 1));
      Asm.ins (Insn.Sub_imm (Insn.R 20, Insn.R 20, 1));
      Asm.cbnz_to (Insn.R 20) "round";
      Asm.ins (Insn.Mov (Insn.R 0, Insn.R 21));
      Asm.ins (Insn.Svc K.Kbuild.sys_exit);
    ];
  prog

let setup ?(telemetry = false) ?tier ~config ~seed shape =
  let sys = K.System.boot ~config ~seed ~cpus:shape.cpus ~telemetry ?tier () in
  let layout = K.System.map_user_program sys (workload_program ~rounds:shape.rounds) in
  let entry = Asm.symbol layout "main" in
  let spawned = List.init shape.tasks (fun _ -> K.System.spawn_user_task sys ~entry) in
  (sys, layout, spawned)

(* One run of the workload under [shape]. A fault that turns a task
   into an endless loop must not hang the trial, so the slice count is
   capped well above what the golden run needs. *)
let run_workload shape sys spawned =
  K.System.run_smp ~quantum:shape.quantum ~max_slices:(64 * (shape.tasks + 1))
    ?quarantine_after:shape.quarantine_after sys ~tasks:spawned

(* No quarantine is in range: only a set threshold is checked. *)
let check ~trials shape =
  let out_of_range (_, v, lo, hi) =
    match v with Some v -> v < lo || v > hi | None -> false
  in
  match
    List.find_opt out_of_range
      [
        ("trials", Some trials, 1, 1_000_000);
        ("cpus", Some shape.cpus, 1, 16);
        ("tasks", Some shape.tasks, 1, 64);
        ("rounds", Some shape.rounds, 1, 10_000);
        ("quantum", Some shape.quantum, 50, 100_000);
        ("quarantine", shape.quarantine_after, 1, 1_000_000);
      ]
  with
  | Some (name, Some v, lo, hi) ->
      Error (Printf.sprintf "%s %d out of range (%d-%d)" name v lo hi)
  | _ -> Ok ()

type golden = {
  g_exits : (int * K.System.user_exit) list;  (** sorted by pid *)
  g_console : string;
  g_makespan : int64;
}

let sorted_exits (stats : K.System.smp_stats) =
  List.sort compare (List.map (fun (_c, pid, e) -> (pid, e)) stats.K.System.smp_exits)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* Classify one trial against the golden run. Order matters: a panic
   trumps everything; among per-task kills the PAC path is the
   headline signal; only a run that is indistinguishable from golden is
   benign. *)
let classify ~golden sys result =
  match result with
  | Result.Error m -> (Panicked, "host abort: " ^ m)
  | Result.Ok stats ->
      if K.System.panicked sys then
        let why =
          match
            List.find_opt
              (fun (_, _, e) ->
                match e with K.System.User_panicked _ -> true | _ -> false)
              stats.K.System.smp_exits
          with
          | Some (_, _, K.System.User_panicked m) -> m
          | _ -> "panic"
        in
        (Panicked, why)
      else
        let exits = List.map (fun (_c, pid, e) -> (pid, e)) stats.K.System.smp_exits in
        let find p = List.find_opt (fun (_, e) -> p e) exits in
        let killed_with sub e =
          match e with K.System.User_killed m -> contains ~sub m | _ -> false
        in
        let as_detail = function
          | Some (pid, e) -> Printf.sprintf "pid %d: %s" pid (K.System.user_exit_to_string e)
          | None -> ""
        in
        match find (killed_with "PAC") with
        | Some _ as hit -> (Detected_by_pac, as_detail hit)
        | None -> (
            match
              find (fun e -> killed_with "SIGSEGV" e || killed_with "oops" e)
            with
            | Some _ as hit -> (Detected_by_mmu, as_detail hit)
            | None -> (
                match
                  find (function
                    | K.System.User_killed _ | K.System.Watchdog_expired _ -> true
                    | _ -> false)
                with
                | Some _ as hit -> (Task_killed, as_detail hit)
                | None ->
                    let sorted = List.sort compare exits in
                    if
                      sorted = golden.g_exits
                      && K.System.console_output sys = golden.g_console
                    then (Benign, "")
                    else if List.length sorted < List.length golden.g_exits then
                      (Silent_corruption, "lost work: not every task completed")
                    else (Silent_corruption, "exit codes or console diverge from golden")))

let trial_of ~golden ~index (sys, inj, spec, result) =
  let outcome, detail = classify ~golden sys result in
  {
    index;
    spec;
    spec_desc = Injector.spec_to_string spec;
    fired = Injector.fired inj;
    outcome;
    detail;
    makespan =
      (match result with
      | Result.Ok s -> s.K.System.makespan
      | Result.Error _ -> 0L);
    offlined =
      (match result with Result.Ok s -> s.K.System.smp_offlined | Result.Error _ -> []);
  }

(* Draw one fault spec for trial [i]. The target population mixes the
   kernel's signed-pointer sites, saved task contexts, the user text,
   the key registers and plain registers — roughly the cross-section a
   beam test would hit. *)
let golden_mix = 0x9e3779b97f4a7c15L

let random_spec rng ~golden_makespan sys (layout : Asm.layout)
    (spawned : K.System.task list) =
  let span = Int64.to_int (Int64.logand golden_makespan 0x3fffffffL) in
  let window () =
    let lo = Int64.of_int (Rng.next_in rng (max 1 span)) in
    Injector.At_cycle_window { lo; hi = Int64.add lo golden_makespan }
  in
  let pick lst = List.nth lst (Rng.next_in rng (List.length lst)) in
  let task_word () =
    let task = pick spawned in
    let off =
      match Rng.next_in rng 3 with
      | 0 -> K.Kobject.Task.off_saved_pc
      | 1 -> K.Kobject.Task.off_saved_sp
      | _ -> K.Kobject.Task.off_gprs + (8 * Rng.next_in rng 31)
    in
    Int64.add task.K.System.va (Int64.of_int off)
  in
  let text_word () =
    let addr, _ = layout.Asm.code.(Rng.next_in rng (Array.length layout.Asm.code)) in
    addr
  in
  let sites = Attacks.Primitives.signed_pointer_sites sys in
  let bits () =
    if Rng.next_in rng 4 = 0 then [ Rng.next_in rng 64; Rng.next_in rng 64 ]
    else [ Rng.next_in rng 64 ]
  in
  let d = Rng.next_in rng 100 in
  if d < 25 then
    let _, va = pick sites in
    {
      Injector.trigger = window ();
      model = Injector.Pac_field_flip { va; rank = Rng.next_in rng 64 };
      persistence = Injector.Transient;
    }
  else if d < 45 then
    let va =
      match Rng.next_in rng 3 with
      | 0 -> task_word ()
      | 1 -> text_word ()
      | _ -> snd (pick sites)
    in
    {
      Injector.trigger = window ();
      model = Injector.Mem_flip { va; bits = bits () };
      persistence = Injector.Transient;
    }
  else if d < 60 then
    {
      Injector.trigger = window ();
      model = Injector.Gpr_flip { reg = Rng.next_in rng 29; bits = bits () };
      persistence = Injector.Transient;
    }
  else if d < 72 then
    let key = pick [ Sysreg.IA; Sysreg.IB; Sysreg.DA; Sysreg.DB; Sysreg.GA ] in
    {
      (* transient key flips self-heal at the next XOM key install, so
         model the interesting case: a stuck-at defect *)
      Injector.trigger = window ();
      model =
        Injector.Key_flip
          { key; high_half = Rng.next_in rng 2 = 1; bit = Rng.next_in rng 64 };
      persistence = Injector.Stuck;
    }
  else if d < 86 then
    let pc = text_word () in
    {
      Injector.trigger = Injector.In_pc_range { lo = pc; hi = pc };
      model = Injector.Skip_insn;
      persistence =
        (if Rng.next_in rng 2 = 0 then Injector.Transient else Injector.Stuck);
    }
  else
    (* a flip landing in unused user data: the benign end of the space *)
    {
      Injector.trigger = window ();
      model =
        Injector.Mem_flip
          {
            va = Int64.add K.Layout.user_data_base 0x800L;
            bits = bits ();
          };
      persistence = Injector.Transient;
    }

(* Per-job telemetry harvest: the merged counter file, a summary of the
   machine's event rings, and the per-kind span latency histograms, so
   a fleet of trials can fold thousands of runs into one machine view
   with Telemetry.Counters.merge / Telemetry.Span.merge_histograms.
   [keep_events] additionally copies the raw event stream out of the
   rings — only the handful of trials a caller renders as Chrome trace
   lanes should pay for that. *)
type job_telemetry = {
  jt_counters : Telemetry.Counters.snapshot;
  jt_events : int;
  jt_dropped : int;
  jt_hists : (Telemetry.Span.kind * Telemetry.Hist.t) list;
  jt_ring : Telemetry.Event.t list;  (* empty unless keep_events *)
}

let harvest_telemetry ?(keep_events = false) sys =
  match K.System.telemetry sys with
  | None -> None
  | Some hub ->
      let events = Telemetry.Hub.events hub in
      Some
        {
          jt_counters = Telemetry.Hub.counters hub;
          jt_events = List.length events;
          jt_dropped = Telemetry.Hub.dropped hub;
          jt_hists = Telemetry.Span.histograms events;
          jt_ring = (if keep_events then events else []);
        }

(* --- snapshot-forked sessions ------------------------------------
   Every trial runs in a session. Booting and mapping the workload
   dominates a trial's cost, yet every trial starts from the identical
   post-setup state. A session does the setup once, snapshots it, runs
   the golden workload in place, and then serves each trial by
   restoring the snapshot instead of re-booting. [System.restore]
   returns the machine to the exact captured state and clears
   trial-armed step hooks with it, so no trial sees what the session
   ran before it — the property the snapshot tests pin down. *)

type session = {
  ses_sys : K.System.t;
  ses_layout : Asm.layout;
  ses_spawned : K.System.task list;
  ses_base : K.System.snapshot;
  ses_golden : golden;
  ses_golden_fingerprint : string;
  ses_seed : int64;
  ses_shape : shape;
}

let session_golden s = s.ses_golden
let session_golden_fingerprint s = s.ses_golden_fingerprint
let session_system s = s.ses_sys

let create_session ?(config = C.Config.full) ?(shape = default_shape)
    ?(telemetry = false) ?tier ~seed () =
  let sys, layout, spawned = setup ~telemetry ?tier ~config ~seed shape in
  let base = K.System.snapshot sys in
  (* the golden run is uninjected: no core to quarantine *)
  let stats = run_workload { shape with quarantine_after = None } sys spawned in
  let golden =
    {
      g_exits = sorted_exits stats;
      g_console = K.System.console_output sys;
      g_makespan = stats.K.System.makespan;
    }
  in
  let fp = Snapshot.Fingerprint.of_system sys in
  K.System.restore sys base;
  {
    ses_sys = sys;
    ses_layout = layout;
    ses_spawned = spawned;
    ses_base = base;
    ses_golden = golden;
    ses_golden_fingerprint = fp;
    ses_seed = seed;
    ses_shape = shape;
  }

type trial_result = {
  tr_trial : trial;
  tr_telemetry : job_telemetry option;
  tr_fingerprint : string option;
}

(* The one trial body: restore the base snapshot, arm the fault
   [spec_fn] draws, run under the session's quarantine, and hand back
   what [trial_of] classifies. *)
let run_one_in ses spec_fn =
  let sys = ses.ses_sys in
  K.System.restore sys ses.ses_base;
  let spec = spec_fn sys ses.ses_layout ses.ses_spawned in
  let inj = Injector.create spec in
  Injector.arm_all inj (K.System.machine sys);
  let result =
    try Result.Ok (run_workload ses.ses_shape sys ses.ses_spawned)
    with Failure m -> Result.Error m
  in
  (sys, inj, spec, result)

(* Trial [index] of the campaign keyed by the session's seed. The RNG
   stream depends only on (seed, index), so any partition of the index
   space over any number of workers draws the same faults. *)
let run_random_trial_in ses ?keep_events ?(fingerprint = false) ~index () =
  let rng =
    Rng.create
      (Int64.add ses.ses_seed (Int64.mul golden_mix (Int64.of_int (index + 1))))
  in
  let ((sys, _, _, _) as outcome) =
    run_one_in ses (random_spec rng ~golden_makespan:ses.ses_golden.g_makespan)
  in
  {
    tr_trial = trial_of ~golden:ses.ses_golden ~index outcome;
    tr_telemetry = harvest_telemetry ?keep_events sys;
    tr_fingerprint =
      (if fingerprint then Some (Snapshot.Fingerprint.of_system sys) else None);
  }

let run_trial_in ses ~spec () =
  trial_of ~golden:ses.ses_golden ~index:0 (run_one_in ses spec)

let report_of_trials ses ~config_name trial_list =
  let trials = List.length trial_list in
  let count o = List.length (List.filter (fun t -> t.outcome = o) trial_list) in
  let n_detected_by_pac = count Detected_by_pac in
  let n_detected_by_mmu = count Detected_by_mmu in
  let n_panicked = count Panicked in
  let n_task_killed = count Task_killed in
  let n_silent = count Silent_corruption in
  let n_benign = count Benign in
  let detected = n_detected_by_pac + n_detected_by_mmu + n_panicked + n_task_killed in
  let detection_rate =
    if detected + n_silent = 0 then 1.0
    else float_of_int detected /. float_of_int (detected + n_silent)
  in
  let mean_makespan =
    if trials = 0 then 0.0
    else
      List.fold_left (fun acc t -> acc +. Int64.to_float t.makespan) 0.0 trial_list
      /. float_of_int trials
  in
  {
    seed = ses.ses_seed;
    trials;
    config_name;
    shape = ses.ses_shape;
    golden_makespan = ses.ses_golden.g_makespan;
    fired_count = List.length (List.filter (fun t -> t.fired) trial_list);
    n_detected_by_pac;
    n_detected_by_mmu;
    n_panicked;
    n_task_killed;
    n_silent;
    n_benign;
    detection_rate;
    mean_makespan;
    trial_list;
  }

(* JSON rendering: fixed field order, %.6f floats, shared escaping —
   the same report must always serialize to the same bytes. *)
let report_to_json r =
  let b = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\n";
  add "  \"campaign\": \"camouflage-faultinj\",\n";
  add "  \"seed\": %Ld,\n" r.seed;
  add "  \"trials\": %d,\n" r.trials;
  add "  \"config\": \"%s\",\n" (Json.escape r.config_name);
  add "  \"cpus\": %d,\n" r.shape.cpus;
  add "  \"tasks\": %d,\n" r.shape.tasks;
  add "  \"rounds\": %d,\n" r.shape.rounds;
  add "  \"quantum\": %d,\n" r.shape.quantum;
  add "  \"quarantine_after\": %s,\n"
    (match r.shape.quarantine_after with None -> "null" | Some n -> string_of_int n);
  add "  \"golden_makespan\": %Ld,\n" r.golden_makespan;
  add "  \"fired\": %d,\n" r.fired_count;
  add "  \"outcomes\": {\n";
  add "    \"detected_by_pac\": %d,\n" r.n_detected_by_pac;
  add "    \"detected_by_mmu\": %d,\n" r.n_detected_by_mmu;
  add "    \"panicked\": %d,\n" r.n_panicked;
  add "    \"task_killed\": %d,\n" r.n_task_killed;
  add "    \"silent_corruption\": %d,\n" r.n_silent;
  add "    \"benign\": %d\n" r.n_benign;
  add "  },\n";
  add "  \"detection_rate\": %.6f,\n" r.detection_rate;
  add "  \"mean_makespan\": %.2f,\n" r.mean_makespan;
  add "  \"trial_list\": [\n";
  List.iteri
    (fun i t ->
      add
        "    {\"index\": %d, \"spec\": \"%s\", \"fired\": %b, \"outcome\": \
         \"%s\", \"detail\": \"%s\", \"makespan\": %Ld, \"offlined\": [%s]}%s\n"
        t.index (Json.escape t.spec_desc) t.fired (outcome_name t.outcome)
        (Json.escape t.detail) t.makespan
        (String.concat "," (List.map string_of_int t.offlined))
        (if i = r.trials - 1 then "" else ","))
    r.trial_list;
  add "  ]\n";
  add "}\n";
  Buffer.contents b

let report_to_string r =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "fault-injection campaign: seed=%Ld trials=%d config=%s cpus=%d tasks=%d rounds=%d\n"
    r.seed r.trials r.config_name r.shape.cpus r.shape.tasks r.shape.rounds;
  add "golden makespan: %Ld cycles; faults fired in %d/%d trials\n" r.golden_makespan
    r.fired_count r.trials;
  (match r.shape.quarantine_after with
  | None -> ()
  | Some n -> add "per-CPU quarantine after %d PAC failures\n" n);
  let row name n =
    add "  %-18s %5d  (%5.1f%%)\n" name n
      (if r.trials = 0 then 0.0 else 100.0 *. float_of_int n /. float_of_int r.trials)
  in
  row "detected-by-pac" r.n_detected_by_pac;
  row "detected-by-mmu" r.n_detected_by_mmu;
  row "panicked" r.n_panicked;
  row "task-killed" r.n_task_killed;
  row "silent-corruption" r.n_silent;
  row "benign" r.n_benign;
  add "detection rate (effective faults): %.1f%%\n" (100.0 *. r.detection_rate);
  add "mean makespan: %.0f cycles (golden %Ld)\n" r.mean_makespan r.golden_makespan;
  Buffer.contents b

(* Quarantine demonstration. The fault is a stuck-at flip in core 1's
   data-key register: every switch frame was signed with the true key,
   so each attempt to schedule a task on core 1 fails authentication
   there — but the same task authenticates fine on core 0, which is
   exactly the situation per-CPU quarantine is for. *)
type demo = {
  demo_spec : string;
  baseline_panicked : bool;
  baseline_completed : int;
  baseline_failures : int;
  quarantine_panicked : bool;
  quarantine_completed : int;
  quarantine_killed : int;
  quarantine_offlined : int list;
}

let quarantine_demo ?(seed = 42L) () =
  let config = { C.Config.full with C.Config.bruteforce_threshold = 3 } in
  let data_key = C.Keys.key_for config.C.Config.mode C.Keys.Data in
  let spec =
    {
      Injector.trigger = Injector.Always;
      model = Injector.Key_flip { key = data_key; high_half = false; bit = 7 };
      persistence = Injector.Stuck;
    }
  in
  let shape = { default_shape with tasks = 8; rounds = 40; quantum = 150 } in
  let run_variant quarantine_after =
    let sys, _layout, spawned = setup ~config ~seed shape in
    let inj = Injector.create spec in
    Injector.arm inj (Machine.core (K.System.machine sys) 1);
    (sys, run_workload { shape with quarantine_after } sys spawned)
  in
  let bsys, bstats = run_variant None in
  let qsys, qstats = run_variant (Some 2) in
  let completed (stats : K.System.smp_stats) =
    List.length
      (List.filter
         (fun (_, _, e) -> match e with K.System.Exited _ -> true | _ -> false)
         stats.K.System.smp_exits)
  in
  let killed (stats : K.System.smp_stats) =
    List.length
      (List.filter
         (fun (_, _, e) -> match e with K.System.User_killed _ -> true | _ -> false)
         stats.K.System.smp_exits)
  in
  {
    demo_spec = Injector.spec_to_string spec ^ " on cpu1 only";
    baseline_panicked = K.System.panicked bsys;
    baseline_completed = completed bstats;
    baseline_failures = C.Bruteforce.failures (K.System.bruteforce bsys);
    quarantine_panicked = K.System.panicked qsys;
    quarantine_completed = completed qstats;
    quarantine_killed = killed qstats;
    quarantine_offlined = qstats.K.System.smp_offlined;
  }

let demo_to_string d =
  Printf.sprintf
    "quarantine demo (%s)\n\
    \  baseline:   panicked=%b completed=%d/8 pac_failures=%d\n\
    \  quarantine: panicked=%b completed=%d/8 killed=%d offlined=[%s]\n"
    d.demo_spec d.baseline_panicked d.baseline_completed d.baseline_failures
    d.quarantine_panicked d.quarantine_completed d.quarantine_killed
    (String.concat ";" (List.map string_of_int d.quarantine_offlined))
