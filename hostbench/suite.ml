(* The five workloads of the host-performance benchmark and the layer
   microprobes. Each workload is a closed loop with one caller; the
   faults campaign fans its trials out to two pool workers. *)

open Aarch64
open Harness
module C = Camouflage
module K = Kernel
module FC = Faultinj.Campaign

(* ---- correctness accounting ---- *)

type checks = {
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;  (** newest first, capped *)
}

let new_checks () = { attempted = 0; failed = 0; notes = [] }

let fail c msg =
  c.failed <- c.failed + 1;
  if List.length c.notes < 20 then c.notes <- msg :: c.notes

(* ---- host-side structure counters (never guest-visible) ---- *)

type host = {
  fetch_hits : int;
  fetch_misses : int;
  fills : int;
  ic_invalidations : int;
  ic_flushes : int;
  compiled : int;
  executed : int;
  block_insns : int;
  chain_follows : int;
  tr_invalidations : int;
}

let host_of ~icache ~cores =
  let s = Icache.stats icache in
  let tr = List.filter_map Cpu.trace_stats cores in
  let tsum f = List.fold_left (fun acc t -> acc + f t) 0 tr in
  {
    fetch_hits = s.Icache.fetch_hits;
    fetch_misses = s.Icache.fetch_misses;
    fills = s.Icache.fills;
    ic_invalidations = s.Icache.invalidations;
    ic_flushes = s.Icache.flushes;
    compiled = tsum (fun t -> t.Traces.compiled);
    executed = tsum (fun t -> t.Traces.executed);
    block_insns = tsum (fun t -> t.Traces.block_insns);
    chain_follows = tsum (fun t -> t.Traces.chain_follows);
    tr_invalidations = tsum (fun t -> t.Traces.invalidations);
  }

let host_diff a b =
  {
    fetch_hits = a.fetch_hits - b.fetch_hits;
    fetch_misses = a.fetch_misses - b.fetch_misses;
    fills = a.fills - b.fills;
    ic_invalidations = a.ic_invalidations - b.ic_invalidations;
    ic_flushes = a.ic_flushes - b.ic_flushes;
    compiled = a.compiled - b.compiled;
    executed = a.executed - b.executed;
    block_insns = a.block_insns - b.block_insns;
    chain_follows = a.chain_follows - b.chain_follows;
    tr_invalidations = a.tr_invalidations - b.tr_invalidations;
  }

(* What one operation of a workload does in each layer, measured outside
   the timed window: guest work from the cores, layer events from a
   telemetry-observed replay, host-structure activity from an
   unobserved replay of the warm workload. *)
type per_op = {
  insns : float;
  cycles : float;
  cipher_calls : float;  (** PAC + PACGA + AUT + authenticated branches *)
  mmu_walks : float;
  exception_entries : float;
  key_installs : float;
  icache_hit_ratio : float;
  icache_fills : float;
  icache_invalidations : float;
  icache_flushes : float;
  traces_share : float;  (** share of replayed units whose cores ran Traces *)
  traces_compiled : float;
  traces_block_insn_share : float;
  traces_chain_ratio : float;
  traces_invalidations : float;
}

(* [counters] covers [ops] operations, [host] covers [host_ops]. *)
let per_op_of ~insns ~cycles ~counters ~ops ~host ~host_ops ~traces_share =
  let per n v = float_of_int v /. float_of_int n in
  let per64 v = Int64.to_float v /. float_of_int ops in
  let module T = Telemetry.Counters in
  {
    insns;
    cycles;
    cipher_calls = per64 (Int64.add (T.pac_ops counters) (T.aut_ops counters));
    mmu_walks = per64 counters.T.mmu_walks;
    exception_entries = per64 counters.T.exception_entries;
    key_installs = per64 counters.T.key_installs;
    icache_hit_ratio =
      ratio (float_of_int host.fetch_hits)
        (float_of_int (host.fetch_hits + host.fetch_misses));
    icache_fills = per host_ops host.fills;
    icache_invalidations = per host_ops host.ic_invalidations;
    icache_flushes = per host_ops host.ic_flushes;
    traces_share;
    traces_compiled = per host_ops host.compiled;
    traces_block_insn_share =
      ratio (float_of_int host.block_insns) (insns *. float_of_int host_ops);
    traces_chain_ratio =
      ratio (float_of_int host.chain_follows) (float_of_int host.executed);
    traces_invalidations = per host_ops host.tr_invalidations;
  }

(* Host cost of each layer from the microprobes: seconds per operation,
   by probe name (see [probe_set]). *)
type probes = (string * float) list

let cost (p : probes) name = List.assoc name p

type sample = {
  unit_ms : float list;
  ops_per_s : float;
  fleet : (float * float) option;  (** worker busy ratio, steals per campaign *)
}

type t = {
  name : string;
  ops_per_unit : int;
  setup : unit -> unit;
      (** one full set-up; timed several times, the last one is kept *)
  reference : checks -> unit;  (** untimed correctness reference *)
  measure : checks -> seconds:float -> min_units:int -> sample;
      (** units for at least [seconds], and at least [min_units] of them *)
  per_op : checks -> per_op option;  (** [None]: no guest runs *)
  modelled_s : probes -> per_op option -> float;
      (** the layer ledger: probe costs times counts, seconds per unit *)
}

let get = function Some s -> s | None -> invalid_arg "workload used before setup"

(* Closed loop with one caller: units back to back until [seconds] have
   passed and at least [min_units] ran. Only [run] is timed, then scaled
   to the reference host speed; [check] sees its result afterwards. *)
let timed_loop c ~seconds ~min_units ~ops_per_unit ~run ~check =
  let deadline = now () +. seconds in
  let rec go id acc =
    if id >= min_units && now () >= deadline then List.rev acc
    else begin
      let t0 = now () in
      let r = span ~unit_id:id "unit" run in
      let dt = now () -. t0 in
      c.attempted <- c.attempted + 1;
      check r;
      go (id + 1) ((dt, yardstick ()) :: acc)
    end
  in
  let secs = to_reference (go 0 []) in
  (* Throughput per tenth of the run, consecutive units each; the median
     tenth keeps a host slowdown confined to a few tenths out of it. A
     loop of fewer than ten units leaves some tenths empty. *)
  let n = List.length secs in
  let tenths = Array.make 10 (0, 0.0) in
  List.iteri
    (fun i s ->
      let k = i * 10 / n in
      let units, t = tenths.(k) in
      tenths.(k) <- (units + 1, t +. s))
    secs;
  {
    unit_ms = List.map (fun s -> s *. 1e3) secs;
    ops_per_s =
      median
        (List.filter_map
           (fun (units, t) ->
             if units = 0 then None else Some (float_of_int (ops_per_unit * units) /. t))
           (Array.to_list tenths));
    fleet = None;
  }

(* Cipher and instruction cost of one unit, the ledger terms every
   guest workload shares: instructions retired inside compiled blocks
   at the traces tier's cost, the rest at the icache tier's. *)
let guest_s p ~ops_per_unit = function
  | None -> 0.0
  | Some o ->
      let in_blocks = o.traces_block_insn_share in
      let insn_s =
        (in_blocks *. cost p "cpu.insn_traces")
        +. ((1.0 -. in_blocks) *. cost p "cpu.insn_icache")
      in
      float_of_int ops_per_unit
      *. ((o.cipher_calls *. cost p "pac.compute") +. (o.insns *. insn_s))

let seeded_rng seed = Camo_util.Rng.create (Int64.logxor seed 0x6a09e667f3bcc908L)

(* ---- E2 call probe on a bare machine (calls-baseline, calls-camouflage) ---- *)

let calls_prog config ~calls =
  let obj = Workloads.Calls.calls_object config ~calls in
  let prog = Asm.create () in
  List.iter
    (fun (name, items) -> Asm.add_function prog ~name items)
    obj.Kelf.Object_file.functions;
  prog

type bare = { cpu : Cpu.t; layout : Asm.layout }

let bare_machine ~seed ~tier config ~calls =
  let cpu = Bare.machine ~seed ~tier () in
  { cpu; layout = Bare.load cpu (calls_prog config ~calls) }

(* One call of the probe's caller: stop reason, retired insns, cycles. *)
let call_unit m =
  let i0 = Cpu.insns_retired m.cpu and c0 = Cpu.cycles m.cpu in
  let stop =
    span "Bare.call" (fun () -> Bare.call ~max_insns:100_000_000 m.cpu m.layout "caller")
  in
  (stop, Int64.sub (Cpu.insns_retired m.cpu) i0, Int64.sub (Cpu.cycles m.cpu) c0)

let calls ~name ~seed config ~calls =
  let state = ref None and expect = ref (0L, 0L) in
  let check c (stop, insns, cycles) =
    if stop <> Cpu.Sentinel_return then
      fail c (name ^ ": unit stopped with " ^ Cpu.stop_to_string stop)
    else if (insns, cycles) <> !expect then
      fail c
        (Printf.sprintf "%s: unit retired %Ld insns / %Ld cycles, interp reference %Ld / %Ld"
           name insns cycles (fst !expect) (snd !expect))
  in
  {
    name;
    ops_per_unit = calls;
    setup =
      (fun () ->
        state := None;
        span "setup" (fun () ->
            let m = bare_machine ~seed ~tier:Cpu.Traces config ~calls in
            ignore (call_unit m);
            state := Some m));
    reference =
      (fun c ->
        span "reference" (fun () ->
            let m = bare_machine ~seed ~tier:Cpu.Interp config ~calls in
            match call_unit m with
            | Cpu.Sentinel_return, insns, cycles -> expect := (insns, cycles)
            | stop, _, _ ->
                fail c (name ^ ": interp reference stopped with " ^ Cpu.stop_to_string stop)));
    measure =
      (fun c ~seconds ~min_units ->
        let m = get !state in
        timed_loop c ~seconds ~ops_per_unit:calls
          ~min_units ~run:(fun () -> call_unit m)
          ~check:(check c));
    per_op =
      (fun c ->
        (* layer events: a fresh core observed by a telemetry sink *)
        let observed = bare_machine ~seed ~tier:Cpu.Traces config ~calls in
        let sink = Telemetry.Sink.create ~cpu:0 () in
        Cpu.attach_telemetry observed.cpu sink;
        check c (call_unit observed);
        (* host structures: three more units of the warm timed core *)
        let m = get !state in
        let host () = host_of ~icache:(Cpu.icache m.cpu) ~cores:[ m.cpu ] in
        let h0 = host () in
        let on_traces =
          List.init 3 (fun _ ->
              check c (call_unit m);
              Cpu.last_run_tier m.cpu = Cpu.Traces)
        in
        let insns, cycles = !expect in
        let per_call v = Int64.to_float v /. float_of_int calls in
        Some
          (per_op_of ~insns:(per_call insns) ~cycles:(per_call cycles)
             ~counters:(Telemetry.Counters.snapshot (Telemetry.Sink.counters sink))
             ~ops:calls ~host:(host_diff (host ()) h0) ~host_ops:(3 * calls)
             ~traces_share:
               (float_of_int (List.length (List.filter Fun.id on_traces)) /. 3.0)));
    modelled_s = guest_s ~ops_per_unit:calls;
  }

(* ---- SMP syscall throughput under full protection (syscalls-smp) ---- *)

type smp = {
  sys : K.System.t;
  tasks : K.System.task list;
  snap : K.System.snapshot;
}

let smp_tasks = 8

let smp_system ?(telemetry = false) ~seed ~tier () =
  let sys = K.System.boot ~config:C.Config.full ~seed ~cpus:2 ~telemetry ~tier () in
  let layout = K.System.map_user_program sys (Workloads.Smp.throughput_program ~rounds:40) in
  let entry = Asm.symbol layout "throughput" in
  let tasks = List.init smp_tasks (fun _ -> K.System.spawn_user_task sys ~entry) in
  { sys; tasks; snap = K.System.snapshot sys }

let smp_cores s = Machine.cores (K.System.machine s.sys)

let retired cores =
  List.fold_left (fun acc c -> Int64.add acc (Cpu.insns_retired c)) 0L cores

(* One unit: a dirty restore, then the whole schedule. *)
let smp_unit s =
  span "System.restore" (fun () -> K.System.restore s.sys s.snap);
  let i0 = retired (smp_cores s) in
  let st =
    span "System.run_smp" (fun () -> K.System.run_smp ~quantum:500 s.sys ~tasks:s.tasks)
  in
  (st, Int64.sub (retired (smp_cores s)) i0)

let syscalls_smp ~seed =
  let name = "syscalls-smp" in
  let state = ref None and expect = ref (0L, 0L) in
  let check c ((st : K.System.smp_stats), insns) =
    let clean =
      List.length st.K.System.smp_exits = smp_tasks
      && List.for_all
           (function _, _, K.System.Exited _ -> true | _ -> false)
           st.K.System.smp_exits
    in
    if not clean then fail c (name ^ ": not every task exited cleanly")
    else if (st.K.System.makespan, insns) <> !expect then
      fail c
        (Printf.sprintf "%s: makespan %Ld / %Ld insns, interp reference %Ld / %Ld" name
           st.K.System.makespan insns (fst !expect) (snd !expect))
  in
  {
    name;
    ops_per_unit = 1;
    setup =
      (fun () ->
        state := None;
        span "setup" (fun () ->
            let s = smp_system ~seed ~tier:Cpu.Traces () in
            ignore (smp_unit s);
            state := Some s));
    reference =
      (fun c ->
        span "reference" (fun () ->
            let ((st, insns) as r) = smp_unit (smp_system ~seed ~tier:Cpu.Interp ()) in
            expect := (st.K.System.makespan, insns);
            check c r));
    measure =
      (fun c ~seconds ~min_units ->
        let s = get !state in
        timed_loop c ~seconds ~ops_per_unit:1
          ~min_units ~run:(fun () -> smp_unit s)
          ~check:(check c));
    per_op =
      (fun c ->
        let observed = smp_system ~telemetry:true ~seed ~tier:Cpu.Traces () in
        let hub = Option.get (K.System.telemetry observed.sys) in
        K.System.restore observed.sys observed.snap;
        let before = Telemetry.Hub.counters hub in
        check c (smp_unit observed);
        let counters = Telemetry.Counters.diff ~after:(Telemetry.Hub.counters hub) ~before in
        let s = get !state in
        let host () =
          host_of ~icache:(Machine.icache (K.System.machine s.sys)) ~cores:(smp_cores s)
        in
        let h0 = host () in
        let on_traces =
          List.init 3 (fun _ ->
              check c (smp_unit s);
              List.for_all (fun core -> Cpu.last_run_tier core = Cpu.Traces) (smp_cores s))
        in
        let makespan, insns = !expect in
        Some
          (per_op_of ~insns:(Int64.to_float insns) ~cycles:(Int64.to_float makespan)
             ~counters ~ops:1 ~host:(host_diff (host ()) h0) ~host_ops:3
             ~traces_share:
               (float_of_int (List.length (List.filter Fun.id on_traces)) /. 3.0)));
    modelled_s = (fun p o -> guest_s p ~ops_per_unit:1 o +. cost p "snapshot.restore");
  }

(* ---- fault-injection campaign on the fleet pool (faults-campaign) ---- *)

let campaign_trials = 48
let campaign_workers = 2

(* Campaign seeds whose [campaign_trials] trials all finish within 10x
   the golden makespan and none is quarantined. About one trial in
   forty runs away for ~3 s of host time; how many a campaign draws
   would make trials/s a function of the seed rather than of the code
   (README.md). Regenerate with [main.exe --vet-faults FROM TO]. *)
let campaign_seeds =
  [|
    2L; 6L; 8L; 10L; 12L; 15L; 17L; 21L; 22L; 25L; 27L; 29L; 31L; 34L; 38L; 41L; 42L;
    43L; 51L; 52L; 54L; 60L; 61L; 62L; 63L; 69L; 80L;
  |]

let campaign_seed seed =
  let n = Int64.of_int (Array.length campaign_seeds) in
  campaign_seeds.(Int64.to_int (Int64.rem (Int64.add (Int64.rem seed n) n) n))

let run_campaign ?(workers = campaign_workers) ?(tier = Cpu.Traces) ?job_hook
    ?progress ~seed () =
  Option.get
    (Fleet.Campaign.run ~workers ~tier ?job_hook ?progress ~seed ~trials:campaign_trials ())

let report_json r = FC.report_to_json r.Fleet.Campaign.report

let quarantine_record f =
  Printf.sprintf "trial %d quarantined after %d attempts: %s" f.Fleet.Pool.job
    f.Fleet.Pool.attempts f.Fleet.Pool.error

(* The quarantine records of a campaign, printed and counted. *)
let count_failures c r =
  List.iter
    (fun f -> fail c ("faults-campaign: " ^ quarantine_record f))
    r.Fleet.Campaign.failures

let started : (int * float) Domain.DLS.key = Domain.DLS.new_key (fun () -> (-1, 0.0))

(* One campaign, each trial timed on its worker domain from its
   [job_hook] to the [progress] call that follows it. Returns the trial
   seconds and the campaign wall seconds with the yardstick time taken
   right after them, and the pool's steal count. *)
let timed_campaign c ~seed ~campaign_id ~expect =
  (* One slot per trial, written by the worker that ran it and read after
     the pool joined. A float array stores unboxed, so workers allocate
     nothing the calling domain keeps: when the caller retained values a
     finished worker domain had allocated, the major heap grew by ~0.7 MB
     per campaign (OCaml 5.1). *)
  let trials = Array.make campaign_trials 0.0 in
  let parent = current_span () in
  let t0 = now () in
  let r =
    run_campaign ~seed
      ~job_hook:(fun i -> Domain.DLS.set started (i, now ()))
      ~progress:(fun () ->
        let i, t0 = Domain.DLS.get started in
        let t1 = now () in
        add_span ~name:"trial" ~unit_id:((campaign_id * campaign_trials) + i) ~parent ~t0 ~t1;
        trials.(i) <- t1 -. t0)
      ()
  in
  let wall = now () -. t0 in
  c.attempted <- c.attempted + campaign_trials;
  count_failures c r;
  if report_json r <> expect then
    fail c
      (Printf.sprintf "faults-campaign: campaign %d report differs from the reference"
         campaign_id);
  ( (Array.to_list trials, wall),
    yardstick (),
    Array.fold_left ( + ) 0 r.Fleet.Campaign.stats.Fleet.Pool.steals )

let faults_campaign ~seed =
  let seed = campaign_seed seed in
  let expect = ref "" and mean_makespan = ref 0.0 in
  (* Replays every trial of the campaign on the calling domain, each
     restoring the session's post-setup snapshot; [f] sees the system
     once after setup ([None]) and after every trial. *)
  let replay c ~telemetry f =
    let ses = FC.create_session ~telemetry ~tier:Cpu.Traces ~seed () in
    let sys = FC.session_system ses in
    f sys None;
    for index = 0 to campaign_trials - 1 do
      match FC.run_random_trial_in ses ~index () with
      | tr -> f sys (Some tr)
      | exception e ->
          fail c
            (Printf.sprintf "faults-campaign: replayed trial %d raised %s" index
               (Printexc.to_string e))
    done
  in
  {
    name = "faults-campaign";
    ops_per_unit = 1;
    setup =
      (fun () -> span "setup" (fun () -> ignore (FC.create_session ~tier:Cpu.Traces ~seed ())));
    reference =
      (fun c ->
        span "reference" (fun () ->
            let r = run_campaign ~workers:1 ~tier:Cpu.Interp ~seed () in
            count_failures c r;
            expect := report_json r;
            mean_makespan := r.Fleet.Campaign.report.FC.mean_makespan));
    measure =
      (fun c ~seconds ~min_units ->
        (* warm-up: builds the calling domain's cached session *)
        ignore
          (span "warm-up" (fun () ->
               timed_campaign c ~seed ~campaign_id:(-1) ~expect:!expect));
        let deadline = now () +. seconds in
        let rec go id acc =
          if id >= 3 && id * campaign_trials >= min_units && now () >= deadline then acc
          else
            let r =
              span ~unit_id:(id * campaign_trials) "campaign" (fun () ->
                  timed_campaign c ~seed ~campaign_id:id ~expect:!expect)
            in
            go (id + 1) (r :: acc)
        in
        let campaigns = List.rev (go 0 []) in
        let scales = to_reference (List.map (fun (_, y, _) -> (1.0, y)) campaigns) in
        let scaled = List.map2 (fun ((trials, wall), _, _) k -> (List.map (( *. ) k) trials, wall *. k)) campaigns scales in
        let trials = List.concat_map fst scaled in
        let walls = List.map snd scaled in
        let steals = List.map (fun (_, _, s) -> float_of_int s) campaigns in
        {
          unit_ms = List.map (fun s -> s *. 1e3) trials;
          ops_per_s = median (List.map (fun w -> float_of_int campaign_trials /. w) walls);
          fleet =
            Some
              ( sum trials /. (float_of_int campaign_workers *. sum walls),
                sum steals /. float_of_int (List.length steals) );
        });
    per_op =
      (fun c ->
        (* layer events: each trial's counters minus the post-setup ones *)
        let counters = ref Telemetry.Counters.zero and base = ref Telemetry.Counters.zero in
        replay c ~telemetry:true (fun sys tr ->
            match (tr, K.System.telemetry sys) with
            | None, Some hub -> base := Telemetry.Hub.counters hub
            | Some { FC.tr_telemetry = Some jt; _ }, _ ->
                counters :=
                  Telemetry.Counters.merge !counters
                    (Telemetry.Counters.diff ~after:jt.FC.jt_counters ~before:!base)
            | _ -> ());
        (* guest work and host structures: an unobserved replay *)
        let insns = ref 0L and base_insns = ref 0L and on_traces = ref 0 in
        let h0 = ref None and h1 = ref None in
        replay c ~telemetry:false (fun sys tr ->
            let m = K.System.machine sys in
            let cores = Machine.cores m in
            h1 := Some (host_of ~icache:(Machine.icache m) ~cores);
            match tr with
            | None ->
                base_insns := retired cores;
                h0 := !h1
            | Some _ ->
                insns := Int64.add !insns (Int64.sub (retired cores) !base_insns);
                if List.for_all (fun core -> Cpu.last_run_tier core = Cpu.Traces) cores
                then incr on_traces);
        let n = float_of_int campaign_trials in
        Some
          (per_op_of ~insns:(Int64.to_float !insns /. n) ~cycles:!mean_makespan
             ~counters:!counters ~ops:campaign_trials
             ~host:(host_diff (Option.get !h1) (Option.get !h0))
             ~host_ops:campaign_trials
             ~traces_share:(float_of_int !on_traces /. n)));
    modelled_s =
      (fun p o ->
        guest_s p ~ops_per_unit:1 o
        +. cost p "snapshot.restore" +. cost p "snapshot.fingerprint" +. cost p "fleet.dispatch");
  }

(* [vet_faults ~from ~upto] prints, for each campaign seed in the
   range, whether it qualifies for [campaign_seeds]. *)
let vet_faults ~from ~upto =
  for s = from to upto do
    let seed = Int64.of_int s in
    let t0 = now () in
    let r = run_campaign ~seed () in
    let report = r.Fleet.Campaign.report in
    let golden = Int64.to_float report.FC.golden_makespan in
    let worst =
      List.fold_left
        (fun acc t -> Float.max acc (Int64.to_float t.FC.makespan /. golden))
        0.0 report.FC.trial_list
    in
    let ok = r.Fleet.Campaign.failures = [] && worst < 10.0 in
    Printf.printf "%s seed %d: worst trial %.1fx golden, %d quarantined, %.2f s\n%!"
      (if ok then "ok" else "--")
      s worst
      (List.length r.Fleet.Campaign.failures)
      (now () -. t0);
    List.iter (fun f -> print_endline ("   " ^ quarantine_record f)) r.Fleet.Campaign.failures
  done

(* ---- whole-image build and lint, no guest execution (lint-image) ---- *)

(* The seven configurations of [bench lint], under their CLI names. *)
let lint_configs =
  [
    ("full", C.Config.full);
    ("backward", C.Config.backward_only);
    ("compat", C.Config.compat);
    ("none", C.Config.none);
    ("sp-only", { C.Config.backward_only with scheme = C.Modifier.Sp_only });
    ("parts", { C.Config.backward_only with scheme = C.Modifier.Parts 0x7357L });
    ("chained", { C.Config.backward_only with scheme = C.Modifier.Chained });
  ]

(* error diagnostics, collision classes, gadget pairs *)
let census_counts (r : K.Kbuild.lint_report) =
  let classes = r.K.Kbuild.census.Paclint.Census.classes in
  ( List.length (List.filter Paclint.Diag.is_error r.K.Kbuild.diags),
    List.length
      (List.filter
         (fun cl -> cl.Paclint.Census.fn_count >= 2 && cl.Paclint.Census.pairs >= 1)
         classes),
    List.fold_left (fun acc cl -> acc + cl.Paclint.Census.pairs) 0 classes )

let baseline_path = Filename.concat "ci" "lint-baseline.json"

let read_baseline () =
  let module J = Telemetry.Json in
  let text = In_channel.with_open_bin baseline_path In_channel.input_all in
  match J.parse text with
  | Error e -> failwith (baseline_path ^ ": " ^ e)
  | Ok json ->
      List.map
        (fun (name, _) ->
          let field k =
            match Option.bind (J.member name json) (J.member k) with
            | Some (J.Num v) -> int_of_float v
            | _ -> failwith (Printf.sprintf "%s: no %s.%s" baseline_path name k)
          in
          (name, (field "errors", field "collision_classes", field "gadget_pairs")))
        lint_configs

(* The seed fixes the order in which a pass visits the configurations. *)
let shuffled ~seed xs =
  let rng = seeded_rng seed in
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Camo_util.Rng.next_in rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let lint_pass order =
  List.map
    (fun (name, config) ->
      (name, span ("lint_report " ^ name) (fun () -> K.Kbuild.lint_report config)))
    order

let lint_image ~seed =
  let order = shuffled ~seed lint_configs in
  let baseline = ref [] in
  let check c reports =
    let drift =
      List.filter_map
        (fun (name, r) ->
          let ((e, cl, gp) as got) = census_counts r in
          match List.assoc_opt name !baseline with
          | Some want when want = got -> None
          | Some (we, wcl, wgp) ->
              Some
                (Printf.sprintf
                   "%s has %d errors / %d collision classes / %d gadget pairs, baseline \
                    pins %d / %d / %d"
                   name e cl gp we wcl wgp)
          | None -> Some ("no baseline for " ^ name))
        reports
    in
    if drift <> [] then fail c ("lint-image: " ^ String.concat "; " drift)
  in
  let n = List.length lint_configs in
  {
    name = "lint-image";
    ops_per_unit = n;
    setup = (fun () -> span "setup" (fun () -> ignore (lint_pass order)));
    reference =
      (fun c ->
        match read_baseline () with
        | b -> baseline := b
        | exception (Failure e | Sys_error e) -> fail c ("lint-image: " ^ e));
    measure =
      (fun c ~seconds ~min_units ->
        timed_loop c ~seconds ~ops_per_unit:n
          ~min_units ~run:(fun () -> lint_pass order)
          ~check:(check c));
    per_op = (fun _ -> None);
    modelled_s = (fun p _ -> float_of_int n *. cost p "kbuild.lint_report");
  }

(* ---- layer microprobes ---- *)

(* [probe_set ~seed] builds the probes' inputs from [seed] and returns
   the probes (see [Harness.probe_round]), each named after the layer
   call it times. *)
let probe_set ~seed =
  let rng = seeded_rng seed in
  let r64 () = Camo_util.Rng.next rng in
  let n = 256 in
  let loop n f =
    let t0 = now () in
    for i = 0 to n - 1 do
      ignore (Sys.opaque_identity (f i))
    done;
    (now () -. t0, n)
  in
  let cipher = Qarma.Block.create () in
  let keys = Array.init n (fun _ -> (r64 (), r64 ())) in
  let tweaks = Array.init n (fun _ -> r64 ()) in
  let ptrs =
    Array.init n (fun _ -> Int64.logor 0xffff000000000000L (Int64.logand (r64 ()) 0xffffffffffL))
  in
  let pac i =
    let hi, lo = keys.(i) in
    Pac.compute ~cipher ~key:Pac.{ hi; lo } ~cfg:Vaddr.linux_kernel ~modifier:tweaks.(i) ptrs.(i)
  in
  (* decode: the encoded words of the instrumented call probe;
     translation and fetch hits over the probe's own code pages *)
  let camo = bare_machine ~seed ~tier:Cpu.Icache C.Config.backward_only ~calls:10 in
  let words = ref [] in
  Asm.encode_into camo.layout ~write32:(fun pc w -> words := (pc, w) :: !words);
  let words = Array.of_list !words in
  let pcs = Array.map fst words in
  let mmu = Cpu.mmu camo.cpu and icache = Cpu.icache camo.cpu in
  Array.iter (fun pc -> ignore (Icache.fetch icache ~el:El.El1 pc)) pcs;
  (* host seconds per guest instruction: a calls-baseline unit per tier *)
  let insn tier =
    let m = bare_machine ~seed ~tier C.Config.none ~calls:20_000 in
    ignore (call_unit m);
    ( "cpu.insn_" ^ Cpu.tier_name tier,
      fun () ->
        let t0 = now () in
        let _, insns, _ = call_unit m in
        (now () -. t0, Int64.to_int insns) )
  in
  let sys = K.System.boot ~config:C.Config.full ~seed ~tier:Cpu.Traces () in
  (* dirty restores, each after a full syscalls-smp schedule;
     fingerprints of a system after one *)
  let s = smp_system ~seed ~tier:Cpu.Traces () in
  let run s = ignore (K.System.run_smp ~quantum:500 s.sys ~tasks:s.tasks) in
  let ran = smp_system ~seed ~tier:Cpu.Traces () in
  run ran;
  let configs = List.map snd lint_configs in
  let per_config f () =
    let t0 = now () in
    List.iter f configs;
    (now () -. t0, List.length configs)
  in
  [
    ( "qarma.encrypt",
      fun () ->
        loop n (fun i ->
            Qarma.Block.encrypt cipher ~key:(Qarma.Block.key_of_pair keys.(i)) ~tweak:tweaks.(i)
              ptrs.(i)) );
    ("pac.compute", fun () -> loop n pac);
    ("pac.repeat_compute", fun () -> loop n (fun _ -> pac 0));
    ( "encode.decode",
      fun () ->
        loop 1024 (fun i ->
            let pc, w = words.(i mod Array.length words) in
            Encode.decode ~pc w) );
    ( "mmu.translate",
      fun () ->
        loop 1024 (fun i ->
            Mmu.translate mmu ~el:El.El1 ~access:Mmu.Read pcs.(i mod Array.length pcs)) );
    ( "icache.fetch_hit",
      fun () -> loop 1024 (fun i -> Icache.fetch icache ~el:El.El1 pcs.(i mod Array.length pcs)) );
    insn Cpu.Interp;
    insn Cpu.Icache;
    insn Cpu.Traces;
    ( "kernel.syscall",
      fun () -> loop 16 (fun _ -> K.System.syscall sys ~nr:K.Kbuild.sys_getpid ~args:[]) );
    ( "kernel.boot",
      fun () ->
        timed (fun () -> K.System.boot ~config:C.Config.full ~seed ~cpus:2 ~tier:Cpu.Traces ()) );
    ( "snapshot.restore",
      fun () ->
        run s;
        timed (fun () -> K.System.restore s.sys s.snap) );
    ("snapshot.fingerprint", fun () -> timed (fun () -> Snapshot.Fingerprint.of_system ran.sys));
    ( "fleet.dispatch",
      fun () ->
        let t0 = now () in
        ignore (Fleet.Pool.run ~workers:campaign_workers ~jobs:campaign_trials Fun.id);
        (now () -. t0, campaign_trials) );
    ( "kbuild.build",
      per_config (fun config ->
          let registry = C.Pointer_integrity.create_registry () in
          K.Kobject.register_protected_members registry;
          ignore (K.Kbuild.build config registry)) );
    ("kbuild.lint_report", per_config (fun config -> ignore (K.Kbuild.lint_report config)));
  ]
