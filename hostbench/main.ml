(* Host-performance benchmark of the simulator: one workload per process.

   Usage:
     main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
     main.exe --vet-faults FROM TO

   The untraced run (--trace 0) sets the workload up several times,
   checks one reference unit on the Interp tier, then runs units back to
   back for S seconds and reports the end-to-end metrics. The traced run
   (--trace 1) replays single operations to read the program's own
   counters, then spends S on rounds of an untraced stretch, the same
   loop with spans recorded around every layer call, and the layer
   microprobes; it reports the per-layer metrics and writes the spans as
   a Chrome trace.
   Either run prints "workload metric value unit" lines, then one JSON
   result object as its last line; with --out it also writes both to
   DIR. *)

open Harness
module S = Suite

let workloads =
  [ "calls-baseline"; "calls-camouflage"; "syscalls-smp"; "faults-campaign"; "lint-image" ]

let make name ~seed =
  match name with
  | "calls-baseline" -> Some (S.calls ~name ~seed Camouflage.Config.none ~calls:200_000)
  | "calls-camouflage" ->
      Some (S.calls ~name ~seed Camouflage.Config.backward_only ~calls:2_000)
  | "syscalls-smp" -> Some (S.syscalls_smp ~seed)
  | "faults-campaign" -> Some (S.faults_campaign ~seed)
  | "lint-image" -> Some (S.lint_image ~seed)
  | _ -> None

(* Set-ups per run; setup_s is their median. *)
let setups = 15

let end_to_end ~setup_s (s : S.sample) =
  [
    ("setup_s", setup_s, "s");
    ("unit_ms_p50", median s.S.unit_ms, "ms");
    ("ops_per_s", s.S.ops_per_s, "ops/s");
    ("heap_peak_mb", heap_peak_mb (), "MB");
  ]

(* The traced run is [rounds] rounds. Each runs the untraced loop, the
   same loop with spans recorded, and one batch of every layer probe, so
   that a change of host speed hits all three alike. Ratios between them
   are taken within a round, and every per-layer value is the median
   round. Over the rounds the untraced loop times at least [min_units]
   units, the traced one at least [traced_units]. *)
let rounds = 5
let traced_units = 20

let per_layer (w : S.t) ~rounds ~(o : S.per_op option) =
  let per_round f = median (List.map f rounds) in
  let p50 (s : S.sample) = median s.S.unit_ms in
  let unit_ms = List.concat_map (fun (plain, _, _) -> plain.S.unit_ms) rounds in
  let median_p50 = median unit_ms in
  let _, _, first = List.hd rounds in
  let p = List.map (fun (name, _) -> (name, per_round (fun (_, _, p) -> S.cost p name))) first in
  let ns name = S.cost p name *. 1e9 and us name = S.cost p name *. 1e6 in
  let ms name = S.cost p name *. 1e3 in
  let ops = float_of_int w.S.ops_per_unit in
  let g f = match o with Some o -> f o | None -> 0.0 in
  let fleet f = per_round (fun (plain, _, _) -> Option.fold ~none:0.0 ~some:f plain.S.fleet) in
  let slow = List.filter (fun x -> x > 10.0 *. median_p50) unit_ms in
  (* spans keep wall time; scale them by the run's median host speed *)
  let yardstick_s = median !yardstick_samples in
  let run_smp = List.map (fun ms -> ms *. speed_factor yardstick_s) (self_ms "System.run_smp") in
  [
    ("qarma.encrypt_ns", ns "qarma.encrypt", "ns");
    ("pac.compute_ns", ns "pac.compute", "ns");
    ("pac.repeat_compute_ns", ns "pac.repeat_compute", "ns");
    ("pac.cipher_calls_per_op", g (fun o -> o.S.cipher_calls), "count");
    ("pac.cipher_share", g (fun o -> o.S.cipher_calls *. ops *. ms "pac.compute") /. median_p50, "ratio");
    ("encode.decode_ns", ns "encode.decode", "ns");
    ("mmu.translate_ns", ns "mmu.translate", "ns");
    ("mmu.walks_per_op", g (fun o -> o.S.mmu_walks), "count");
    ("icache.fetch_hit_ns", ns "icache.fetch_hit", "ns");
    ("icache.hit_ratio", g (fun o -> o.S.icache_hit_ratio), "ratio");
    ("icache.fills_per_op", g (fun o -> o.S.icache_fills), "count");
    ("icache.invalidations_per_op", g (fun o -> o.S.icache_invalidations), "count");
    ("icache.flushes_per_op", g (fun o -> o.S.icache_flushes), "count");
    ("cpu.insn_ns_interp", ns "cpu.insn_interp", "ns");
    ("cpu.insn_ns_icache", ns "cpu.insn_icache", "ns");
    ("cpu.insn_ns_traces", ns "cpu.insn_traces", "ns");
    ("cpu.traces_tier_share", g (fun o -> o.S.traces_share), "ratio");
    ("traces.compiled_per_op", g (fun o -> o.S.traces_compiled), "count");
    ("traces.block_insn_share", g (fun o -> o.S.traces_block_insn_share), "ratio");
    ("traces.chain_ratio", g (fun o -> o.S.traces_chain_ratio), "ratio");
    ("traces.invalidations_per_op", g (fun o -> o.S.traces_invalidations), "count");
    ("guest.insns_per_op", g (fun o -> o.S.insns), "count");
    ("guest.cycles_per_op", g (fun o -> o.S.cycles), "cycles");
    ("guest.mips", g (fun o -> o.S.insns) *. ops /. (median_p50 *. 1e3), "Minsn/s");
    ("kernel.syscall_ns", ns "kernel.syscall", "ns");
    ("kernel.exception_entries_per_op", g (fun o -> o.S.exception_entries), "count");
    ("kernel.key_installs_per_op", g (fun o -> o.S.key_installs), "count");
    ("kernel.run_smp_ms", (if run_smp = [] then 0.0 else median run_smp), "ms");
    ("kernel.boot_ms", ms "kernel.boot", "ms");
    ("snapshot.restore_us", us "snapshot.restore", "us");
    ("snapshot.fingerprint_us", us "snapshot.fingerprint", "us");
    ("unit_ms_tail", tail unit_ms, "ms");
    ("faultinj.slow_trial_share", ratio (float_of_int (List.length slow)) (float_of_int (List.length unit_ms)), "ratio");
    ("faultinj.slow_time_share", ratio (sum slow) (sum unit_ms), "ratio");
    ("fleet.dispatch_us", us "fleet.dispatch", "us");
    ("fleet.worker_busy_ratio", fleet fst, "ratio");
    ("fleet.steals", fleet snd, "count");
    ("kbuild.build_ms", ms "kbuild.build", "ms");
    ("paclint.lint_ms", Float.max 0.0 (ms "kbuild.lint_report" -. ms "kbuild.build"), "ms");
    ("telemetry.observed_ratio", per_round (fun (plain, observed, _) -> p50 observed /. p50 plain), "ratio");
    ( "ledger.accounted_share",
      per_round (fun (plain, _, p) -> w.S.modelled_s p o *. 1e3 /. p50 plain),
      "ratio" );
    ("host.yardstick_ms", yardstick_s *. 1e3, "ms");
  ]

let trace_rounds (w : S.t) c ~seed ~seconds =
  tracing := true;
  let o = span "per-op replay" (fun () -> w.S.per_op c) in
  let probes = span "probe set-up" (fun () -> S.probe_set ~seed) in
  let share = seconds /. float_of_int rounds in
  let round _ =
    tracing := false;
    let plain = w.S.measure c ~seconds:(0.3 *. share) ~min_units:(min_units / rounds) in
    tracing := true;
    let observed = w.S.measure c ~seconds:(0.3 *. share) ~min_units:(traced_units / rounds) in
    let p = span "probes" (fun () -> probe_round probes ~seconds:(0.4 *. share)) in
    (plain, observed, p)
  in
  let rounds = List.init rounds round in
  tracing := false;
  per_layer w ~rounds ~o

let write_file path text = Out_channel.with_open_bin path (fun oc -> output_string oc text)

let run (w : S.t) ~seed ~seconds ~traced ~out =
  start_yardstick ();
  Fun.protect ~finally:stop_yardstick @@ fun () ->
  let c = S.new_checks () in
  tracing := traced;
  let setup_s =
    median
      (to_reference
         (List.init setups (fun _ ->
              (* Free the previous set-up first, so that each one allocates
                 into a collected heap instead of some finding their memory
                 still held by the last one. *)
              Gc.full_major ();
              let t0 = now () in
              w.S.setup ();
              let dt = now () -. t0 in
              (dt, yardstick ()))))
  in
  w.S.reference c;
  let metrics =
    if not traced then end_to_end ~setup_s (w.S.measure c ~seconds ~min_units)
    else begin
      let metrics = trace_rounds w c ~seed ~seconds in
      let trace = chrome_trace () in
      (match Telemetry.Chrome.validate trace with
      | Ok () -> ()
      | Error e -> S.fail c ("chrome trace rejected: " ^ e));
      Option.iter
        (fun dir ->
          write_file (Filename.concat dir (Printf.sprintf "%s-s%Ld.trace.json" w.S.name seed)) trace)
        out;
      metrics
    end
  in
  let metrics =
    List.map
      (fun (name, v, unit_) ->
        if Float.is_finite v then (name, v, unit_)
        else begin
          S.fail c (name ^ " is not a finite number");
          (name, 0.0, unit_)
        end)
      metrics
  in
  List.iter (fun (name, v, unit_) -> Printf.printf "%s %s %s %s\n" w.S.name name (num v) unit_) metrics;
  List.iter (fun m -> Printf.printf "%s check failed: %s\n" w.S.name m) (List.rev c.S.notes);
  let result =
    obj
      [
        ("correct", string_of_bool (c.S.failed = 0));
        ("attempted", string_of_int c.S.attempted);
        ("failed", string_of_int c.S.failed);
        ( "metrics",
          obj (List.map (fun (name, v, unit_) -> (name, obj [ ("value", num v); ("unit", str unit_) ])) metrics) );
      ]
  in
  Option.iter
    (fun dir ->
      write_file
        (Filename.concat dir
           (Printf.sprintf "%s-s%Ld%s.json" w.S.name seed (if traced then "-traced" else "")))
        (obj
           [
             ("workload", str w.S.name);
             ("seed", Int64.to_string seed);
             ("trace", if traced then "1" else "0");
             ("result", result);
           ]
        ^ "\n"))
    out;
  print_endline result

let usage =
  "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]\n\
   main.exe --vet-faults FROM TO\n\
   workloads: " ^ String.concat ", " workloads

let () =
  let workload = ref "" and seed = ref "42" and seconds = ref 15.0 in
  let trace = ref 0 and out = ref "" and vet = ref [] in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_string seed, "N input seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S measured seconds (default 15)");
      ("--trace", Arg.Symbol ([ "0"; "1" ], fun v -> trace := int_of_string v), " traced run");
      ("--out", Arg.Set_string out, "DIR also write the result (and trace) here");
      ( "--vet-faults",
        Arg.Tuple [ Arg.Int (fun a -> vet := [ a ]); Arg.Int (fun b -> vet := !vet @ [ b ]) ],
        "FROM TO list the campaign seeds fit for faults-campaign" );
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  match !vet with
  | [ from; upto ] -> S.vet_faults ~from ~upto
  | _ -> (
      let seed =
        match Int64.of_string_opt !seed with
        | Some s -> s
        | None ->
            prerr_endline ("--seed: not an integer: " ^ !seed);
            exit 2
      in
      if not (!seconds > 0.0) then begin
        prerr_endline "--seconds must be positive";
        exit 2
      end;
      match make !workload ~seed with
      | None ->
          prerr_endline usage;
          exit 2
      | Some w ->
          run w ~seed ~seconds:!seconds ~traced:(!trace = 1)
            ~out:(if !out = "" then None else Some !out))
