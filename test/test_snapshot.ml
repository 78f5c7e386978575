(* PR 8: copy-on-write snapshots, deterministic record-replay and
   fault-tolerant fleet execution. The load-bearing property is
   restore-then-run ≡ boot-then-run, pinned by state fingerprints at
   the machine level (QCheck over seeds, single-core and SMP), by
   replay-log byte identity across worker counts, and by the
   quarantine path leaving every other trial's report bytes alone. *)

open Aarch64
module C = Camouflage
module K = Kernel
module FC = Faultinj.Campaign
module L = Snapshot.Log

(* --- Mem: the copy-on-write unit ---------------------------------- *)

let test_mem_cow_restore () =
  let mem = Mem.create () in
  Mem.write64 mem 0x1000L 0xaaL;
  Mem.write64 mem 0x20000L 0xbbL;
  let snap = Mem.snapshot mem in
  Alcotest.(check int) "no dirty frames at capture" 0 (Mem.snapshot_dirty snap);
  Alcotest.(check bool) "every frame captured" true (Mem.snapshot_frames snap >= 2);
  (* dirty one captured frame, allocate one new frame *)
  Mem.write64 mem 0x1000L 0xdeadL;
  Mem.write64 mem 0x90000L 0xccL;
  Alcotest.(check int) "write hook tracked both dirty frames" 2
    (Mem.snapshot_dirty snap);
  Mem.restore mem snap;
  Alcotest.(check int64) "dirty frame rolled back" 0xaaL (Mem.read64 mem 0x1000L);
  Alcotest.(check int64) "untouched frame intact" 0xbbL (Mem.read64 mem 0x20000L);
  Alcotest.(check int64) "post-snapshot frame zeroed" 0L (Mem.read64 mem 0x90000L);
  Alcotest.(check int) "dirty set drained" 0 (Mem.snapshot_dirty snap);
  (* a second divergence from the same snapshot restores just as well *)
  Mem.write64 mem 0x1000L 0xbeefL;
  Mem.restore mem snap;
  Alcotest.(check int64) "snapshot is reusable" 0xaaL (Mem.read64 mem 0x1000L)

(* --- restore-then-run ≡ boot-then-run ----------------------------- *)

let boot_workload ~cpus ~tasks ~seed =
  let sys = K.System.boot ~config:C.Config.full ~seed ~cpus () in
  let layout = K.System.map_user_program sys (FC.workload_program ~rounds:4) in
  let entry = Asm.symbol layout "main" in
  let spawned = List.init tasks (fun _ -> K.System.spawn_user_task sys ~entry) in
  (sys, spawned)

let run_to_fingerprint sys spawned =
  ignore (K.System.run_smp ~quantum:300 ~max_slices:200 sys ~tasks:spawned);
  Snapshot.Fingerprint.of_system sys

let prop_restore_equals_boot ~name ~cpus ~tasks =
  QCheck2.Test.make ~name ~count:4
    QCheck2.Gen.(map Int64.of_int (int_range 1 100_000))
    (fun seed ->
      let sys, spawned = boot_workload ~cpus ~tasks ~seed in
      let snap = K.System.snapshot sys in
      let booted = run_to_fingerprint sys spawned in
      K.System.restore sys snap;
      let restored = run_to_fingerprint sys spawned in
      let sys2, spawned2 = boot_workload ~cpus ~tasks ~seed in
      let fresh = run_to_fingerprint sys2 spawned2 in
      booted = restored && booted = fresh)

let prop_single_core =
  prop_restore_equals_boot
    ~name:"restore-then-run = boot-then-run (single core)" ~cpus:1 ~tasks:2

let prop_smp =
  prop_restore_equals_boot ~name:"restore-then-run = boot-then-run (SMP)"
    ~cpus:2 ~tasks:4

(* An unallocated frame reads as zeroes, and Mem.restore zero-fills (but
   does not deallocate) frames created after the capture — so the
   fingerprint must treat an all-zero frame as absent, or each trial's
   allocation history would leak into the next trial's fingerprint and
   break worker-count independence of replay logs. *)
let test_fingerprint_ignores_zero_frames () =
  let sys, _ = boot_workload ~cpus:1 ~tasks:1 ~seed:5L in
  let mem = Machine.mem (K.System.machine sys) in
  let before = Snapshot.Fingerprint.of_system sys in
  let frames = Mem.frames_allocated mem in
  (* touch a frame far outside the booted image, then zero it back *)
  Mem.write64 mem 0x7000_0000L 0x1234L;
  Alcotest.(check bool) "write allocated a new frame" true
    (Mem.frames_allocated mem > frames);
  Alcotest.(check bool) "dirty frame changes the fingerprint" true
    (Snapshot.Fingerprint.of_system sys <> before);
  Mem.write64 mem 0x7000_0000L 0L;
  Alcotest.(check string) "zeroed frame = absent frame" before
    (Snapshot.Fingerprint.of_system sys)

let test_fingerprint_distinguishes_seeds () =
  let fp seed =
    let sys, spawned = boot_workload ~cpus:2 ~tasks:3 ~seed in
    run_to_fingerprint sys spawned
  in
  Alcotest.(check bool) "different seeds, different states" true
    (fp 7L <> fp 8L)

(* A fault can leave any value in the console head counter; the host
   drain and the fingerprint over it must still return. *)
let test_corrupt_console_head () =
  let sys = K.System.boot ~seed:5L () in
  let head = K.System.kernel_symbol sys "console_state" in
  K.Kmem.write64 (K.System.cpu sys) head (-5L);
  Alcotest.(check string) "negative head drains nothing" ""
    (K.System.console_output sys);
  ignore (Snapshot.Fingerprint.of_system sys);
  K.Kmem.write64 (K.System.cpu sys) head 1_000_000L;
  Alcotest.(check int) "oversized head drains the whole ring" 8192
    (String.length (K.System.console_output sys));
  ignore (Snapshot.Fingerprint.of_system sys)

(* --- session trials = fresh-boot trials --------------------------- *)

let test_session_trial_matches_fresh_boot () =
  let seed = 11L in
  let golden = FC.golden_run ~seed () in
  let ses = FC.create_session ~seed () in
  Alcotest.(check int64) "session golden = fresh golden"
    golden.FC.g_makespan (FC.session_golden ses).FC.g_makespan;
  for index = 0 to 3 do
    let fresh, _ = FC.run_random_trial ~golden ~seed ~index () in
    let forked = FC.run_random_trial_in ses ~index () in
    let t = forked.FC.tr_trial in
    Alcotest.(check string)
      (Printf.sprintf "trial %d spec" index)
      fresh.FC.spec_desc t.FC.spec_desc;
    Alcotest.(check string)
      (Printf.sprintf "trial %d outcome" index)
      (FC.outcome_name fresh.FC.outcome)
      (FC.outcome_name t.FC.outcome);
    Alcotest.(check string)
      (Printf.sprintf "trial %d detail" index)
      fresh.FC.detail t.FC.detail;
    Alcotest.(check int64)
      (Printf.sprintf "trial %d makespan" index)
      fresh.FC.makespan t.FC.makespan;
    Alcotest.(check bool)
      (Printf.sprintf "trial %d fired" index)
      fresh.FC.fired t.FC.fired
  done

(* --- record-replay ------------------------------------------------- *)

let tmpdir =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "camouflage-snap-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  dir

let record ~workers ~sub =
  let dir = Filename.concat tmpdir sub in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let result =
    Option.get
      (Fleet.Campaign.run ~workers ~record_dir:dir ~seed:21L ~trials:6 ())
  in
  Option.get result.Fleet.Campaign.record_path

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_replay_log_byte_identical_across_workers () =
  let p1 = record ~workers:1 ~sub:"w1" in
  let p2 = record ~workers:2 ~sub:"w2" in
  let p8 = record ~workers:8 ~sub:"w8" in
  let b1 = read_file p1 in
  Alcotest.(check string) "log bytes: 1 worker = 2 workers" b1 (read_file p2);
  Alcotest.(check string) "log bytes: 1 worker = 8 workers" b1 (read_file p8);
  (* parse → render round-trips to the identical bytes *)
  match L.parse b1 with
  | Error e -> Alcotest.fail ("log failed to parse: " ^ e)
  | Ok log ->
      Alcotest.(check string) "parse/render round-trip" b1 (L.to_string log);
      Alcotest.(check int) "one entry per trial" 6 (List.length log.L.entries)

let test_replay_matches_recording () =
  let log = Result.get_ok (L.read ~path:(record ~workers:2 ~sub:"replay")) in
  match Faultinj.Replay.replay log with
  | Error e -> Alcotest.fail ("replay refused: " ^ e)
  | Ok verdicts ->
      Alcotest.(check int) "every trial replayed" 6 (List.length verdicts);
      List.iter
        (fun v ->
          Alcotest.(check bool)
            (Printf.sprintf "trial %d byte-identical" v.Faultinj.Replay.v_index)
            true
            (Faultinj.Replay.verdict_ok v))
        verdicts

let test_replay_detects_divergence () =
  let log = Result.get_ok (L.read ~path:(record ~workers:1 ~sub:"diverge")) in
  (* corrupt one recorded fingerprint: replay must flag exactly that
     trial and leave the others clean *)
  let mangle e =
    if e.L.e_index <> 2 then e
    else { e with L.e_fingerprint = String.map (fun _ -> '0') e.L.e_fingerprint }
  in
  let bad = { log with L.entries = List.map mangle log.L.entries } in
  (match Faultinj.Replay.replay ~index:2 bad with
  | Error e -> Alcotest.fail ("replay refused: " ^ e)
  | Ok [ v ] ->
      Alcotest.(check bool) "divergence detected" false
        (Faultinj.Replay.verdict_ok v);
      Alcotest.(check bool) "spec still matches" true v.Faultinj.Replay.v_spec_ok;
      Alcotest.(check bool) "fingerprint mismatch flagged" false
        v.Faultinj.Replay.v_fingerprint_ok
  | Ok vs -> Alcotest.fail (Printf.sprintf "expected 1 verdict, got %d" (List.length vs)));
  (* a mangled golden fingerprint is refused before any trial runs *)
  let header =
    { bad.L.header with L.h_golden_fingerprint = String.make 32 '0' }
  in
  (match Faultinj.Replay.replay { bad with L.header } with
  | Error e ->
      Alcotest.(check bool) "golden divergence is explained" true
        (String.length e > 0)
  | Ok _ -> Alcotest.fail "golden fingerprint divergence not detected");
  match Faultinj.Replay.replay ~index:99 log with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown trial index accepted"

(* Hostile logs: a header outside the ranges the CLI and serve accept,
   or entries whose indices repeat or leave [0, trials), must be refused
   with an error naming the field before anything boots, never an
   exception from System.boot or a clean replay. *)
let contains sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let test_replay_rejects_malformed () =
  let log = Result.get_ok (L.read ~path:(record ~workers:1 ~sub:"hostile")) in
  let h = log.L.header in
  let first = [ List.hd log.L.entries ] in
  let refused label field bad =
    match Faultinj.Replay.replay bad with
    | Ok _ -> Alcotest.fail (label ^ ": replayed instead of refused")
    | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: error %S names %s" label e field)
          true (contains field e)
    | exception ex ->
        Alcotest.fail (label ^ ": raised " ^ Printexc.to_string ex)
  in
  let with_header header = { log with L.header } in
  refused "cpus 500" "cpus" (with_header { h with L.h_cpus = 500 });
  refused "cpus 0" "cpus" (with_header { h with L.h_cpus = 0 });
  refused "trials -5, one entry" "trials"
    { L.header = { h with L.h_trials = -5 }; entries = first };
  refused "trials 0" "trials" (with_header { h with L.h_trials = 0 });
  refused "tasks 0" "tasks" (with_header { h with L.h_tasks = 0 });
  refused "rounds 0" "rounds" (with_header { h with L.h_rounds = 0 });
  refused "quantum 0" "quantum" (with_header { h with L.h_quantum = 0 });
  refused "quarantine 0" "quarantine"
    (with_header { h with L.h_quarantine_after = Some 0 });
  let with_index i = { (List.hd first) with L.e_index = i } in
  refused "repeated index" "index"
    { log with L.entries = log.L.entries @ first };
  refused "index = trials" "index"
    { log with L.entries = [ with_index h.L.h_trials ] };
  refused "negative index" "index" { log with L.entries = [ with_index (-1) ] };
  (match Faultinj.Replay.session_of_header { h with L.h_cpus = 500 } with
  | Ok _ -> Alcotest.fail "session_of_header booted cpus 500"
  | Error e -> Alcotest.(check bool) "session_of_header names cpus" true (contains "cpus" e));
  (* fewer entries than trials stays legal: quarantined trials are
     absent from a log *)
  match Faultinj.Replay.replay { log with L.entries = first } with
  | Error e -> Alcotest.fail ("partial log refused: " ^ e)
  | Ok vs ->
      Alcotest.(check (list bool)) "partial log replays clean" [ true ]
        (List.map Faultinj.Replay.verdict_ok vs)

(* A campaign recorded under telemetry logs the bytes of a plain
   recording and replays clean. Seed 7's first 16 trials include
   kernel oopses and PAC-failure kills (trials 6, 9 and 15), whose oops
   dumps are fingerprinted and copied into the kernel log: any
   telemetry that leaked into a dump would make those trials diverge
   from the telemetry-off replay. *)
let test_replay_telemetry_recording () =
  let record ~telemetry ~sub =
    let dir = Filename.concat tmpdir sub in
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let result =
      Option.get
        (Fleet.Campaign.run ~config_name:(C.Config.name C.Config.full)
           ~workers:1 ~telemetry ~record_dir:dir ~seed:7L ~trials:16 ())
    in
    Option.get result.Fleet.Campaign.record_path
  in
  let observed = record ~telemetry:true ~sub:"observed" in
  Alcotest.(check string) "log bytes: telemetry on = off"
    (read_file (record ~telemetry:false ~sub:"plain"))
    (read_file observed);
  match Faultinj.Replay.replay (Result.get_ok (L.read ~path:observed)) with
  | Error e -> Alcotest.fail ("replay refused: " ^ e)
  | Ok verdicts ->
      Alcotest.(check int) "every trial replayed" 16 (List.length verdicts);
      List.iter
        (fun v ->
          Alcotest.(check bool)
            (Printf.sprintf "trial %d byte-identical" v.Faultinj.Replay.v_index)
            true
            (Faultinj.Replay.verdict_ok v))
        verdicts

let test_replay_config_names () =
  List.iter
    (fun name ->
      match Faultinj.Replay.config_of_name name with
      | Some _ -> ()
      | None -> Alcotest.fail ("token not resolved: " ^ name))
    [ "full"; "backward"; "compat"; "none"; "sp-only"; "parts"; "chained" ];
  (* the CLI records display names; they resolve to the same configs *)
  (match Faultinj.Replay.config_of_name (C.Config.name C.Config.full) with
  | Some c -> Alcotest.(check bool) "display name round-trips" true (c = C.Config.full)
  | None -> Alcotest.fail "display name not resolved");
  match Faultinj.Replay.config_of_name "no-such-config" with
  | None -> ()
  | Some _ -> Alcotest.fail "junk config name resolved"

(* --- fault-tolerant campaigns -------------------------------------- *)

let test_campaign_failed_job_isolated () =
  let seed = 33L and trials = 8 in
  let baseline = Option.get (Fleet.Campaign.run ~workers:2 ~seed ~trials ()) in
  let poisoned =
    Option.get
      (Fleet.Campaign.run ~workers:2 ~retries:1
         ~job_hook:(fun i -> if i = 3 then failwith "injected job failure")
         ~seed ~trials ())
  in
  (match poisoned.Fleet.Campaign.failures with
  | [ f ] ->
      Alcotest.(check int) "failed trial index" 3 f.Fleet.Pool.job;
      Alcotest.(check int) "attempts recorded" 2 f.Fleet.Pool.attempts
  | fs ->
      Alcotest.fail
        (Printf.sprintf "expected exactly 1 failure, got %d" (List.length fs)));
  let trial_line t = L.entry_to_json (Faultinj.Replay.entry_of_trial ~fingerprint:"" t) in
  let by_index r =
    List.map
      (fun t -> (t.FC.index, trial_line t))
      r.Fleet.Campaign.report.FC.trial_list
  in
  let base = by_index baseline and pois = by_index poisoned in
  Alcotest.(check int) "baseline has every trial" trials (List.length base);
  Alcotest.(check int) "poisoned run lost exactly the failed trial"
    (trials - 1) (List.length pois);
  Alcotest.(check bool) "failed trial absent" true
    (not (List.mem_assoc 3 pois));
  List.iter
    (fun (i, line) ->
      if i <> 3 then
        Alcotest.(check string)
          (Printf.sprintf "trial %d bytes unchanged by the failure" i)
          line
          (List.assoc i pois))
    base

let suite =
  [
    Alcotest.test_case "mem snapshot: dirty tracking and rollback" `Quick
      test_mem_cow_restore;
    QCheck_alcotest.to_alcotest prop_single_core;
    QCheck_alcotest.to_alcotest prop_smp;
    Alcotest.test_case "fingerprint ignores all-zero frames" `Quick
      test_fingerprint_ignores_zero_frames;
    Alcotest.test_case "fingerprints distinguish different histories" `Quick
      test_fingerprint_distinguishes_seeds;
    Alcotest.test_case "session trials = fresh-boot trials" `Quick
      test_session_trial_matches_fresh_boot;
    Alcotest.test_case "replay log bytes: workers 1 = 2 = 8" `Quick
      test_replay_log_byte_identical_across_workers;
    Alcotest.test_case "replay reproduces every recorded trial" `Quick
      test_replay_matches_recording;
    Alcotest.test_case "replay flags divergence, rejects bad golden" `Quick
      test_replay_detects_divergence;
    Alcotest.test_case "replay resolves both config vocabularies" `Quick
      test_replay_config_names;
    Alcotest.test_case "replay refuses malformed headers and entries" `Quick
      test_replay_rejects_malformed;
    Alcotest.test_case "campaign quarantine leaves other trials' bytes" `Quick
      test_campaign_failed_job_isolated;
    Alcotest.test_case "corrupt console head: drain and fingerprint return" `Quick
      test_corrupt_console_head;
    Alcotest.test_case "telemetry-on recording replays clean" `Quick
      test_replay_telemetry_recording;
  ]
