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

let contains sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

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

(* --- Mmu: restore refills only what moved -------------------------- *)

let test_mmu_restore_refills_on_change () =
  let a = Mmu.create () in
  Mmu.map a ~va_page:1L ~pa_page:2L ~el0:Mmu.no_access ~el1:Mmu.rx;
  let snap = Mmu.snapshot a in
  let g = Mmu.generation a in
  Mmu.restore a snap;
  Alcotest.(check int) "unchanged tables: restore is a no-op" g (Mmu.generation a);
  Mmu.unmap a ~va_page:1L;
  Mmu.restore a snap;
  Alcotest.(check bool) "changed tables: refilled" true
    (Mmu.stage1_lookup a 1L = Some (2L, Mmu.no_access, Mmu.rx));
  Alcotest.(check bool) "refill advances the generation" true (Mmu.generation a > g);
  let g' = Mmu.generation a in
  Mmu.restore a snap;
  Alcotest.(check int) "matching again after the refill" g' (Mmu.generation a);
  (* a different Mmu whose generation happens to equal the snapshot's *)
  let b = Mmu.create () in
  for _ = 1 to g' do
    Mmu.stage2_protect b ~pa_page:9L Mmu.rw
  done;
  Alcotest.(check int) "same generation count" g' (Mmu.generation b);
  Mmu.restore b snap;
  Alcotest.(check bool) "another Mmu always refills" true
    (Mmu.stage1_lookup b 1L = Some (2L, Mmu.no_access, Mmu.rx)
    && Mmu.stage2_lookup b 9L = None);
  Alcotest.(check bool) "and advances its generation" true (Mmu.generation b > g')

(* --- restore keeps the caches, yet never runs stale code ------------ *)

(* Load [f], which returns 7, and call it 24 times, so it is decoded
   and, on traces, compiled. Returns the machine, the core, [f]'s
   address and a call of [f]. *)
let warm_f ~tier =
  let m = Bare.smp ~seed:5L ~tier () in
  let cpu = Machine.boot_core m in
  let prog = Asm.create () in
  Asm.add_function prog ~name:"f"
    [ Asm.ins (Insn.Movz (Insn.R 0, 7, 0)); Asm.ins Insn.Ret ];
  let layout = Bare.load cpu prog in
  let call () =
    let stop = Cpu.stop_to_string (Bare.call cpu layout "f") in
    (stop, Cpu.reg cpu (Insn.R 0))
  in
  for _ = 1 to 24 do
    ignore (call ())
  done;
  (m, cpu, Asm.symbol layout "f", call)

(* Snapshot the warm machine, [change] the translation of [f]'s page,
   call [f] once under the change, restore, and call it again. A
   restore flushes neither the icache nor the trace cache, so the
   refill in [Mmu.restore], and the generation bump that comes with it,
   are what stop the changed translation's cache entries outliving it. *)
let restore_after_change ~tier change =
  let m, _, va, call = warm_f ~tier in
  let snap = Machine.snapshot m in
  change m ~va;
  let changed = call () in
  Machine.restore m snap;
  (changed, call ())

(* a second copy of [f], returning 9 instead, in a frame of its own *)
let remap_to_other_frame m ~va =
  let other = 0x480000L in
  let mem = Machine.mem m in
  Mem.write32 mem other (Encode.encode ~pc:va (Insn.Movz (Insn.R 0, 9, 0)));
  Mem.write32 mem (Int64.add other 4L) (Encode.encode ~pc:(Int64.add va 4L) Insn.Ret);
  Mmu.map (Machine.mmu m) ~va_page:(Vaddr.page_of va) ~pa_page:(Vaddr.page_of other)
    ~el0:Mmu.no_access ~el1:Mmu.rx

let test_restore_after_translation_change () =
  let pa_page va = Vaddr.page_of (Env.pa_of_va va) in
  let cases =
    [
      ( "unmap the code page",
        (fun m ~va -> Mmu.unmap (Machine.mmu m) ~va_page:(Vaddr.page_of va)),
        "translation fault" );
      ( "revoke stage-2 execute",
        (fun m ~va -> Mmu.stage2_protect (Machine.mmu m) ~pa_page:(pa_page va) Mmu.rw),
        "stage-2 permission fault" );
      ("remap to another frame", remap_to_other_frame, "sentinel return");
    ]
  in
  List.iter
    (fun (name, change, expect) ->
      List.iter
        (fun tier ->
          let label what = Printf.sprintf "%s, %s: %s" name (Cpu.tier_name tier) what in
          let (stop, r0), after = restore_after_change ~tier change in
          Alcotest.(check bool) (label "the change took effect") true
            (contains expect stop && (expect <> "sentinel return" || r0 = 9L));
          Alcotest.(check (pair string int64))
            (label "after restore: the snapshot's code and mapping")
            ("sentinel return", 7L) after)
        Cpu.all_tiers)
    cases

(* With the translation untouched, a restore leaves both caches alone:
   the next call hits the icache and dispatches the compiled block. *)
let test_restore_keeps_caches_warm () =
  let m, cpu, _, call = warm_f ~tier:Cpu.Traces in
  let snap = Machine.snapshot m in
  ignore (call ());
  let flushes () =
    ( (Icache.stats (Machine.icache m)).Icache.flushes,
      (Option.get (Cpu.trace_stats cpu)).Traces.flushes )
  in
  let before = flushes () in
  let compiled = (Option.get (Cpu.trace_stats cpu)).Traces.compiled in
  Machine.restore m snap;
  Alcotest.(check (pair string int64)) "same result" ("sentinel return", 7L) (call ());
  Alcotest.(check (pair int int)) "no flush across the restore" before (flushes ());
  Alcotest.(check int) "the block compiled before the snapshot still runs" compiled
    (Option.get (Cpu.trace_stats cpu)).Traces.compiled

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

(* One session serves trials 0-3 in turn. Each reference trial runs on
   a session booted just for it, so no earlier trial touched its state. *)
let test_session_trial_matches_fresh_boot () =
  let seed = 11L in
  let ses = FC.create_session ~seed () in
  for index = 0 to 3 do
    let fresh_ses = FC.create_session ~seed () in
    Alcotest.(check int64)
      (Printf.sprintf "trial %d golden" index)
      (FC.session_golden fresh_ses).FC.g_makespan
      (FC.session_golden ses).FC.g_makespan;
    let fresh = (FC.run_random_trial_in fresh_ses ~index ()).FC.tr_trial in
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

(* Only record mode and replay read a trial's fingerprint, so a trial
   takes it only when asked, and asking changes nothing else. *)
let test_fingerprint_on_request () =
  let ses = FC.create_session ~seed:11L () in
  let line tr =
    L.entry_to_json (Faultinj.Replay.entry_of_trial ~fingerprint:"" tr.FC.tr_trial)
  in
  let plain = FC.run_random_trial_in ses ~index:2 () in
  let state = Snapshot.Fingerprint.of_system (FC.session_system ses) in
  let asked = FC.run_random_trial_in ses ~fingerprint:true ~index:2 () in
  Alcotest.(check (option string)) "not taken by default" None plain.FC.tr_fingerprint;
  Alcotest.(check (option string)) "on request: the post-trial state" (Some state)
    asked.FC.tr_fingerprint;
  Alcotest.(check string) "the trial is the same" (line plain) (line asked)

(* --- record-replay ------------------------------------------------- *)

let tmpdir =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "camouflage-snap-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  dir

let record ?(trials = 6) ~workers ~sub () =
  let dir = Filename.concat tmpdir sub in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let result =
    Option.get (Fleet.Campaign.run ~workers ~record_dir:dir ~seed:21L ~trials ())
  in
  Option.get result.Fleet.Campaign.record_path

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_replay_log_byte_identical_across_workers () =
  let p1 = record ~workers:1 ~sub:"w1" () in
  let p2 = record ~workers:2 ~sub:"w2" () in
  let p8 = record ~workers:8 ~sub:"w8" () in
  let b1 = read_file p1 in
  Alcotest.(check string) "log bytes: 1 worker = 2 workers" b1 (read_file p2);
  Alcotest.(check string) "log bytes: 1 worker = 8 workers" b1 (read_file p8);
  (* read → write round-trips to the identical bytes *)
  match Faultinj.Replay.read ~path:p1 with
  | Error e -> Alcotest.fail ("log failed to parse: " ^ e)
  | Ok log ->
      let p1' = p1 ^ ".rewritten" in
      Faultinj.Replay.write ~path:p1' log;
      Alcotest.(check string) "parse/render round-trip" b1 (read_file p1');
      Alcotest.(check int) "one entry per trial" 6 (List.length log.L.entries)

let test_replay_matches_recording () =
  let log = Result.get_ok (Faultinj.Replay.read ~path:(record ~workers:2 ~sub:"replay" ())) in
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
  let log = Result.get_ok (Faultinj.Replay.read ~path:(record ~workers:1 ~sub:"diverge" ())) in
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
let test_replay_rejects_malformed () =
  let log = Result.get_ok (Faultinj.Replay.read ~path:(record ~workers:1 ~sub:"hostile" ())) in
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
  let with_shape shape = with_header { h with L.h_shape = shape } in
  let s = h.L.h_shape in
  refused "cpus 500" "cpus" (with_shape { s with FC.cpus = 500 });
  refused "cpus 0" "cpus" (with_shape { s with FC.cpus = 0 });
  refused "trials -5, one entry" "trials"
    { L.header = { h with L.h_trials = -5 }; entries = first };
  refused "trials 0" "trials" (with_header { h with L.h_trials = 0 });
  refused "tasks 0" "tasks" (with_shape { s with FC.tasks = 0 });
  refused "rounds 0" "rounds" (with_shape { s with FC.rounds = 0 });
  refused "quantum 0" "quantum" (with_shape { s with FC.quantum = 0 });
  refused "quarantine 0" "quarantine"
    (with_shape { s with FC.quarantine_after = Some 0 });
  let with_index i = { (List.hd first) with L.e_index = i } in
  refused "repeated index" "index"
    { log with L.entries = log.L.entries @ first };
  refused "index = trials" "index"
    { log with L.entries = [ with_index h.L.h_trials ] };
  refused "negative index" "index" { log with L.entries = [ with_index (-1) ] };
  (* fewer entries than trials stays legal: quarantined trials are
     absent from a log *)
  match Faultinj.Replay.replay { log with L.entries = first } with
  | Error e -> Alcotest.fail ("partial log refused: " ^ e)
  | Ok vs ->
      Alcotest.(check (list bool)) "partial log replays clean" [ true ]
        (List.map Faultinj.Replay.verdict_ok vs)

(* Damaged logs: a recorded log cut short, or with one byte
   overwritten, inserted or deleted, must read back as [Ok] or [Error],
   never raise. Only the reader runs; the 4-trial log is recorded once. *)
let prop_damaged_log_reads_total =
  let log = lazy (read_file (record ~trials:4 ~workers:1 ~sub:"damaged" ())) in
  let path = Filename.concat tmpdir "damaged.replay" in
  QCheck.Test.make ~count:200 ~name:"a damaged replay log reads as Ok or Error"
    (QCheck.make ~print:Test_json.print_damage Test_json.damage_gen)
    (fun dmg ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (Test_json.damage (Lazy.force log) dmg));
      match Faultinj.Replay.read ~path with Ok _ | Error _ -> true)

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
  match Faultinj.Replay.replay (Result.get_ok (Faultinj.Replay.read ~path:observed)) with
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

(* A campaign off the default shape, quarantine included, records the
   same log at 1 and 2 workers and replays from the header alone: the
   session built from the header's shape runs every trial under its
   quarantine. Seed 1's trial 3 offlines a core, so a replay that
   dropped the quarantine would diverge there. *)
let test_replay_non_default_shape () =
  let shape =
    { FC.cpus = 3; tasks = 5; rounds = 6; quantum = 300; quarantine_after = Some 2 }
  in
  let record workers =
    let dir = Filename.concat tmpdir (Printf.sprintf "shape-w%d" workers) in
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    Option.get (Fleet.Campaign.run ~shape ~workers ~record_dir:dir ~seed:1L ~trials:8 ())
  in
  let path r = Option.get r.Fleet.Campaign.record_path in
  let r1 = record 1 and r2 = record 2 in
  Alcotest.(check string) "log bytes: 1 worker = 2 workers" (read_file (path r1))
    (read_file (path r2));
  let report = r1.Fleet.Campaign.report in
  Alcotest.(check bool) "the report ran the shape asked for" true (report.FC.shape = shape);
  Alcotest.(check bool) "a trial offlined a core" true
    (List.exists (fun t -> t.FC.offlined <> []) report.FC.trial_list);
  let log = Result.get_ok (Faultinj.Replay.read ~path:(path r2)) in
  Alcotest.(check bool) "report shape = header shape" true
    (report.FC.shape = log.L.header.L.h_shape);
  match Faultinj.Replay.replay log with
  | Error e -> Alcotest.fail ("replay refused: " ^ e)
  | Ok verdicts ->
      Alcotest.(check int) "every trial replayed" 8 (List.length verdicts);
      List.iter
        (fun v ->
          Alcotest.(check bool)
            (Printf.sprintf "trial %d MATCH" v.Faultinj.Replay.v_index)
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

(* A trial that halts the kernel must not leak into the next one: after
   a stuck data-key flip panics a threshold-1 session, its next random
   trials equal the same indices on a fresh session, fingerprint
   included. *)
let test_panicked_trial_does_not_leak () =
  let config = { C.Config.full with C.Config.bruteforce_threshold = 1 } in
  let seed = 11L in
  let ses = FC.create_session ~config ~seed () in
  let panicked =
    FC.run_trial_in ses
      ~spec:(fun _sys _layout _spawned ->
        {
          Faultinj.Injector.trigger = Faultinj.Injector.Always;
          model =
            Faultinj.Injector.Key_flip
              { key = Sysreg.DB; high_half = false; bit = 7 };
          persistence = Faultinj.Injector.Stuck;
        })
      ()
  in
  Alcotest.(check string) "stuck data-key flip panics" "panicked"
    (FC.outcome_name panicked.FC.outcome);
  let line ses index =
    let tr = FC.run_random_trial_in ses ~fingerprint:true ~index () in
    L.entry_to_json
      (Faultinj.Replay.entry_of_trial
         ~fingerprint:(Option.get tr.FC.tr_fingerprint) tr.FC.tr_trial)
  in
  List.iter
    (fun index ->
      let after_panic = line ses index in
      Alcotest.(check string)
        (Printf.sprintf "trial %d after the panic" index)
        (line (FC.create_session ~config ~seed ()) index)
        after_panic)
    [ 0; 2 ]

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
    Alcotest.test_case "mmu restore: refill only when the tables moved" `Quick
      test_mmu_restore_refills_on_change;
    Alcotest.test_case "restore after a translation change, every tier" `Quick
      test_restore_after_translation_change;
    Alcotest.test_case "restore over unchanged tables keeps caches warm" `Quick
      test_restore_keeps_caches_warm;
    Alcotest.test_case "trial fingerprints only on request" `Quick
      test_fingerprint_on_request;
    Alcotest.test_case "a panicked trial does not leak into the next" `Quick
      test_panicked_trial_does_not_leak;
    QCheck_alcotest.to_alcotest prop_damaged_log_reads_total;
    Alcotest.test_case "a non-default shape records and replays" `Quick
      test_replay_non_default_shape;
  ]
