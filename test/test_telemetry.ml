(* PR 4: the telemetry subsystem. Counter-file invariants (per-class
   sums, same-seed reproducibility), event-trace determinism under
   run_smp, Chrome trace-event validation, and a QCheck property that
   attaching a sink never changes architectural state or cycle
   totals — observation must be pure. *)

open Aarch64
module C = Camouflage
module K = Kernel
module T = Telemetry
module J = Camo_util.Json

let user_entry sys ~rounds =
  let layout =
    K.System.map_user_program sys (Workloads.Smp.throughput_program ~rounds)
  in
  Asm.symbol layout "throughput"

(* Boot, run an 8-task SMP workload, hand back the system. *)
let smp_run ~seed ~cpus =
  let sys = K.System.boot ~seed ~cpus ~telemetry:true () in
  let entry = user_entry sys ~rounds:15 in
  let tasks = List.init 8 (fun _ -> K.System.spawn_user_task sys ~entry) in
  let stats = K.System.run_smp ~quantum:500 sys ~tasks in
  (sys, stats)

let hub sys =
  match K.System.telemetry sys with
  | Some h -> h
  | None -> Alcotest.fail "telemetry boot carries no hub"

(* --- counter invariants ------------------------------------------- *)

let test_class_sums_equal_retired () =
  let sys, _ = smp_run ~seed:7L ~cpus:4 in
  let h = hub sys in
  Array.iteri
    (fun cid snap ->
      let by_class = Array.fold_left Int64.add 0L snap.T.Counters.classes in
      Alcotest.(check int64)
        (Printf.sprintf "cpu%d: per-class counts sum to retired" cid)
        snap.T.Counters.retired by_class)
    (T.Hub.per_cpu h);
  let merged = T.Hub.counters h in
  Alcotest.(check bool) "work retired" true
    (Int64.compare merged.T.Counters.retired 0L > 0);
  Alcotest.(check bool) "cycles >= retired (every insn costs >= 1)" true
    (Int64.compare merged.T.Counters.cycles merged.T.Counters.retired >= 0)

let test_discrete_counters_move () =
  let sys, _ = smp_run ~seed:7L ~cpus:4 in
  let merged = T.Hub.counters (hub sys) in
  Alcotest.(check bool) "key installs observed" true
    (Int64.compare merged.T.Counters.key_installs 0L > 0);
  Alcotest.(check bool) "exception entries observed" true
    (Int64.compare merged.T.Counters.exception_entries 0L > 0);
  Alcotest.(check bool) "mmu walks observed" true
    (Int64.compare merged.T.Counters.mmu_walks 0L > 0);
  Alcotest.(check bool) "pauth signing observed" true
    (Int64.compare (T.Counters.pac_ops merged) 0L > 0);
  Alcotest.(check bool) "pauth authentication observed" true
    (Int64.compare (T.Counters.aut_ops merged) 0L > 0)

let test_same_seed_counters_identical () =
  let snap_of () =
    let sys, _ = smp_run ~seed:11L ~cpus:4 in
    (T.Hub.counters (hub sys), T.Hub.per_cpu (hub sys))
  in
  let a = snap_of () and b = snap_of () in
  Alcotest.(check bool) "same seed: identical counter files" true (a = b)

let test_diff_and_merge () =
  let c = T.Counters.create () in
  T.Counters.retire c ~cls:T.Counters.Alu ~cycles:3;
  T.Counters.retire c ~cls:T.Counters.Load ~cycles:2;
  let mid = T.Counters.snapshot c in
  T.Counters.retire c ~cls:T.Counters.Pac ~cycles:4;
  T.Counters.count_key_install c;
  let after = T.Counters.snapshot c in
  let d = T.Counters.diff ~after ~before:mid in
  Alcotest.(check int64) "diff retired" 1L d.T.Counters.retired;
  Alcotest.(check int64) "diff cycles" 4L d.T.Counters.cycles;
  Alcotest.(check int64) "diff key installs" 1L d.T.Counters.key_installs;
  let m = T.Counters.merge mid d in
  Alcotest.(check bool) "merge(before, diff) = after" true (m = after)

(* --- trace determinism and the event ring ------------------------- *)

let test_run_smp_trace_deterministic () =
  let events () =
    let sys, _ = smp_run ~seed:11L ~cpus:4 in
    T.Hub.events (hub sys)
  in
  let a = events () and b = events () in
  Alcotest.(check int) "same event count" (List.length a) (List.length b);
  Alcotest.(check bool) "same seed: byte-identical event streams" true (a = b);
  Alcotest.(check bool) "trace is non-trivial" true (List.length a > 50)

let test_trace_covers_event_kinds () =
  let sys, _ = smp_run ~seed:7L ~cpus:4 in
  let kinds =
    List.sort_uniq compare
      (List.map (fun e -> T.Event.kind e.T.Event.payload) (T.Hub.events (hub sys)))
  in
  List.iter
    (fun k ->
      Alcotest.(check bool) (Printf.sprintf "%s events present" k) true
        (List.mem k kinds))
    [ "syscall-enter"; "syscall-exit"; "context-switch"; "key-switch" ]

let test_ring_bounds () =
  let r = T.Ring.create ~depth:4 in
  for i = 1 to 10 do
    T.Ring.push r
      { T.Event.ts = Int64.of_int i; cpu = 0; payload = T.Event.Log { line = "x" } }
  done;
  Alcotest.(check int) "length capped at depth" 4 (List.length (T.Ring.to_list r));
  Alcotest.(check int) "pushed counts all" 10
    (T.Ring.dropped r + List.length (T.Ring.to_list r));
  Alcotest.(check int) "dropped = pushed - depth" 6 (T.Ring.dropped r);
  (match T.Ring.to_list r with
  | { T.Event.ts = 7L; _ } :: _ -> ()
  | e :: _ -> Alcotest.failf "oldest survivor has ts %Ld, want 7" e.T.Event.ts
  | [] -> Alcotest.fail "ring empty");
  Alcotest.check_raises "depth must be positive"
    (Invalid_argument "Ring.create: depth") (fun () ->
      ignore (T.Ring.create ~depth:0))

(* --- pure observation: telemetry never perturbs the machine ------- *)

let gen_insn =
  QCheck2.Gen.(
    let open Insn in
    let reg = map (fun n -> R n) (int_range 0 15) in
    let imm16 = int_range 0 0xffff in
    let imm12 = int_range 0 4095 in
    oneof
      [
        return Nop;
        map3 (fun r v s -> Movz (r, v, s)) reg imm16
          (map (fun s -> 16 * s) (int_range 0 3));
        map2 (fun a b -> Mov (a, b)) reg reg;
        map3 (fun a b v -> Add_imm (a, b, v)) reg reg imm12;
        map3 (fun a b v -> Sub_imm (a, b, v)) reg reg imm12;
        map3 (fun a b c -> Add_reg (a, b, c)) reg reg reg;
        map2 (fun k r -> Pac (k, r, SP)) (oneofl Sysreg.[ IA; IB ]) reg;
        map (fun r -> Xpac r) reg;
      ])

let gen_body = QCheck2.Gen.(list_size (int_range 1 40) gen_insn)

let run_body ~telemetry body =
  let cpu = Bare.machine ~seed:42L () in
  if telemetry then Cpu.attach_telemetry cpu (T.Sink.create ~cpu:0 ());
  let prog = Asm.create () in
  Asm.add_function prog ~name:"f" (List.map Asm.ins body @ [ Asm.ins Insn.Ret ]);
  let layout = Bare.load cpu prog in
  for idx = 0 to 15 do
    Cpu.set_reg cpu (Insn.R idx) (Int64.of_int ((idx * 7919) + 13))
  done;
  match Bare.call cpu layout "f" with
  | Cpu.Sentinel_return ->
      (List.init 16 (fun i -> Cpu.reg cpu (Insn.R i)), Cpu.cycles cpu)
  | other -> Alcotest.failf "probe run: %s" (Cpu.stop_to_string other)

let prop_telemetry_is_pure =
  QCheck2.Test.make
    ~name:"attaching telemetry never changes architectural state or cycles"
    ~count:100 gen_body (fun body ->
      run_body ~telemetry:false body = run_body ~telemetry:true body)

let test_boot_identical_with_telemetry () =
  let fingerprint ~telemetry =
    let sys = K.System.boot ~seed:7L ~cpus:4 ~telemetry () in
    let entry = user_entry sys ~rounds:15 in
    let tasks = List.init 8 (fun _ -> K.System.spawn_user_task sys ~entry) in
    let stats = K.System.run_smp ~quantum:500 sys ~tasks in
    ( List.map (fun (c, p, _) -> (c, p)) stats.K.System.smp_exits,
      stats.K.System.makespan,
      Array.to_list stats.K.System.per_cpu_cycles,
      K.System.console_output sys )
  in
  Alcotest.(check bool)
    "telemetry-enabled run is architecturally identical to disabled" true
    (fingerprint ~telemetry:false = fingerprint ~telemetry:true)

(* --- PMU sysregs -------------------------------------------------- *)

let test_pmu_regs_el0_readable () =
  List.iter
    (fun sr ->
      Alcotest.(check bool)
        (Sysreg.name sr ^ " is EL0-readable")
        true (Sysreg.el0_readable sr))
    Sysreg.
      [ PMCCNTR_EL0; PMICNTR_EL0; PMEVCNTR0_EL0; PMEVCNTR1_EL0; PMEVCNTR2_EL0 ];
  Alcotest.(check bool) "SCTLR stays privileged" false
    (Sysreg.el0_readable Sysreg.SCTLR_EL1);
  Alcotest.(check bool) "key halves stay privileged" false
    (Sysreg.el0_readable Sysreg.APIAKeyLo_EL1);
  Alcotest.(check bool) "PMU regs are not pauth keys" true
    (List.for_all (fun sr -> not (Sysreg.is_pauth_key sr))
       [ Sysreg.PMCCNTR_EL0; Sysreg.PMEVCNTR0_EL0 ])

let pmu_probe ~telemetry =
  let cpu = Bare.machine ~seed:42L () in
  if telemetry then Cpu.attach_telemetry cpu (T.Sink.create ~cpu:0 ());
  let prog = Asm.create () in
  Asm.add_function prog ~name:"probe"
    [
      Asm.ins (Insn.Pac (Sysreg.IA, Insn.R 0, Insn.SP));
      Asm.ins (Insn.Pac (Sysreg.IB, Insn.R 1, Insn.SP));
      Asm.ins (Insn.Aut (Sysreg.IA, Insn.R 0, Insn.SP));
      Asm.ins (Insn.Mrs (Insn.R 2, Sysreg.PMEVCNTR0_EL0));
      Asm.ins (Insn.Mrs (Insn.R 3, Sysreg.PMEVCNTR1_EL0));
      Asm.ins (Insn.Mrs (Insn.R 4, Sysreg.PMCCNTR_EL0));
      Asm.ins (Insn.Mrs (Insn.R 5, Sysreg.PMICNTR_EL0));
      Asm.ins Insn.Ret;
    ];
  let layout = Bare.load cpu prog in
  (match Bare.call cpu layout "probe" with
  | Cpu.Sentinel_return -> ()
  | other -> Alcotest.failf "pmu probe: %s" (Cpu.stop_to_string other));
  cpu

let test_pmu_mrs_reads_live_counters () =
  let cpu = pmu_probe ~telemetry:true in
  Alcotest.(check int64) "PMEVCNTR0 = pac ops so far" 2L (Cpu.reg cpu (Insn.R 2));
  Alcotest.(check int64) "PMEVCNTR1 = aut ops so far" 1L (Cpu.reg cpu (Insn.R 3));
  Alcotest.(check bool) "PMCCNTR tracks the cycle counter" true
    (Cpu.reg cpu (Insn.R 4) > 0L && Cpu.reg cpu (Insn.R 4) <= Cpu.cycles cpu);
  Alcotest.(check bool) "PMICNTR counts retirements" true
    (Cpu.reg cpu (Insn.R 5) >= 4L)

let test_pmu_mrs_reads_zero_without_sink () =
  let cpu = pmu_probe ~telemetry:false in
  Alcotest.(check int64) "PMEVCNTR0 reads 0 unmonitored" 0L (Cpu.reg cpu (Insn.R 2));
  Alcotest.(check int64) "PMEVCNTR1 reads 0 unmonitored" 0L (Cpu.reg cpu (Insn.R 3))

(* --- dump_state --------------------------------------------------- *)

(* Oops dumps are fingerprinted and logged, so the dump must be the
   architectural state alone: the same bytes whether a sink is attached
   (and has counted, spanned and queued events) or not. *)
let test_dump_state_sink_independent () =
  let cpu = pmu_probe ~telemetry:true in
  let observed = Cpu.dump_state cpu in
  Cpu.detach_telemetry cpu;
  Alcotest.(check string) "a sink adds nothing to the dump" (Cpu.dump_state cpu)
    observed

let test_dump_state_full_trace_default () =
  let cpu = Bare.machine ~seed:42L () in
  let prog = Asm.create () in
  Asm.add_function prog ~name:"f"
    (List.init 60 (fun _ -> Asm.ins Insn.Nop) @ [ Asm.ins Insn.Ret ]);
  let layout = Bare.load cpu prog in
  ignore (Bare.call cpu layout "f");
  let count_lines needle s =
    let n = ref 0 in
    String.iteri
      (fun i c ->
        if c = needle.[0] && i + String.length needle <= String.length s
           && String.sub s i (String.length needle) = needle
        then incr n)
      s;
    !n
  in
  let dump = Cpu.dump_state cpu in
  let limited = Cpu.dump_state ~trace_limit:8 cpu in
  Alcotest.(check int) "default dump shows the whole 32-entry ring" 32
    (count_lines "\n    " dump);
  Alcotest.(check int) "explicit limit still honoured" 8
    (count_lines "\n    " limited)

(* --- Chrome trace-event output ------------------------------------ *)

let test_chrome_serialization_validates () =
  let sys, _ = smp_run ~seed:7L ~cpus:4 in
  let doc = T.Chrome.serialize (hub sys) in
  (match T.Chrome.validate doc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "serialized trace rejected: %s" e);
  (match J.parse doc with
  | Ok (J.Obj kvs) -> (
      match List.assoc_opt "traceEvents" kvs with
      | Some (J.List evs) ->
          Alcotest.(check bool) "trace has events" true (List.length evs > 50)
      | _ -> Alcotest.fail "no traceEvents array")
  | Ok _ -> Alcotest.fail "top level is not an object"
  | Error e -> Alcotest.failf "unparsable: %s" e);
  let text = T.Chrome.text ~limit:20 (hub sys) in
  Alcotest.(check bool) "text dump mentions dropped prefix" true
    (String.length text > 0)

let test_chrome_validate_rejects_bad_traces () =
  let reject doc what =
    match T.Chrome.validate doc with
    | Ok () -> Alcotest.failf "accepted %s" what
    | Error _ -> ()
  in
  reject "{" "truncated JSON";
  reject {|{"traceEvents": 3}|} "non-array traceEvents";
  reject
    {|{"traceEvents": [{"name":"a","ph":"i","ts":5,"pid":0,"tid":0,"s":"t"},
                       {"name":"b","ph":"i","ts":4,"pid":0,"tid":0,"s":"t"}]}|}
    "non-monotone ts within a track";
  reject
    {|{"traceEvents": [{"ph":"i","ts":5,"pid":0,"tid":0}]}|}
    "event without a name";
  match
    T.Chrome.validate
      {|{"traceEvents": [{"name":"a","ph":"i","ts":4,"pid":0,"tid":1,"s":"t"},
                         {"name":"b","ph":"i","ts":2,"pid":0,"tid":2,"s":"t"}]}|}
  with
  | Ok () -> ()
  | Error e -> Alcotest.failf "distinct tracks wrongly coupled: %s" e

(* --- kernel integration ------------------------------------------- *)

let test_log_events_cycle_stamped () =
  let sys = K.System.boot ~seed:7L () in
  let events = K.System.log_events sys in
  Alcotest.(check bool) "boot produced log entries" true (List.length events > 0);
  let rec monotone = function
    | (a, _) :: ((b, _) :: _ as rest) ->
        Int64.compare a b <= 0 && monotone rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "log timestamps are monotone cycle counts" true
    (monotone events);
  Alcotest.(check bool) "timestamps are non-negative" true
    (List.for_all (fun (ts, _) -> Int64.compare ts 0L >= 0) events);
  Alcotest.(check (list string)) "log lines unchanged by stamping"
    (List.map snd events) (K.System.log sys)

(* Every number a caller names has its own handler's name: the table
   of names and the [sys_*] numbers agree. *)
let test_syscall_names () =
  let open K.Kbuild in
  List.iter
    (fun (nr, name) -> Alcotest.(check string) name name (syscall_name nr))
    [
      (sys_exit, "sys_exit"); (sys_getpid, "sys_getpid"); (sys_read, "sys_read");
      (sys_write, "sys_write"); (sys_open, "sys_open"); (sys_close, "sys_close");
      (sys_stat, "sys_stat"); (sys_fstat, "sys_fstat");
      (sys_notifier_register, "sys_notifier_register");
      (sys_notifier_call, "sys_notifier_call");
      (sys_pipe_write, "sys_pipe_write"); (sys_pipe_read, "sys_pipe_read");
      (sys_fork, "sys_fork"); (sys_vuln_read, "sys_vuln_read");
      (sys_vuln_write, "sys_vuln_write"); (sys_getuid, "sys_getuid");
      (sys_read_secure, "sys_read_secure"); (sys_socketpair, "sys_socketpair");
      (sys_poll, "sys_poll"); (sys_timer_set, "sys_timer_set");
    ];
  Alcotest.(check int) "one name per number" 20 syscall_count;
  Alcotest.(check string) "out of range" "sys_99" (syscall_name 99)

(* --- attribution -------------------------------------------------- *)

let test_attribution_accounts_for_overhead () =
  let rows = Workloads.Calls.attribute ~calls:2000 () in
  Alcotest.(check int) "one row per scheme" 4 (List.length rows);
  let baseline = List.hd rows in
  Alcotest.(check (float 1e-9)) "baseline adds nothing" 0.0
    baseline.Workloads.Calls.attr_added_per_call;
  List.iteri
    (fun i row ->
      if i > 0 then begin
        Alcotest.(check bool)
          (row.Workloads.Calls.attr_label ^ ": instrumentation adds cycles")
          true
          (Int64.compare row.Workloads.Calls.attr_added_cycles 0L > 0);
        Alcotest.(check bool)
          (Printf.sprintf "%s: >= 95%% of added cycles attributed (got %.1f%%)"
             row.Workloads.Calls.attr_label
             (100. *. row.Workloads.Calls.attr_fraction))
          true
          (row.Workloads.Calls.attr_fraction >= 0.95)
      end)
    rows;
  let camo = List.nth rows 3 in
  Alcotest.(check bool) "flat profile names the victim" true
    (List.exists
       (fun l -> l.T.Profile.line_symbol = "victim")
       camo.Workloads.Calls.attr_flat);
  Alcotest.(check bool) "folded stacks carry origins" true
    (String.length camo.Workloads.Calls.attr_folded > 0)

(* --- merge is a commutative monoid (PR 6 satellite) ----------------
   The fleet engine folds per-job counter files in index order and
   relies on any other fold order being equivalent; that is exactly the
   commutative-monoid law for [merge] with [zero] as identity. *)

let snapshot_gen =
  let open QCheck2.Gen in
  let i64 = map Int64.of_int (int_range 0 1_000_000) in
  map
    (fun (f, classes) ->
      {
        T.Counters.retired = f.(0);
        cycles = f.(1);
        classes;
        auth_failures = f.(2);
        key_installs = f.(3);
        exception_entries = f.(4);
        exception_returns = f.(5);
        mmu_walks = f.(6);
        ipis_sent = f.(7);
        ipis_received = f.(8);
      })
    (pair
       (array_size (return 9) i64)
       (array_size (return T.Counters.class_count) i64))

let prop_merge_monoid =
  QCheck2.Test.make ~name:"Counters.merge: commutative monoid with zero"
    ~count:200
    QCheck2.Gen.(triple snapshot_gen snapshot_gen snapshot_gen)
    (fun (a, b, c) ->
      T.Counters.merge a b = T.Counters.merge b a
      && T.Counters.merge (T.Counters.merge a b) c
         = T.Counters.merge a (T.Counters.merge b c)
      && T.Counters.merge T.Counters.zero a = a
      && T.Counters.merge a T.Counters.zero = a)

(* --- HDR histograms (PR 9 tentpole) --------------------------------
   The percentile contract: the histogram reports the lower bound of
   exactly the bucket holding the rank-th smallest sample, which bounds
   the true sorted-sample percentile within one sub-bucket (1/32
   relative error). Merge must be the same commutative monoid the fleet
   fold relies on for Counters. *)

let sample_gen =
  QCheck2.Gen.(
    list_size (int_range 1 300)
      (oneof [ int_range 0 40; int_range 0 100_000; int_range 0 200_000_000 ]))

let hist_of values =
  let h = T.Hist.create () in
  List.iter (fun v -> T.Hist.record h (Int64.of_int v)) values;
  h

let exact_percentile sorted q =
  let n = List.length sorted in
  let rank = max 1 (min n (int_of_float (ceil (q *. float_of_int n)))) in
  List.nth sorted (rank - 1)

let prop_hist_percentile_accuracy =
  QCheck2.Test.make
    ~name:"Hist percentiles: exact bucket of the sorted-sample rank" ~count:200
    sample_gen
    (fun values ->
      let h = hist_of values in
      let sorted = List.sort compare values in
      List.for_all
        (fun q ->
          let exact = exact_percentile sorted q in
          let p = T.Hist.percentile h q in
          (* the reported value is the lower bound of the exact
             percentile's own bucket... *)
          p = T.Hist.bucket_low (T.Hist.index_of exact)
          (* ...so it never exceeds the exact value and trails it by
             less than one sub-bucket (width <= low/32, or 1 below 32) *)
          && Int64.compare p (Int64.of_int exact) <= 0
          && Int64.compare (Int64.of_int exact)
               (Int64.add p (Int64.add (Int64.div p 32L) 1L))
             < 0)
        [ 0.5; 0.9; 0.99; 0.999 ])

let prop_hist_merge_monoid =
  QCheck2.Test.make ~name:"Hist.merge: commutative monoid with empty"
    ~count:200
    QCheck2.Gen.(triple sample_gen sample_gen sample_gen)
    (fun (a, b, c) ->
      let ha = hist_of a and hb = hist_of b and hc = hist_of c in
      T.Hist.equal (T.Hist.merge ha hb) (T.Hist.merge hb ha)
      && T.Hist.equal
           (T.Hist.merge (T.Hist.merge ha hb) hc)
           (T.Hist.merge ha (T.Hist.merge hb hc))
      && T.Hist.equal (T.Hist.merge T.Hist.empty ha) ha
      && T.Hist.equal (T.Hist.merge ha T.Hist.empty) ha
      && T.Hist.count (T.Hist.merge ha hb)
         = Int64.add (T.Hist.count ha) (T.Hist.count hb)
      && T.Hist.sum (T.Hist.merge ha hb)
         = Int64.add (T.Hist.sum ha) (T.Hist.sum hb))

let test_hist_empty_edges () =
  let h = T.Hist.create () in
  Alcotest.(check bool) "fresh histogram is empty" true (T.Hist.is_empty h);
  Alcotest.(check int64) "count 0" 0L (T.Hist.count h);
  Alcotest.(check int64) "empty percentile is 0" 0L (T.Hist.p99 h);
  Alcotest.(check int64) "empty min is 0" 0L (T.Hist.min_value h);
  Alcotest.(check int64) "empty max is 0" 0L (T.Hist.max_value h);
  Alcotest.(check bool) "empty equals the identity" true
    (T.Hist.equal h T.Hist.empty);
  Alcotest.(check bool) "merge of empties stays empty" true
    (T.Hist.is_empty (T.Hist.merge h T.Hist.empty));
  T.Hist.record h (-5L);
  Alcotest.(check int64) "negative samples clamp to 0" 0L (T.Hist.min_value h);
  Alcotest.(check int64) "clamped sample still counts" 1L (T.Hist.count h);
  T.Hist.record h 1_000_000_000_000L;
  Alcotest.(check int64) "huge values keep an exact max" 1_000_000_000_000L
    (T.Hist.max_value h);
  match J.parse (T.Hist.to_json h) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "to_json unparsable: %s" e

(* --- span derivation ----------------------------------------------- *)

let ev ts cpu payload = { T.Event.ts; cpu; payload }

let test_span_pairing () =
  let events =
    [
      ev 100L 0 (T.Event.Syscall_enter { nr = 1; name = "sys_a"; pid = 7 });
      (* the same syscall from another pid on another core: its own key *)
      ev 110L 1 (T.Event.Syscall_enter { nr = 1; name = "sys_a"; pid = 8 });
      ev 150L 0 (T.Event.Syscall_exit { nr = 1; name = "sys_a"; pid = 7; result = 0L });
      ev 180L 1 (T.Event.Syscall_exit { nr = 1; name = "sys_a"; pid = 8; result = 0L });
      ev 200L 0 (T.Event.Context_switch { from_pid = 7; to_pid = 9 });
      ev 224L 0 (T.Event.Switch_done { from_pid = 7; to_pid = 9 });
      (* unmatched begin markers: no span *)
      ev 300L 1 (T.Event.Syscall_enter { nr = 2; name = "sys_b"; pid = 8 });
      ev 310L 1 (T.Event.Context_switch { from_pid = 8; to_pid = 3 });
    ]
  in
  let spans = T.Span.of_events events in
  let durs k =
    List.filter_map
      (fun s -> if s.T.Span.sp_kind = k then Some s.T.Span.sp_dur else None)
      spans
  in
  Alcotest.(check (list int64)) "syscall durations, end order" [ 50L; 70L ]
    (durs T.Span.Syscall);
  Alcotest.(check (list int64)) "switch duration" [ 24L ]
    (durs T.Span.Context_switch);
  Alcotest.(check int) "unmatched begins produce no span" 3 (List.length spans)

let test_span_ipi_cross_clock () =
  (* the receive's core-local clock is BEHIND the sender's: the span
     must live on the sender's clock and never go negative *)
  let events =
    [
      ev 1000L 0 (T.Event.Ipi_send { dst = 1; kind = "reschedule" });
      ev 40L 1 (T.Event.Ipi_receive { srcs = [ 0 ]; kind = "reschedule" });
      ev 1100L 0 (T.Event.Ipi_send { dst = 1; kind = "reschedule" });
      ev 1150L 1 (T.Event.Ipi_receive { srcs = [ 0 ]; kind = "reschedule" });
    ]
  in
  let spans = T.Span.of_events events in
  let ipis = List.filter (fun s -> s.T.Span.sp_kind = T.Span.Ipi) spans in
  Alcotest.(check int) "early receive cannot close a later send" 1
    (List.length ipis);
  List.iter
    (fun s ->
      Alcotest.(check bool) "non-negative duration" true
        (Int64.compare s.T.Span.sp_dur 0L >= 0);
      Alcotest.(check int) "span lives on the sender's core" 0 s.T.Span.sp_cpu)
    ipis

let test_span_histograms_deterministic () =
  let hists () =
    let sys, _ = smp_run ~seed:11L ~cpus:4 in
    T.Hub.histograms (hub sys)
  in
  let a = hists () and b = hists () in
  List.iter2
    (fun (ka, ha) (kb, hb) ->
      Alcotest.(check string) "kind order fixed" (T.Span.kind_name ka)
        (T.Span.kind_name kb);
      Alcotest.(check bool)
        (T.Span.kind_name ka ^ ": same seed, equal histograms")
        true (T.Hist.equal ha hb))
    a b;
  Alcotest.(check string) "same seed: byte-identical histogram JSON"
    (T.Span.histograms_to_json a)
    (T.Span.histograms_to_json b);
  let syscalls = List.assoc T.Span.Syscall a in
  Alcotest.(check bool) "workload produced syscall spans" true
    (Int64.compare (T.Hist.count syscalls) 0L > 0);
  let switches = List.assoc T.Span.Context_switch a in
  Alcotest.(check bool) "workload produced switch spans" true
    (Int64.compare (T.Hist.count switches) 0L > 0)

let test_chrome_has_duration_events () =
  let sys, _ = smp_run ~seed:7L ~cpus:4 in
  let doc = T.Chrome.serialize (hub sys) in
  (match T.Chrome.validate doc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "trace with X events rejected: %s" e);
  match J.parse doc with
  | Ok (J.Obj kvs) -> (
      match List.assoc_opt "traceEvents" kvs with
      | Some (J.List evs) ->
          let durations =
            List.filter
              (fun e ->
                match J.member "ph" e with
                | Some (J.Str "X") -> true
                | _ -> false)
              evs
          in
          Alcotest.(check bool) "trace carries X duration events" true
            (List.length durations > 0);
          List.iter
            (fun e ->
              match J.member "dur" e with
              | Some (J.Int d) -> Alcotest.(check bool) "dur >= 0" true (d >= 0L)
              | _ -> Alcotest.fail "X event without dur")
            durations
      | _ -> Alcotest.fail "no traceEvents array")
  | _ -> Alcotest.fail "unparsable trace"

(* --- validator: position-carrying rejections ----------------------- *)

let test_chrome_validate_positions () =
  let reject_with doc what needle =
    match T.Chrome.validate doc with
    | Ok () -> Alcotest.failf "accepted %s" what
    | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: error %S names a position" what e)
          true
          (let has s sub =
             let n = String.length sub in
             let rec go i =
               i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
             in
             go 0
           in
           has e needle && has e "line ")
  in
  reject_with
    {|{"traceEvents": [{"name":"a","ph":"X","ts":5,"dur":-2,"pid":0,"tid":0}]}|}
    "negative dur" "negative dur";
  reject_with
    {|{"traceEvents": [{"name":"a","ph":"i","ts":5,"pid":0,"tid":0,"s":"t"},
                       {"name":"b","ph":"i","ts":4,"pid":0,"tid":0,"s":"t"}]}|}
    "non-monotone ts" "before";
  match J.parse_located "{\"a\": tru}" with
  | Ok _ -> Alcotest.fail "parser accepted a bad literal"
  | Error e ->
      Alcotest.(check bool) "parse error carries line/column" true
        (String.length e > 0
        &&
        let has sub =
          let n = String.length sub in
          let rec go i =
            i + n <= String.length e && (String.sub e i n = sub || go (i + 1))
          in
          go 0
        in
        has "line 1" && has "column")

(* --- one pairing pass ---------------------------------------------- *)

(* Two begins of one key, both pending before either end: each end
   closes the oldest pending begin. *)
let test_span_fifo_one_key () =
  let enter ts = ev ts 0 (T.Event.Syscall_enter { nr = 1; name = "sys_a"; pid = 7 }) in
  let exit_ ts =
    ev ts 0 (T.Event.Syscall_exit { nr = 1; name = "sys_a"; pid = 7; result = 0L })
  in
  let spans = T.Span.of_events [ enter 100L; enter 110L; exit_ 150L; exit_ 180L ] in
  Alcotest.(check (list (pair int64 int64))) "first in, first out (start, dur)"
    [ (100L, 50L); (110L, 70L) ]
    (List.map (fun s -> (s.T.Span.sp_start, s.T.Span.sp_dur)) spans)

(* Every non-metadata event of a serialized trace as
   (ph, cat, pid, tid, ts, dur), dur 0 for instants. *)
let chrome_events doc =
  match J.parse doc with
  | Ok v -> (
      match J.member "traceEvents" v with
      | Some (J.List evs) ->
          List.filter_map
            (fun e ->
              let str k = Option.bind (J.member k e) J.to_string in
              let int k = Option.bind (J.member k e) J.to_int64 in
              match str "ph" with
              | Some "M" -> None
              | Some ph ->
                  Some
                    ( ph,
                      Option.value ~default:"" (str "cat"),
                      Int64.to_int (Option.get (int "pid")),
                      Int64.to_int (Option.get (int "tid")),
                      Option.get (int "ts"),
                      Option.value ~default:0L (int "dur") )
              | None -> Alcotest.fail "event without ph")
            evs
      | _ -> Alcotest.fail "no traceEvents array")
  | Error e -> Alcotest.failf "unparsable trace: %s" e

(* The kernel-key window is a core's: on one core, pid 3's "kernel"
   key switch and pid 4's "user" one make one X event on the core
   track, but a task track pairs only its own task's switches, so each
   task track keeps its switch as an instant. *)
let test_chrome_key_window_per_task () =
  let h = T.Hub.create ~cpus:1 () in
  let s = T.Hub.sink h 0 in
  T.Sink.emit s ~ts:10L (T.Event.Key_switch { domain = "kernel"; pid = 3 });
  T.Sink.emit s ~ts:30L (T.Event.Key_switch { domain = "user"; pid = 4 });
  let doc = T.Chrome.serialize h in
  (match T.Chrome.validate doc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "trace rejected: %s" e);
  let on pid tid =
    List.filter_map
      (fun (ph, cat, p, t, ts, dur) ->
        if p = pid && t = tid then Some (ph, cat, ts, dur) else None)
      (chrome_events doc)
  in
  let row = Alcotest.(list (pair (pair string string) (pair int64 int64))) in
  let rows = List.map (fun (ph, cat, ts, dur) -> ((ph, cat), (ts, dur))) in
  Alcotest.check row "core track: one key-domain span"
    [ (("X", "key-domain"), (10L, 20L)) ]
    (rows (on 0 0));
  Alcotest.check row "pid 3's track: an instant"
    [ (("i", "key-switch"), (10L, 0L)) ]
    (rows (on 1 3));
  Alcotest.check row "pid 4's track: an instant"
    [ (("i", "key-switch"), (30L, 0L)) ]
    (rows (on 1 4))

(* test_smp's load-balancing run under telemetry, at the default
   balance interval: the doorbell IPI is an X event on the sender's
   core track, one per IPI span. *)
let balance_run () =
  let sys = K.System.boot ~seed:13L ~cpus:2 ~telemetry:true () in
  let prog = Asm.create () in
  let loop name label count =
    Asm.add_function prog ~name
      [
        Asm.ins (Insn.Movz (Insn.R 20, count, 0));
        Asm.label label;
        Asm.ins (Insn.Sub_imm (Insn.R 20, Insn.R 20, 1));
        Asm.cbnz_to (Insn.R 20) label;
        Asm.ins (Insn.Movz (Insn.R 0, 0, 0));
        Asm.ins (Insn.Svc K.Kbuild.sys_exit);
      ]
  in
  loop "long" "lwork" 6000;
  loop "short" "swork" 20;
  let layout = K.System.map_user_program sys prog in
  let long = Asm.symbol layout "long" and short = Asm.symbol layout "short" in
  let tasks =
    List.init 6 (fun idx ->
        K.System.spawn_user_task sys ~entry:(if idx mod 2 = 0 then long else short))
  in
  ignore (K.System.run_smp ~quantum:400 sys ~tasks);
  hub sys

let test_chrome_ipi_span_on_sender () =
  let h = balance_run () in
  let ipis =
    List.filter
      (fun s -> s.T.Span.sp_kind = T.Span.Ipi)
      (T.Span.of_events (T.Hub.events h))
  in
  Alcotest.(check bool) "the balancer sent an IPI that was received" true
    (ipis <> []);
  let doc = T.Chrome.serialize h in
  (match T.Chrome.validate doc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "trace rejected: %s" e);
  let drawn =
    List.filter_map
      (fun (ph, cat, pid, tid, ts, dur) ->
        if ph = "X" && cat = "ipi" && pid = 0 then Some (tid, (ts, dur)) else None)
      (chrome_events doc)
  in
  Alcotest.(check (list (pair int (pair int64 int64))))
    "one X event per IPI span, on the sender's core track"
    (List.map (fun s -> (s.T.Span.sp_cpu, (s.T.Span.sp_start, s.T.Span.sp_dur))) ipis)
    drawn;
  Alcotest.(check string) "document bytes" "a9ffb4b6725ca7256452da5809572760"
    (Digest.to_hex (Digest.string doc))

(* The bytes of the suite's 4-core seed-7 trace and of a 16-trial
   campaign's fleet lanes and merged histograms. These digests and the
   one in test_chrome_ipi_span_on_sender were computed before Chrome
   lost its own begin/end matcher; a deliberate change to the trace or
   histogram format re-pins all three. *)
let test_chrome_and_hist_bytes_pinned () =
  let sys, _ = smp_run ~seed:7L ~cpus:4 in
  Alcotest.(check string) "4-core seed-7 trace" "6e3a73e9d8ddaf0321d6e6f027864275"
    (Digest.to_hex (Digest.string (T.Chrome.serialize (hub sys))));
  let result =
    Option.get (Fleet.Campaign.run ~telemetry:true ~lanes:4 ~seed:7L ~trials:16 ())
  in
  let t = Option.get result.Fleet.Campaign.telemetry in
  Alcotest.(check string) "16-trial lanes and histograms" "6fd024abb2ef9645832e1a33f1495493"
    (Digest.to_hex
       (Digest.string
          (T.Chrome.serialize_lanes t.Fleet.Campaign.lanes
          ^ T.Span.histograms_to_json t.Fleet.Campaign.hists)))

let suite =
  [
    Alcotest.test_case "per-class counts sum to retired" `Quick
      test_class_sums_equal_retired;
    Alcotest.test_case "discrete event counters move" `Quick
      test_discrete_counters_move;
    Alcotest.test_case "same seed: identical counters" `Quick
      test_same_seed_counters_identical;
    Alcotest.test_case "snapshot diff and merge" `Quick test_diff_and_merge;
    QCheck_alcotest.to_alcotest prop_merge_monoid;
    Alcotest.test_case "run_smp trace is deterministic" `Quick
      test_run_smp_trace_deterministic;
    Alcotest.test_case "trace covers the event taxonomy" `Quick
      test_trace_covers_event_kinds;
    Alcotest.test_case "event ring is bounded and counts drops" `Quick
      test_ring_bounds;
    QCheck_alcotest.to_alcotest prop_telemetry_is_pure;
    Alcotest.test_case "telemetry boot is architecturally identical" `Quick
      test_boot_identical_with_telemetry;
    Alcotest.test_case "PMU sysregs are EL0-readable" `Quick
      test_pmu_regs_el0_readable;
    Alcotest.test_case "MRS reads live PMU counters" `Quick
      test_pmu_mrs_reads_live_counters;
    Alcotest.test_case "PMU counters read 0 unmonitored" `Quick
      test_pmu_mrs_reads_zero_without_sink;
    Alcotest.test_case "dump_state ignores the sink" `Quick
      test_dump_state_sink_independent;
    Alcotest.test_case "dump_state defaults to the full trace ring" `Quick
      test_dump_state_full_trace_default;
    Alcotest.test_case "Chrome trace serializes and validates" `Quick
      test_chrome_serialization_validates;
    Alcotest.test_case "Chrome validator rejects malformed traces" `Quick
      test_chrome_validate_rejects_bad_traces;
    Alcotest.test_case "kernel log entries are cycle-stamped" `Quick
      test_log_events_cycle_stamped;
    Alcotest.test_case "syscall numbers have names" `Quick test_syscall_names;
    Alcotest.test_case "profiler attributes the CFI overhead" `Quick
      test_attribution_accounts_for_overhead;
    QCheck_alcotest.to_alcotest prop_hist_percentile_accuracy;
    QCheck_alcotest.to_alcotest prop_hist_merge_monoid;
    Alcotest.test_case "Hist: empty and clamping edge cases" `Quick
      test_hist_empty_edges;
    Alcotest.test_case "Span: FIFO pairing per (core, key)" `Quick
      test_span_pairing;
    Alcotest.test_case "Span: IPIs cross clock domains safely" `Quick
      test_span_ipi_cross_clock;
    Alcotest.test_case "Span histograms are deterministic" `Quick
      test_span_histograms_deterministic;
    Alcotest.test_case "Chrome trace carries X duration events" `Quick
      test_chrome_has_duration_events;
    Alcotest.test_case "validator errors carry positions" `Quick
      test_chrome_validate_positions;
    Alcotest.test_case "Span: two begins of one key close FIFO" `Quick
      test_span_fifo_one_key;
    Alcotest.test_case "Chrome: a task track pairs its own key switches" `Quick
      test_chrome_key_window_per_task;
    Alcotest.test_case "Chrome: an IPI span lands on the sender's track" `Quick
      test_chrome_ipi_span_on_sender;
    Alcotest.test_case "Chrome and histogram bytes are pinned" `Quick
      test_chrome_and_hist_bytes_pinned;
  ]
