(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (E1-E10 of DESIGN.md) plus the ablations (A1-A6).

   Usage:
     main.exe            run every experiment
     main.exe e2 e3      run selected experiments
     main.exe e9         SMP syscall-throughput scaling (simulated cores)

   An unknown experiment name is refused before anything runs (exit 2).
   Any invocation additionally accepts [--json FILE]: the selected
   experiments' metrics are also written to FILE as an array of
   {"experiment", "metric", "value", "unit"} rows. Every row is a
   seeded model output that repeats exactly, except the wall-clock rows
   of [sim] and [snapshot]; the E1-E10 rows are pinned byte for byte in
   ci/paper-baseline.json. Host speed is measured by hostbench/. *)

open Aarch64
module C = Camouflage
module K = Kernel

let header title =
  Printf.printf "\n=== %s ===\n" title

let row fmt = Printf.printf fmt

(* --- machine-readable metrics (--json): the numbers a table prints
   are also collected as {experiment, metric, value, unit} rows, so CI
   can archive and diff runs. *)

let metrics : (string * string * float * string) list ref = ref []

let metric ~experiment ~name ~value ~unit_ =
  metrics := (experiment, name, value, unit_) :: !metrics

(* "Camouflage (32b SP + 32b fn addr)" -> "camouflage-32b-sp-32b-fn-addr" *)
let slug s =
  let b = Buffer.create (String.length s) in
  let pending = ref false in
  String.iter
    (fun c ->
      match Char.lowercase_ascii c with
      | ('a' .. 'z' | '0' .. '9') as c ->
          if !pending && Buffer.length b > 0 then Buffer.add_char b '-';
          pending := false;
          Buffer.add_char b c
      | _ -> pending := true)
    s;
  Buffer.contents b

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.10g" v

let write_metrics path =
  let oc = open_out path in
  let str = Camo_util.Json.escape in
  output_string oc "[\n";
  List.iteri
    (fun i (experiment, name, value, unit_) ->
      if i > 0 then output_string oc ",\n";
      Printf.fprintf oc
        "  {\"experiment\": \"%s\", \"metric\": \"%s\", \"value\": %s, \"unit\": \"%s\"}"
        (str experiment) (str name) (json_number value) (str unit_))
    (List.rev !metrics);
  output_string oc "\n]\n";
  close_out oc;
  Printf.printf "\nwrote %d metric rows to %s\n" (List.length !metrics) path

(* Horizontal bar for the figure renderings: one '#' per [unit]. *)
let bar ?(width = 44) ~max_value value =
  let n =
    if max_value <= 0.0 then 0
    else int_of_float (Float.round (value /. max_value *. float_of_int width))
  in
  String.make (max 0 (min width n)) '#'

(* E1: key-switch cost (Section 6.1.1: about 9 cycles per key). *)
let e1 () =
  header "E1  Key management: cycles per 128-bit key switch (paper: ~9 cycles/key)";
  let runs = 20 in
  let sys = K.System.boot ~config:C.Config.full ~seed:5L () in
  let cpu = K.System.cpu sys in
  let keys = List.length (C.Keys.keys_in_use C.Config.full.C.Config.mode) in
  let samples =
    List.init runs (fun _ ->
        let before = Cpu.cycles cpu in
        K.System.install_kernel_keys sys;
        Int64.to_float (Int64.sub (Cpu.cycles cpu) before) /. float_of_int keys)
  in
  let mean = Camo_util.Stats.mean samples and std = Camo_util.Stats.stddev samples in
  row "kernel key install (XOM setter): %.2f cycles/key (std %.3f, n=%d, %d keys)\n" mean
    std runs keys;
  let rsamples =
    List.init runs (fun _ ->
        let before = Cpu.cycles cpu in
        K.System.restore_user_keys sys;
        Int64.to_float (Int64.sub (Cpu.cycles cpu) before) /. 5.0)
  in
  row "user key restore (from thread_struct): %.2f cycles/key (std %.3f, 5 keys)\n"
    (Camo_util.Stats.mean rsamples)
    (Camo_util.Stats.stddev rsamples);
  row "paper reports 9 cycles/key (avg 8.88, variance .004) on the PA-analogue A53\n";
  metric ~experiment:"e1" ~name:"kernel-key-install" ~value:mean
    ~unit_:"cycles/key";
  metric ~experiment:"e1" ~name:"user-key-restore"
    ~value:(Camo_util.Stats.mean rsamples)
    ~unit_:"cycles/key"

(* E2: Figure 2 — function call overhead. *)
let e2 () =
  header "E2  Figure 2: function-call overhead per backward-edge scheme";
  let results = Workloads.Calls.measure ~calls:10_000 () in
  row "%-36s %14s %12s %14s\n" "scheme" "cycles/call" "ns/call" "overhead(ns)";
  let clock = Cost.cortex_a53.Cost.clock_hz in
  let max_ns =
    List.fold_left (fun acc m -> max acc m.Workloads.Calls.ns_per_call) 0.0 results
  in
  List.iter
    (fun m ->
      row "%-36s %14.2f %12.2f %14.2f  %s\n" m.Workloads.Calls.scheme_label
        m.Workloads.Calls.cycles_per_call m.Workloads.Calls.ns_per_call
        (m.Workloads.Calls.overhead_cycles /. clock *. 1e9)
        (bar ~width:30 ~max_value:max_ns m.Workloads.Calls.ns_per_call);
      metric ~experiment:"e2"
        ~name:(slug m.Workloads.Calls.scheme_label ^ "-cycles-per-call")
        ~value:m.Workloads.Calls.cycles_per_call ~unit_:"cycles";
      metric ~experiment:"e2"
        ~name:(slug m.Workloads.Calls.scheme_label ^ "-overhead")
        ~value:m.Workloads.Calls.overhead_cycles ~unit_:"cycles")
    results;
  row "expected shape: baseline < SP-only (Clang) < Camouflage < PARTS\n";

  (* Attribution (PR 4): where do the added cycles land? The telemetry
     profiler buckets every retired cycle of the same probe by
     instrumentation origin. *)
  row "\ncycle attribution (telemetry profiler, per-call figures):\n";
  let attrs = Workloads.Calls.attribute ~calls:10_000 () in
  row "%-36s %12s %10s" "scheme" "cycles/call" "added";
  List.iter
    (fun o -> row " %13s" (Telemetry.Profile.origin_name o))
    Telemetry.Profile.all_origins;
  row " %10s\n" "attributed";
  List.iter
    (fun a ->
      row "%-36s %12.2f %10.2f" a.Workloads.Calls.attr_label
        a.Workloads.Calls.attr_cycles_per_call
        a.Workloads.Calls.attr_added_per_call;
      List.iter
        (fun o ->
          let c =
            match List.assoc_opt o a.Workloads.Calls.attr_by_origin with
            | Some c -> c
            | None -> 0L
          in
          row " %13.2f" (Int64.to_float c /. 10_000.))
        Telemetry.Profile.all_origins;
      row " %9.1f%%\n" (100. *. a.Workloads.Calls.attr_fraction);
      metric ~experiment:"e2"
        ~name:(slug a.Workloads.Calls.attr_label ^ "-attributed-fraction")
        ~value:a.Workloads.Calls.attr_fraction ~unit_:"ratio")
    attrs;
  row "every added cycle should carry a named origin (sign/auth/modifier/key)\n";

  (* Span latency (PR 9): the same schemes measured end-to-end instead
     of per-call — syscall and context-switch latency distributions
     from the telemetry span histograms of an SMP syscall workload.
     Percentiles are HDR bucket lower bounds (exact to 1/32). *)
  row "\nspan latency per scheme (8-task SMP syscall workload, 2 cores; cycles):\n";
  row "%-16s %10s %8s %8s %12s %8s %8s\n" "scheme" "syscalls" "p50" "p99"
    "ctx-switch" "p50" "p99";
  List.iter
    (fun (name, config) ->
      let sys = K.System.boot ~config ~seed:11L ~cpus:2 ~telemetry:true () in
      let layout =
        K.System.map_user_program sys
          (Workloads.Smp.throughput_program ~rounds:20)
      in
      let entry = Asm.symbol layout "throughput" in
      let tasks = List.init 8 (fun _ -> K.System.spawn_user_task sys ~entry) in
      let (_ : K.System.smp_stats) = K.System.run_smp ~quantum:500 sys ~tasks in
      let hub =
        match K.System.telemetry sys with
        | Some h -> h
        | None -> failwith "telemetry boot carries no hub"
      in
      let hists = Telemetry.Hub.histograms hub in
      let h kind =
        match List.assoc_opt kind hists with
        | Some h -> h
        | None -> Telemetry.Hist.create ()
      in
      let sy = h Telemetry.Span.Syscall in
      let cs = h Telemetry.Span.Context_switch in
      row "%-16s %10Ld %8Ld %8Ld %12Ld %8Ld %8Ld\n" name
        (Telemetry.Hist.count sy) (Telemetry.Hist.p50 sy)
        (Telemetry.Hist.p99 sy) (Telemetry.Hist.count cs)
        (Telemetry.Hist.p50 cs) (Telemetry.Hist.p99 cs);
      List.iter
        (fun (metric_name, v) ->
          metric ~experiment:"e2"
            ~name:(slug name ^ "-" ^ metric_name)
            ~value:(Int64.to_float v) ~unit_:"cycles")
        [
          ("syscall-p50", Telemetry.Hist.p50 sy);
          ("syscall-p99", Telemetry.Hist.p99 sy);
          ("context-switch-p50", Telemetry.Hist.p50 cs);
          ("context-switch-p99", Telemetry.Hist.p99 cs);
        ])
    Workloads.Lmbench.configs;
  row "the per-scheme ordering must match the per-call table above\n"

(* E3: Figure 3 — lmbench relative latencies. *)
let e3 () =
  header "E3  Figure 3: lmbench-style syscall latencies (relative to no protection)";
  let results = Workloads.Lmbench.run () in
  let config_names = List.map fst Workloads.Lmbench.configs in
  row "%-20s" "probe";
  List.iter (fun n -> row " %14s" (n ^ " cyc")) config_names;
  List.iter (fun n -> row " %10s" (n ^ " rel")) config_names;
  row "\n";
  let max_rel =
    List.fold_left (fun acc r -> max acc r.Workloads.Lmbench.relative.(0)) 1.0 results
  in
  List.iter
    (fun r ->
      row "%-20s" r.Workloads.Lmbench.name;
      Array.iter (fun c -> row " %14.1f" c) r.Workloads.Lmbench.cycles;
      Array.iter (fun x -> row " %10.3f" x) r.Workloads.Lmbench.relative;
      row "  %s" (bar ~width:24 ~max_value:max_rel r.Workloads.Lmbench.relative.(0));
      row "\n";
      List.iteri
        (fun idx cfg ->
          metric ~experiment:"e3"
            ~name:(slug r.Workloads.Lmbench.name ^ "-" ^ slug cfg ^ "-relative")
            ~value:r.Workloads.Lmbench.relative.(idx)
            ~unit_:"ratio")
        config_names)
    results;
  List.iteri
    (fun idx cfg ->
      metric ~experiment:"e3"
        ~name:("geomean-" ^ slug cfg)
        ~value:(Workloads.Lmbench.geometric_mean_overhead results ~config_index:idx)
        ~unit_:"ratio")
    config_names;
  row "%-20s" "geometric mean";
  row " %14s %14s %14s" "" "" "";
  List.iteri
    (fun idx _ ->
      row " %10.3f" (Workloads.Lmbench.geometric_mean_overhead results ~config_index:idx))
    config_names;
  row "\n";
  row "paper: double-digit percentual overhead at syscall level for full protection\n"

(* E4: Figure 4 — user-space workloads. *)
let e4 () =
  header "E4  Figure 4: user-space workloads (relative to no protection)";
  let results = Workloads.Userspace.run () in
  let config_names = List.map fst Workloads.Lmbench.configs in
  row "%-30s" "workload";
  List.iter (fun n -> row " %10s" (n ^ " rel")) config_names;
  row "\n";
  let max_rel =
    List.fold_left (fun acc r -> max acc r.Workloads.Userspace.relative.(0)) 1.0 results
  in
  List.iter
    (fun r ->
      row "%-30s" r.Workloads.Userspace.name;
      Array.iter (fun x -> row " %10.4f" x) r.Workloads.Userspace.relative;
      row "  %s" (bar ~width:24 ~max_value:max_rel r.Workloads.Userspace.relative.(0));
      row "\n";
      List.iteri
        (fun idx cfg ->
          metric ~experiment:"e4"
            ~name:(slug r.Workloads.Userspace.name ^ "-" ^ slug cfg ^ "-relative")
            ~value:r.Workloads.Userspace.relative.(idx)
            ~unit_:"ratio")
        config_names)
    results;
  row "%-30s" "geometric mean";
  List.iteri
    (fun idx _ ->
      row " %10.4f" (Workloads.Userspace.geometric_mean_overhead results ~config_index:idx))
    config_names;
  row "\n";
  let full_geo = Workloads.Userspace.geometric_mean_overhead results ~config_index:0 in
  row "paper: geometric-mean overhead below 4%%; measured: %.2f%%\n"
    ((full_geo -. 1.0) *. 100.0);
  List.iteri
    (fun idx cfg ->
      metric ~experiment:"e4"
        ~name:("geomean-" ^ slug cfg)
        ~value:(Workloads.Userspace.geometric_mean_overhead results ~config_index:idx)
        ~unit_:"ratio")
    config_names

(* E5: the Coccinelle census of Section 5.3. *)
let e5 () =
  header "E5  Semantic search census (Section 5.3, Linux 5.2 shape)";
  let corpus = Sempatch.Corpus.generate ~seed:2026L () in
  let census = Sempatch.Analysis.run corpus in
  row "run-time-assigned function-pointer members: %4d   (paper: 1285)\n"
    census.Sempatch.Analysis.member_count;
  row "containing compound types:                   %4d   (paper:  504)\n"
    census.Sempatch.Analysis.type_count;
  row "types with more than one pointer:            %4d   (paper:  229)\n"
    census.Sempatch.Analysis.multi_member_type_count;
  row "-> convertible to read-only ops structures:  %4d\n"
    census.Sempatch.Analysis.ops_table_convertible;
  row "-> lone pointers needing PAuth protection:   %4d\n"
    census.Sempatch.Analysis.needs_pac;
  let protected = Sempatch.Analysis.protected_members census in
  let rewritten, stats = Sempatch.Rewrite.apply corpus ~protected in
  row "semantic patch: %d writes and %d reads rewritten across %d functions\n"
    stats.Sempatch.Rewrite.writes_rewritten stats.Sempatch.Rewrite.reads_rewritten
    stats.Sempatch.Rewrite.functions_touched;
  row "residual direct accesses after patch: %d (must be 0)\n"
    (Sempatch.Rewrite.residual_accesses rewritten ~protected);
  (* the second half of Section 5.3: convert multi-pointer types to
     read-only operations structures *)
  let converted, conv = Sempatch.Convert.convert_multi corpus census in
  let census' = Sempatch.Analysis.run converted in
  row "ops conversion: %d types -> const ops structs, %d writes collapsed\n"
    conv.Sempatch.Convert.types_converted conv.Sempatch.Convert.assignments_collapsed;
  row "census after conversion: %d members, %d multi types (expected 275 / 0)\n"
    census'.Sempatch.Analysis.member_count census'.Sempatch.Analysis.multi_member_type_count;
  List.iter
    (fun (name, v) ->
      metric ~experiment:"e5" ~name ~value:(float_of_int v) ~unit_:"count")
    [
      ("fp-members", census.Sempatch.Analysis.member_count);
      ("compound-types", census.Sempatch.Analysis.type_count);
      ("multi-member-types", census.Sempatch.Analysis.multi_member_type_count);
      ("ops-convertible", census.Sempatch.Analysis.ops_table_convertible);
      ("needs-pac", census.Sempatch.Analysis.needs_pac);
      ("writes-rewritten", stats.Sempatch.Rewrite.writes_rewritten);
      ("reads-rewritten", stats.Sempatch.Rewrite.reads_rewritten);
      ("residual-accesses", Sempatch.Rewrite.residual_accesses rewritten ~protected);
      ("members-after-conversion", census'.Sempatch.Analysis.member_count);
    ]

(* E6: Appendix A — address layout and PAC widths. *)
let e6 () =
  header "E6  Tables 1-2: VMSAv8 pointer layout and PAC widths";
  row "%-34s %8s %5s %9s\n" "configuration" "va_bits" "TBI" "PAC bits";
  let show label cfg =
    row "%-34s %8d %5s %9d\n" label cfg.Vaddr.va_bits
      (if cfg.Vaddr.tbi then "yes" else "no")
      (Vaddr.pac_bits cfg);
    metric ~experiment:"e6"
      ~name:(slug label ^ "-pac-bits")
      ~value:(float_of_int (Vaddr.pac_bits cfg))
      ~unit_:"bits"
  in
  show "kernel, 48-bit VA (paper's config)" Vaddr.linux_kernel;
  show "user, 48-bit VA + tag byte" Vaddr.linux_user;
  show "kernel, 39-bit VA" { Vaddr.va_bits = 39; tbi = false };
  show "user, 39-bit VA + tag byte" { Vaddr.va_bits = 39; tbi = true };
  row "address-range select (Table 1): bit 55; examples:\n";
  List.iter
    (fun (a, expect) ->
      let got =
        match Vaddr.select a with
        | Vaddr.Kernel -> "kernel"
        | Vaddr.User -> "user"
        | Vaddr.Invalid -> "invalid"
      in
      row "  0x%016Lx -> %-7s (expected %s)\n" a got expect)
    [
      (0xffffffffffffffffL, "kernel");
      (0xffff000000000000L, "kernel");
      (0x0000ffffffffffffL, "user");
      (0x0000000000000000L, "user");
    ]

(* E7: PAC guessing probability (Section 6.2.1: 2^-pac_size). *)
let e7 () =
  header "E7  PAC forgery probability (paper: 2^-pac_size; 15 kernel PAC bits)";
  let cfg = Vaddr.linux_kernel in
  let cipher = Qarma.Block.create () in
  let key = Pac.{ hi = 0x1122334455667788L; lo = 0x99aabbccddeeff00L } in
  let rng = Camo_util.Rng.create 77L in
  let samples = 1 lsl 19 in
  let hits = ref 0 in
  for _ = 1 to samples do
    let ptr =
      Int64.logor 0xffff000000000000L
        (Int64.logand (Camo_util.Rng.next rng) 0xffffffffffL)
    in
    let modifier = Camo_util.Rng.next rng in
    let signed = Pac.compute ~cipher ~key ~cfg ~modifier ptr in
    let guess =
      Vaddr.insert_pac cfg
        ~pac:(Int64.logand (Camo_util.Rng.next rng) (Camo_util.Val64.mask 15))
        signed
    in
    if guess = signed then incr hits
  done;
  let p = float_of_int !hits /. float_of_int samples in
  row "random forgeries accepted: %d / %d  (p = %.3e; 2^-15 = %.3e)\n" !hits samples p
    (1.0 /. 32768.0);
  metric ~experiment:"e7" ~name:"forgery-acceptance" ~value:p ~unit_:"probability";
  metric ~experiment:"e7" ~name:"forgery-hits" ~value:(float_of_int !hits)
    ~unit_:"count";
  (* the machine-level mitigation demo *)
  let config = { C.Config.full with bruteforce_threshold = 8 } in
  let sys = K.System.boot ~config ~seed:13L () in
  let report = Attacks.Bruteforce_attack.run sys ~attempts:64 ~seed:21L in
  row "machine demo with threshold 8: %s\n"
    (Attacks.Bruteforce_attack.report_to_string report)

(* Oracle sweep: Section 6.2.3's requirement that no kernel path can be
   used as a silent PAC-verification oracle. *)
let oracle () =
  header "ORACLE  Section 6.2.3: verification-oracle sweep over every protected surface";
  let verdicts = Attacks.Oracle.sweep () in
  List.iter (fun v -> row "%s\n" (Attacks.Oracle.verdict_to_string v)) verdicts;
  row "%s\n"
    (if Attacks.Oracle.all_closed verdicts then
       "all surfaces fail closed: killed and logged, no silent oracle"
     else "ORACLE FOUND - a surface fails open")

(* A1: replay-attack surface per modifier scheme. *)
let a1 () =
  header "A1  Ablation: modifier entropy vs replay (Sections 4.2, 7)";
  let samples = 200_000 in
  row "%-38s %22s\n" "scheme" "context-collision rate";
  List.iter
    (fun scheme ->
      let f = Attacks.Replay.collision_fraction scheme ~samples ~seed:3L in
      row "%-38s %22.6e\n" (C.Modifier.scheme_name scheme) f)
    [ C.Modifier.Sp_only; C.Modifier.Parts 0x1234L; C.Modifier.Camouflage ];
  row "machine demo: replay of a harvested return address across task stacks 64 KiB apart\n";
  List.iter
    (fun (label, config) ->
      let sys = K.System.boot ~config ~seed:17L () in
      let outcome = Attacks.Replay.cross_task_switch_frame sys in
      row "  %-36s -> %s\n" label (Attacks.Replay.outcome_to_string outcome))
    [
      ("PARTS (16-bit SP)", { C.Config.full with scheme = C.Modifier.Parts 0x77L });
      ("SP-only (full SP)", { C.Config.full with scheme = C.Modifier.Sp_only });
      ("Camouflage", C.Config.full);
    ]

(* A2: XOM key setter vs EL2-trap key management (Ferri et al.). *)
let a2 () =
  header "A2  Ablation: XOM key setter vs EL2-trap key management (Section 7)";
  let sys = K.System.boot ~config:C.Config.full ~seed:5L () in
  let cpu = K.System.cpu sys in
  let before = Cpu.cycles cpu in
  K.System.install_kernel_keys sys;
  let xom_cycles = Int64.to_int (Int64.sub (Cpu.cycles cpu) before) in
  let profile = Cpu.cost_profile cpu in
  (* trapping to EL2 costs one exception entry + return around the same
     register writes, per key-set event *)
  let trap_cycles =
    xom_cycles + profile.Cost.exception_entry + profile.Cost.eret
  in
  row "XOM setter (this work):        %4d cycles per kernel entry\n" xom_cycles;
  row "EL2 trap (Ferri et al. style): %4d cycles per kernel entry (+%d%%)\n" trap_cycles
    ((trap_cycles - xom_cycles) * 100 / max 1 xom_cycles);
  row "the trap also exposes key material to EL2 scheduling latency; XOM does not trap\n"

(* A3: signed-vtable-entries (Apple) vs read-only ops tables. *)
let a3 () =
  header "A3  Ablation: sign-all-vtable-entries (Apple) vs const ops tables (Section 7)";
  let profile = Cost.cortex_a53 in
  let n_ops = 4 in
  let camouflage_create = 2 * profile.Cost.pauth in
  (* sign f_ops + f_cred *)
  let camouflage_call = profile.Cost.pauth in
  (* authenticate f_ops *)
  let apple_create = n_ops * profile.Cost.pauth in
  (* sign each table entry *)
  let apple_call = profile.Cost.pauth in
  (* authenticate the loaded entry *)
  row "%-28s %16s %14s %26s\n" "design" "create (cycles)" "call (cycles)"
    "cross-object replay";
  row "%-28s %16d %14d %26s\n" "Camouflage (const tables)" camouflage_create
    camouflage_call "rejected (addr-bound)";
  row "%-28s %16d %14d %26s\n" "Apple (zero modifier)" apple_create apple_call
    "accepted (modifier = 0)";
  (* demonstrate the zero-modifier replay acceptance with the real PAC *)
  let cipher = Qarma.Block.create () in
  let key = Pac.{ hi = 1L; lo = 2L } in
  let cfg = Vaddr.linux_kernel in
  let fn = 0xffff000000123450L in
  let signed_zero_mod = Pac.compute ~cipher ~key ~cfg ~modifier:0L fn in
  let replay_elsewhere = Pac.auth ~cipher ~key ~cfg ~modifier:0L signed_zero_mod in
  row "zero-modifier PAC replayed at another object: %s\n"
    (match replay_elsewhere with Result.Ok _ -> "ACCEPTED" | Result.Error _ -> "rejected")

(* A4: brute-force threshold sweep. *)
let a4 () =
  header "A4  Ablation: PAC-failure threshold vs expected forgery work (Section 5.4)";
  let pac_bits = Vaddr.pac_bits Vaddr.linux_kernel in
  let space = float_of_int (1 lsl pac_bits) in
  row "%-10s %26s %24s\n" "threshold" "P(success before panic)" "expected attempts/panic";
  List.iter
    (fun threshold ->
      let p = 1.0 -. ((1.0 -. (1.0 /. space)) ** float_of_int threshold) in
      row "%-10d %26.3e %24d\n" threshold p threshold)
    [ 1; 4; 16; 64; 256; 1024 ];
  row "without the mitigation the search needs ~%d attempts on average\n"
    (1 lsl (pac_bits - 1));
  (* machine confirmation for threshold=4 *)
  let config = { C.Config.full with bruteforce_threshold = 4 } in
  let sys = K.System.boot ~config ~seed:23L () in
  let report = Attacks.Bruteforce_attack.run sys ~attempts:32 ~seed:29L in
  row "machine run (threshold 4): %s\n" (Attacks.Bruteforce_attack.report_to_string report)

(* A5: the chained (PACStack-style) authenticated call stack. *)
let a5 () =
  header "A5  Ablation: chained authenticated call stack vs static modifiers";
  let calls = 5_000 in
  row "%-44s %14s %20s\n" "scheme" "cycles/call" "temporal replay";
  let schemes =
    [
      C.Modifier.No_cfi;
      C.Modifier.Sp_only;
      C.Modifier.Camouflage;
      C.Modifier.Chained;
    ]
  in
  List.iter
    (fun scheme ->
      let config = { C.Config.backward_only with scheme } in
      let cycles =
        Int64.to_float (Workloads.Calls.measure_bare config ~calls) /. float_of_int calls
      in
      let replay =
        match scheme with
        | C.Modifier.No_cfi -> "n/a (no PAC)"
        | C.Modifier.Sp_only | C.Modifier.Parts _ | C.Modifier.Camouflage
        | C.Modifier.Chained -> (
            match Attacks.Temporal_replay.run scheme with
            | Attacks.Temporal_replay.Replay_accepted -> "ACCEPTED"
            | Attacks.Temporal_replay.Replay_rejected -> "rejected"
            | Attacks.Temporal_replay.Inconclusive m -> "? " ^ m)
      in
      row "%-44s %14.2f %20s\n" (C.Modifier.scheme_name scheme) cycles replay)
    schemes;
  row "the chain closes the same-context replay window Section 6.2.1 leaves open,\n";
  row "at extra spill cost per call and at the price of kernel-integration limits\n"

(* A6: sensitivity of the headline results to the PAuth latency
   estimate. The paper's PA-analogue assumes 4 cycles per PAuth
   instruction; real implementations may differ, so sweep it. *)
let a6 () =
  header "A6  Ablation: sensitivity to the PAuth-latency estimate (PA-analogue = 4)";
  let calls = 2_000 in
  row "%-14s %24s %24s %18s\n" "pauth cycles" "camouflage call (cyc)" "call overhead vs none"
    "null syscall rel";
  List.iter
    (fun latency ->
      let cost = { Cost.cortex_a53 with Cost.pauth = latency } in
      let per_call config =
        Int64.to_float (Workloads.Calls.measure_bare ~cost config ~calls)
        /. float_of_int calls
      in
      let camo = per_call C.Config.backward_only in
      let base = per_call C.Config.none in
      let null_latency config =
        let sys = K.System.boot ~config ~seed:11L ~cost () in
        (* warm up, then measure one representative entry *)
        (match K.System.syscall sys ~nr:K.Kbuild.sys_getpid ~args:[] with
        | K.System.Ok _ -> ()
        | K.System.Killed m | K.System.Panicked m -> failwith m);
        let before = Cpu.cycles (K.System.cpu sys) in
        (match K.System.syscall sys ~nr:K.Kbuild.sys_getpid ~args:[] with
        | K.System.Ok _ -> ()
        | K.System.Killed m | K.System.Panicked m -> failwith m);
        Int64.to_float (Int64.sub (Cpu.cycles (K.System.cpu sys)) before)
      in
      let rel = null_latency C.Config.full /. null_latency C.Config.none in
      row "%-14d %24.2f %24.2f %18.3f\n" latency camo (camo -. base) rel)
    [ 2; 4; 6; 8 ];
  row "overheads scale close to linearly in the PAuth latency; the orderings\n";
  row "of Figures 2-4 are unchanged across the plausible range\n"

(* E8 lives in the test suite (exact listing shapes); print a pointer. *)
let e8 () =
  header "E8  Listing shapes";
  row "asserted byte-for-byte in test/test_camouflage.ml (dune runtest)\n";
  let layout =
    let f = C.Instrument.wrap C.Config.full ~name:"function" [] in
    let prog = Asm.create () in
    Asm.add_function prog ~name:"function" f.C.Instrument.items;
    Asm.assemble prog ~base:0xffff000000100000L
  in
  print_string (Asm.disassemble layout);
  metric ~experiment:"e8" ~name:"instrumented-empty-fn-bytes"
    ~value:(float_of_int layout.Asm.size)
    ~unit_:"bytes"

(* E9: syscall throughput scaling across simulated SMP cores. *)
let e9 () =
  header "E9  SMP syscall throughput scaling (simulated parallel time)";
  let tasks = 8 and rounds = 40 in
  let points = Workloads.Smp.run_scaling ~seed:42L ~tasks ~rounds () in
  row "%d tasks x %d syscall rounds each, full protection\n\n" tasks rounds;
  row "%-6s %14s %14s %12s %9s %6s %6s  %s\n" "cpus" "makespan" "aggregate"
    "sys/kcycle" "speedup" "migr" "ipis" "";
  let max_speedup =
    List.fold_left (fun acc p -> Float.max acc p.Workloads.Smp.speedup) 1.0 points
  in
  List.iter
    (fun p ->
      let open Workloads.Smp in
      row "%-6d %14Ld %14Ld %12.2f %8.2fx %6d %6d  %s%s\n" p.cpus p.makespan
        p.aggregate p.throughput p.speedup p.migrations p.ipis
        (bar ~max_value:max_speedup p.speedup)
        (if p.all_exited then "" else "  [INCOMPLETE]");
      let pfx = Printf.sprintf "%d-cpus-" p.cpus in
      metric ~experiment:"e9" ~name:(pfx ^ "makespan")
        ~value:(Int64.to_float p.makespan) ~unit_:"cycles";
      metric ~experiment:"e9" ~name:(pfx ^ "throughput") ~value:p.throughput
        ~unit_:"syscalls/kcycle";
      metric ~experiment:"e9" ~name:(pfx ^ "speedup") ~value:p.speedup
        ~unit_:"ratio";
      metric ~experiment:"e9" ~name:(pfx ^ "migrations")
        ~value:(float_of_int p.migrations) ~unit_:"count";
      metric ~experiment:"e9" ~name:(pfx ^ "ipis") ~value:(float_of_int p.ipis)
        ~unit_:"count")
    points;
  row "\nmakespan is the busiest core's cycle counter. Scaling is near-linear\n";
  row "because syscalls serialize only per core — every kernel entry pays its\n";
  row "own core's XOM key install (per-CPU key registers); residual skew is\n";
  row "the boot and bring-up work carried by individual cores.\n"

(* E10: fault-injection campaign — detection-rate table and the per-CPU
   quarantine demo. *)
let e10 () =
  header "E10 Fault-injection: detection rate and graceful degradation";
  let seed = 42L and trials = 100 in
  (* trials run on the fleet engine; the merged report is byte-identical
     to the sequential (--workers 1) rendering for any worker count *)
  let workers = min 4 (Domain.recommended_domain_count ()) in
  let result = Option.get (Fleet.Campaign.run ~workers ~seed ~trials ()) in
  let report = result.Fleet.Campaign.report in
  row "(%d trials on %d fleet worker domains)\n" trials workers;
  print_string (Faultinj.Campaign.report_to_string report);
  List.iter
    (fun (name, v) ->
      metric ~experiment:"e10" ~name ~value:(float_of_int v) ~unit_:"count")
    [
      ("fired", report.Faultinj.Campaign.fired_count);
      ("detected-by-pac", report.Faultinj.Campaign.n_detected_by_pac);
      ("detected-by-mmu", report.Faultinj.Campaign.n_detected_by_mmu);
      ("panicked", report.Faultinj.Campaign.n_panicked);
      ("task-killed", report.Faultinj.Campaign.n_task_killed);
      ("silent-corruption", report.Faultinj.Campaign.n_silent);
      ("benign", report.Faultinj.Campaign.n_benign);
    ];
  metric ~experiment:"e10" ~name:"detection-rate"
    ~value:report.Faultinj.Campaign.detection_rate ~unit_:"ratio";

  row "\n";
  print_string (Faultinj.Campaign.demo_to_string (Faultinj.Campaign.quarantine_demo ~seed ()));
  row "\nthe baseline run crosses the brute-force threshold and halts; with\n";
  row "quarantine the kernel offlines the faulty core, migrates its queue and\n";
  row "keeps serving the surviving tasks on the healthy core.\n"

(* SNAPSHOT: the copy-on-write capture/restore primitive behind fleet
   sessions and record-replay. Three numbers: the cost of capturing a
   booted machine, the clean-restore rate (nothing dirtied — the CoW
   fast path), and the dirty-restore rate after a full workload run
   (every touched frame blitted back). *)
let snapshot_bench () =
  header "SNAPSHOT copy-on-write capture and restore throughput";
  let seed = 42L in
  let boot () =
    let sys = K.System.boot ~config:C.Config.full ~seed ~cpus:2 () in
    let layout =
      K.System.map_user_program sys (Faultinj.Campaign.workload_program ~rounds:8)
    in
    let entry = Asm.symbol layout "main" in
    let tasks = List.init 4 (fun _ -> K.System.spawn_user_task sys ~entry) in
    (sys, tasks)
  in
  let sys, tasks = boot () in
  let mem = Machine.mem (K.System.machine sys) in
  let t0 = Unix.gettimeofday () in
  let snap = K.System.snapshot sys in
  let capture_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  row "post-boot machine: %d memory frames allocated\n" (Mem.frames_allocated mem);
  row "capture: %.3f ms (full machine: frames, MMU, CPUs, sysregs, keys)\n"
    capture_ms;
  metric ~experiment:"snapshot" ~name:"frames"
    ~value:(float_of_int (Mem.frames_allocated mem)) ~unit_:"count";
  metric ~experiment:"snapshot" ~name:"capture-ms" ~value:capture_ms ~unit_:"ms";
  let rate n f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do f () done;
    float_of_int n /. (Unix.gettimeofday () -. t0)
  in
  (* clean restores: nothing dirtied, the write-hook dirty set is empty *)
  K.System.restore sys snap;
  let clean_rate = rate 500 (fun () -> K.System.restore sys snap) in
  row "clean restore: %.0f restores/sec (empty dirty set)\n" clean_rate;
  metric ~experiment:"snapshot" ~name:"clean-restores-per-sec" ~value:clean_rate
    ~unit_:"ops/s";
  (* dirty restores: a full workload run between restores, so every
     frame the run touched is blitted back from the pristine copy *)
  ignore (K.System.run_smp ~quantum:400 sys ~tasks);
  let dirty_rate =
    rate 20 (fun () ->
        K.System.restore sys snap;
        ignore (K.System.run_smp ~quantum:400 sys ~tasks))
  in
  row "restore + full workload re-run: %.1f forks/sec\n" dirty_rate;
  metric ~experiment:"snapshot" ~name:"fork-run-per-sec" ~value:dirty_rate
    ~unit_:"ops/s";
  row "\ncapture copies every frame eagerly; restore pays only for frames\n";
  row "dirtied since the snapshot (write hooks track them), which is what\n";
  row "makes boot-once-fork-N campaigns cheap.\n"

(* FLEET: span histograms across the work-stealing engine. A
   telemetry-enabled fault campaign per scheme, with the merged
   histogram JSON hard-asserted byte-identical for 1/2/8 workers — the
   exact-merge monoid folded in trial-index order cannot see the
   work-stealing schedule. *)
let fleet () =
  header "FLEET span histograms across a fault campaign per scheme";
  let trials = 16 and hist_seed = 2026L in
  let hist_json config workers =
    let result =
      Option.get
        (Fleet.Campaign.run ~config ~config_name:(C.Config.name config)
           ~workers ~telemetry:true ~seed:hist_seed ~trials ())
    in
    match result.Fleet.Campaign.telemetry with
    | Some tel -> Telemetry.Span.histograms_to_json tel.Fleet.Campaign.hists
    | None -> failwith "telemetry campaign returned no summary"
  in
  row "span latency across a %d-trial fault campaign per scheme (cycles):\n"
    trials;
  row "%-16s %-16s %8s %8s %8s %8s\n" "scheme" "kind" "count" "p50" "p99" "max";
  List.iter
    (fun (name, config) ->
      let result =
        Option.get
          (Fleet.Campaign.run ~config ~config_name:(C.Config.name config)
             ~workers:2 ~telemetry:true ~seed:hist_seed ~trials ())
      in
      let tel = Option.get result.Fleet.Campaign.telemetry in
      List.iter
        (fun (kind, h) ->
          if not (Telemetry.Hist.is_empty h) then begin
            row "%-16s %-16s %8Ld %8Ld %8Ld %8Ld\n" name
              (Telemetry.Span.kind_name kind) (Telemetry.Hist.count h)
              (Telemetry.Hist.p50 h) (Telemetry.Hist.p99 h)
              (Telemetry.Hist.max_value h);
            metric ~experiment:"fleet"
              ~name:
                (Printf.sprintf "%s-%s-p99" (slug name)
                   (Telemetry.Span.kind_name kind))
              ~value:(Int64.to_float (Telemetry.Hist.p99 h))
              ~unit_:"cycles"
          end)
        tel.Fleet.Campaign.hists)
    Workloads.Lmbench.configs;
  let h1 = hist_json C.Config.full 1 in
  let h2 = hist_json C.Config.full 2 in
  let h8 = hist_json C.Config.full 8 in
  if h1 <> h2 || h1 <> h8 then
    failwith "fleet bench: merged span histograms diverged across 1/2/8 workers";
  row "\nmerged histogram JSON is byte-identical for 1/2/8 workers\n";
  metric ~experiment:"fleet" ~name:"hist-deterministic" ~value:1.0 ~unit_:"bool"

(* LINT: the whole-image interprocedural analyzer under the fleet
   engine. Diagnostics and gadget census of the full kernel image must
   be byte-identical whether the per-function rounds run sequentially
   or on 2/8 work-stealing domains (hard failure if not). The census
   quantities of every configuration are emitted as seeded metrics. *)
let lint_bench () =
  header "LINT whole-image analyzer: worker-count determinism + census";
  let configs = List.map snd C.Config.named in
  let par workers =
    if workers <= 1 then Paclint.Lint.seq_par
    else
      { Paclint.Lint.pmap = (fun ~jobs f -> Fleet.Pool.map ~workers ~jobs f) }
  in
  let fingerprint (r : K.Kbuild.lint_report) =
    Paclint.Census.to_json r.K.Kbuild.census
    ^ Paclint.Diag.list_to_json r.K.Kbuild.diags
  in
  (* determinism of the inner per-function parallelism *)
  let fps =
    List.map
      (fun w -> (w, fingerprint (K.Kbuild.lint_report ~par:(par w) C.Config.full)))
      [ 1; 2; 8 ]
  in
  let _, base_fp = List.hd fps in
  List.iter
    (fun (w, fp) ->
      if fp <> base_fp then
        failwith
          (Printf.sprintf
             "lint bench: report diverged at %d workers (determinism broken)" w))
    fps;
  row "full-image report byte-identical for workers in {1, 2, 8}\n";
  metric ~experiment:"lint" ~name:"deterministic" ~value:1.0 ~unit_:"bool";
  (* seeded census quantities CI pins *)
  List.iter
    (fun config ->
      let r = K.Kbuild.lint_report config in
      let errors = List.filter Paclint.Diag.is_error r.K.Kbuild.diags in
      let pairs = Attacks.Census_check.frame_replay_pairs r.K.Kbuild.census in
      let name = slug (C.Config.name config) in
      row "%-44s %3d diags, %d errors, %5d frame-replay pairs\n"
        (C.Config.name config)
        (List.length r.K.Kbuild.diags)
        (List.length errors) pairs;
      metric ~experiment:"lint" ~name:(name ^ "-errors")
        ~value:(float_of_int (List.length errors))
        ~unit_:"count";
      metric ~experiment:"lint" ~name:(name ^ "-frame-replay-pairs")
        ~value:(float_of_int pairs) ~unit_:"count")
    configs

(* SIM: host throughput of the interpreter itself — its headline
   numbers are wall-clock (guest-MIPS), measuring the
   execution tiers (interp / decoded-instruction cache / superblock
   traces) rather than anything the guest can observe. The run is the
   exact E2 call-heavy workload; simulated state must be bit-identical
   across all three tiers, which this experiment hard-asserts before
   reporting throughput. The deterministic companions (retired
   instructions, cache hit rate, trace-cache effectiveness) are also
   emitted, so the JSON artifact carries both the seeded quantities and
   the host-speed trajectory. *)
let sim () =
  header
    "SIM  Host throughput: execution tiers interp/icache/traces (E2 workload)";
  (* One timed run; returns the cpu (for state comparison) and wall
     seconds. Throughput is the best of [reps] runs — host noise only
     ever slows a run down, so min is the faithful estimator. *)
  let one config ~calls ~tier =
    let cpu = Bare.machine ~tier () in
    let obj = Workloads.Calls.calls_object config ~calls in
    let prog = Asm.create () in
    List.iter
      (fun (name, items) -> Asm.add_function prog ~name items)
      obj.Kelf.Object_file.functions;
    let layout = Bare.load cpu prog in
    let t0 = Unix.gettimeofday () in
    (match Bare.call ~max_insns:100_000_000 cpu layout "caller" with
    | Cpu.Sentinel_return -> ()
    | other -> failwith ("sim bench: " ^ Cpu.stop_to_string other));
    let wall = Unix.gettimeofday () -. t0 in
    (cpu, wall)
  in
  let measure config ~calls ~reps ~tier =
    let cpu, w0 = one config ~calls ~tier in
    let best = ref w0 in
    for _ = 2 to reps do
      let _, w = one config ~calls ~tier in
      if w < !best then best := w
    done;
    (cpu, !best)
  in
  let variant label config ~calls ~reps =
    let runs =
      List.map (fun tier -> (tier, measure config ~calls ~reps ~tier)) Cpu.all_tiers
    in
    let cpu_of tier = fst (List.assoc tier runs) in
    let wall_of tier = snd (List.assoc tier runs) in
    (* The tiers must be invisible to the guest: identical retirement
       and cycle totals, or the throughput comparison is meaningless. *)
    let base = cpu_of Cpu.Interp in
    List.iter
      (fun (tier, (cpu, _)) ->
        if
          Cpu.insns_retired cpu <> Cpu.insns_retired base
          || Cpu.cycles cpu <> Cpu.cycles base
        then
          failwith
            (Printf.sprintf
               "sim bench: %s run diverged from interp (insns %Ld vs %Ld, \
                cycles %Ld vs %Ld)"
               (Cpu.tier_name tier) (Cpu.insns_retired cpu)
               (Cpu.insns_retired base) (Cpu.cycles cpu) (Cpu.cycles base)))
      runs;
    let insns = Int64.to_float (Cpu.insns_retired base) in
    let mips_of tier = insns /. wall_of tier /. 1e6 in
    let icache_speedup = mips_of Cpu.Icache /. mips_of Cpu.Interp in
    let traces_over_interp = mips_of Cpu.Traces /. mips_of Cpu.Interp in
    let traces_over_icache = mips_of Cpu.Traces /. mips_of Cpu.Icache in
    let istats = Icache.stats (Cpu.icache (cpu_of Cpu.Icache)) in
    let fetches = istats.Icache.fetch_hits + istats.Icache.fetch_misses in
    let hit_rate =
      if fetches = 0 then 0.0
      else float_of_int istats.Icache.fetch_hits /. float_of_int fetches
    in
    let ts =
      match Cpu.trace_stats (cpu_of Cpu.Traces) with
      | Some ts -> ts
      | None -> failwith "sim bench: traces core carries no trace cache"
    in
    let block_share =
      if insns = 0.0 then 0.0 else float_of_int ts.Traces.block_insns /. insns
    in
    (* the PAC memo: both cached tiers run the same ops in the same
       order, so they look up the same MACs; 0 with no lookups *)
    let memo_of tier = Cpu.pac_memo_stats (cpu_of tier) in
    let memo_hit_ratio (m : Cpu.pac_memo_stats) =
      if m.Cpu.lookups = 0 then 0.0
      else float_of_int m.Cpu.hits /. float_of_int m.Cpu.lookups
    in
    row "\n[%s] E2 call probe, %d calls, %s; %.1f M instructions retired\n"
      label calls (C.Config.name config) (insns /. 1e6);
    row "%-28s" "";
    List.iter (fun tier -> row " %14s" (Cpu.tier_name tier)) Cpu.all_tiers;
    row "\n%-28s" "wall time (s, best of runs)";
    List.iter (fun tier -> row " %14.2f" (wall_of tier)) Cpu.all_tiers;
    row "\n%-28s" "guest MIPS";
    List.iter (fun tier -> row " %14.1f" (mips_of tier)) Cpu.all_tiers;
    row
      "\nspeedup: icache %.2fx, traces %.2fx over interp (%.2fx over icache)\n"
      icache_speedup traces_over_interp traces_over_icache;
    row "icache: %.2f%% fetch hit rate, %d fills, %d invalidations\n"
      (100. *. hit_rate) istats.Icache.fills istats.Icache.invalidations;
    row
      "traces: %d blocks compiled, %d dispatches, %.1f%% of insns in blocks, \
       %d chain follows\n"
      ts.Traces.compiled ts.Traces.executed (100. *. block_share)
      ts.Traces.chain_follows;
    row "pac memo: %s\n"
      (String.concat ", "
         (List.map
            (fun tier ->
              let m = memo_of tier in
              Printf.sprintf "%s %d lookups, %d hits" (Cpu.tier_name tier) m.Cpu.lookups
                m.Cpu.hits)
            Cpu.all_tiers));
    metric ~experiment:"sim" ~name:("retired-insns-" ^ label) ~value:insns
      ~unit_:"insns";
    metric ~experiment:"sim"
      ~name:("icache-fetch-hit-rate-" ^ label)
      ~value:hit_rate ~unit_:"ratio";
    List.iter
      (fun tier ->
        metric ~experiment:"sim"
          ~name:("guest-mips-" ^ Cpu.tier_name tier ^ "-" ^ label)
          ~value:(mips_of tier) ~unit_:"mips")
      Cpu.all_tiers;
    metric ~experiment:"sim" ~name:("icache-speedup-" ^ label)
      ~value:icache_speedup ~unit_:"ratio";
    metric ~experiment:"sim"
      ~name:("traces-speedup-over-interp-" ^ label)
      ~value:traces_over_interp ~unit_:"ratio";
    metric ~experiment:"sim"
      ~name:("traces-speedup-over-icache-" ^ label)
      ~value:traces_over_icache ~unit_:"ratio";
    metric ~experiment:"sim"
      ~name:("trace-block-insn-share-" ^ label)
      ~value:block_share ~unit_:"ratio";
    metric ~experiment:"sim"
      ~name:("pac-memo-hit-ratio-" ^ label)
      ~value:(memo_hit_ratio (memo_of Cpu.Traces))
      ~unit_:"ratio";
    (icache_speedup, traces_over_interp)
  in
  (* Headline: the baseline (no-CFI) variant, where the interpreter loop
     is the whole cost and the tier machinery's effect is visible. *)
  let baseline_icache, _ = variant "baseline" C.Config.none ~calls:300_000 ~reps:3 in
  (* Companion: the Camouflage-instrumented variant of the same probe,
     the workload the paper measures: every call signs and authenticates
     its return address. *)
  let _, camouflage_traces =
    variant "camouflage" C.Config.backward_only ~calls:300_000 ~reps:3
  in
  row
    "\nfloors CI asserts: icache-speedup-baseline >= 1 (got %.2fx), \
     traces-speedup-over-interp-camouflage >= 1 (got %.2fx)\n"
    baseline_icache camouflage_traces

let experiments =
  [
    ("e1", e1);
    ("e2", e2);
    ("e3", e3);
    ("e4", e4);
    ("e5", e5);
    ("e6", e6);
    ("e7", e7);
    ("e8", e8);
    ("e9", e9);
    ("e10", e10);
    ("sim", sim);
    ("snapshot", snapshot_bench);
    ("fleet", fleet);
    ("lint", lint_bench);
    ("oracle", oracle);
    ("a1", a1);
    ("a2", a2);
    ("a3", a3);
    ("a4", a4);
    ("a5", a5);
    ("a6", a6);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* peel off --json FILE anywhere in the argument list; the remaining
     words select experiments *)
  let rec split_json names = function
    | "--json" :: path :: rest ->
        let names', _ = split_json names rest in
        (names', Some path)
    | "--json" :: [] ->
        Printf.eprintf "--json needs a file argument\n";
        exit 2
    | arg :: rest -> split_json (arg :: names) rest
    | [] -> (List.rev names, None)
  in
  let names, json_path = split_json [] args in
  (* resolve every name before running anything, so a typo cannot pass
     as a shorter run *)
  let selected =
    match names with
    | [] -> List.map snd experiments
    | names ->
        List.map
          (fun name ->
            match List.assoc_opt (String.lowercase_ascii name) experiments with
            | Some f -> f
            | None ->
                Printf.eprintf "unknown experiment %s (valid: %s)\n" name
                  (String.concat " " (List.map fst experiments));
                exit 2)
          names
  in
  List.iter (fun f -> f ()) selected;
  match json_path with None -> () | Some path -> write_metrics path
