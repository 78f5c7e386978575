(* Command-line front end: boot reports, attack demonstrations, the
   semantic-search census and instrumentation listings. *)

open Cmdliner
open Aarch64
module C = Camouflage
module K = Kernel

(* [-c]: any named configuration, or on a command that boots the
   kernel only one the kernel can boot — refused while parsing, like an
   unknown name, rather than by an exception out of [System.boot]. *)
let config_arg_of ~boots =
  let check c = if boots then K.System.check_config c else Ok () in
  let parse s =
    match C.Config.of_name s with
    | None -> Error (`Msg (Printf.sprintf "unknown config %S" s))
    | Some c -> (
        match check c with
        | Ok () -> Ok c
        | Error m -> Error (`Msg (Printf.sprintf "config %S: %s" s m)))
  in
  let config_conv =
    Arg.conv
      (parse, fun fmt config -> Format.pp_print_string fmt (C.Config.name config))
  in
  let names =
    List.filter_map
      (fun (name, c) -> if Result.is_ok (check c) then Some name else None)
      C.Config.named
  in
  let doc = "Protection configuration: " ^ String.concat ", " names ^ "." in
  Arg.(value & opt config_conv C.Config.full & info [ "c"; "config" ] ~docv:"CONFIG" ~doc)

let config_arg = config_arg_of ~boots:true
let image_config_arg = config_arg_of ~boots:false

let seed_arg =
  let doc = "PRNG seed driving key generation and synthetic inputs." in
  Arg.(value & opt int64 42L & info [ "s"; "seed" ] ~docv:"SEED" ~doc)

(* A count in [lo, hi], refused while parsing when out of range. *)
let count_conv ~what ~lo ~hi =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo && n <= hi -> Ok n
    | Some n -> Error (`Msg (Printf.sprintf "%s %d out of range (%d-%d)" what n lo hi))
    | None -> Error (`Msg (Printf.sprintf "invalid %s %S" what s))
  in
  Arg.conv (parse, Format.pp_print_int)

(* A core count from [lo] to 16, [lo] by default. *)
let cpus_arg_from ~lo ~doc =
  let cpus = count_conv ~what:"cpu count" ~lo ~hi:16 in
  Arg.(value & opt cpus lo & info [ "cpus" ] ~docv:"N" ~doc)

let cpus_arg = cpus_arg_from ~lo:1 ~doc:"Number of simulated cores to boot (1-16)."

(* The SMP workloads of [trace], [stats] and [faults] run at least two
   cores, so 1 is refused like 17. *)
let smp_cpus_arg = cpus_arg_from ~lo:2 ~doc:"Number of simulated cores to boot (2-16)."

let workers_arg =
  let lo, hi = Fleet.Pool.workers_range in
  let doc =
    Printf.sprintf
      "Fleet worker domains (%d-%d). Output is byte-identical for every worker \
       count; only wall-clock time changes."
      lo hi
  in
  let workers = count_conv ~what:"worker count" ~lo ~hi in
  Arg.(value & opt workers 1 & info [ "workers" ] ~docv:"N" ~doc)

(* An output file, refused while parsing unless its directory exists
   and the path itself is not a directory, so a bad path fails before
   anything boots rather than after a whole run. *)
let out_file =
  let parse s =
    let dir = Filename.dirname s in
    if not (Sys.file_exists dir && Sys.is_directory dir) then
      Error (`Msg (Printf.sprintf "no directory %S for output file %S" dir s))
    else if Sys.file_exists s && Sys.is_directory s then
      Error (`Msg (Printf.sprintf "output file %S is a directory" s))
    else Ok s
  in
  Arg.conv (parse, Format.pp_print_string)

let exec_tier_arg =
  let parse s =
    match Cpu.tier_of_string s with
    | Some t -> Ok t
    | None ->
        Error (`Msg (Printf.sprintf "unknown tier %S (interp|icache|traces)" s))
  in
  let tconv =
    Arg.conv (parse, fun fmt t -> Format.pp_print_string fmt (Cpu.tier_name t))
  in
  let doc =
    "Execution tier: $(b,interp) (plain decode-and-dispatch), $(b,icache) \
     (decoded-instruction cache and micro-TLB; the default), or $(b,traces) \
     (superblock trace compilation on top of the icache). Host speed only: \
     execution is bit-identical across tiers."
  in
  Arg.(value & opt (some tconv) None & info [ "exec-tier" ] ~docv:"TIER" ~doc)

let boot_cmd =
  let run config seed cpus tier =
    let sys = K.System.boot ~config ~seed ~cpus ?tier () in
    Printf.printf "configuration : %s\n" (C.Config.name config);
    Printf.printf "exec tier     : %s\n"
      (Cpu.tier_name (Cpu.tier (K.System.cpu sys)));
    Printf.printf "cores         : %d\n" (K.System.cpus sys);
    (match K.System.unkeyed_cpus sys with
    | [] ->
        if K.System.kernel_uses_pauth sys then
          Printf.printf "key audit     : all cores hold the kernel keys\n"
    | bad ->
        List.iter
          (fun (cid, keys) ->
            Printf.printf "key audit     : cpu%d missing %d keys!\n" cid
              (List.length keys))
          bad);
    Printf.printf "kernel PAC    : %d bits (48-bit VA, no tags)\n"
      (Vaddr.pac_bits (Cpu.kernel_cfg (K.System.cpu sys)));
    Printf.printf "keys in use   : %s\n"
      (String.concat ", "
         (List.map
            (fun k ->
              match k with
              | Sysreg.IA -> "IA (forward-edge CFI)"
              | Sysreg.IB -> "IB (backward-edge CFI)"
              | Sysreg.DA -> "DA"
              | Sysreg.DB -> "DB (DFI)"
              | Sysreg.GA -> "GA")
            (C.Keys.keys_in_use config.C.Config.mode)));
    Printf.printf "XOM setter    : 0x%Lx (%d bytes, execute-only via stage 2)\n"
      (K.System.xom sys).K.Xom.setter_addr (K.System.xom sys).K.Xom.bytes;
    Printf.printf "init task     : pid %d\n" (K.System.current sys).K.System.pid;
    Printf.printf "\nboot log:\n";
    List.iter (fun l -> Printf.printf "  %s\n" l) (K.System.log sys)
  in
  let doc = "Boot the protected kernel and print a system report." in
  Cmd.v (Cmd.info "boot" ~doc)
    Term.(
      const run $ config_arg $ seed_arg $ cpus_arg $ exec_tier_arg)

let attack_names = [ "rop"; "fops"; "replay"; "temporal"; "bruteforce"; "cred"; "cred-replay" ]

let attack_cmd =
  let attack_arg =
    let doc = Printf.sprintf "Attack to run: %s." (String.concat ", " attack_names) in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ATTACK" ~doc)
  in
  let run config seed cpus tier name =
    let sys = K.System.boot ~config ~seed ~cpus ?tier () in
    Printf.printf "kernel build: %s (%d cores)\n" (C.Config.name config) cpus;
    (match name with
    | "rop" -> Printf.printf "%s\n" (Attacks.Rop.outcome_to_string (Attacks.Rop.run sys))
    | "fops" ->
        Printf.printf "%s\n"
          (Attacks.Fptr_hijack.outcome_to_string (Attacks.Fptr_hijack.run sys))
    | "replay" ->
        Printf.printf "%s\n"
          (Attacks.Replay.outcome_to_string (Attacks.Replay.cross_task_switch_frame sys))
    | "bruteforce" ->
        Printf.printf "%s\n"
          (Attacks.Bruteforce_attack.report_to_string
             (Attacks.Bruteforce_attack.run sys ~attempts:64 ~seed))
    | "temporal" ->
        Printf.printf "%s\n"
          (Attacks.Temporal_replay.outcome_to_string
             (Attacks.Temporal_replay.run config.C.Config.scheme))
    | "cred" ->
        Printf.printf "%s\n"
          (Attacks.Cred_hijack.outcome_to_string
             (Attacks.Cred_hijack.run sys Attacks.Cred_hijack.Raw))
    | "cred-replay" ->
        Printf.printf "%s\n"
          (Attacks.Cred_hijack.outcome_to_string
             (Attacks.Cred_hijack.run sys Attacks.Cred_hijack.Replayed))
    | other -> Printf.printf "unknown attack %S (try: %s)\n" other (String.concat ", " attack_names));
    Printf.printf "\nkernel log:\n";
    List.iter (fun l -> Printf.printf "  %s\n" l) (K.System.log sys)
  in
  let doc = "Run an attack scenario against the booted kernel." in
  Cmd.v (Cmd.info "attack" ~doc)
    Term.(
      const run $ config_arg $ seed_arg $ cpus_arg $ exec_tier_arg
      $ attack_arg)

let census_cmd =
  let run seed =
    let corpus = Sempatch.Corpus.generate ~seed () in
    let census = Sempatch.Analysis.run corpus in
    Printf.printf "compound types scanned              : %d\n"
      (Sempatch.Cast.struct_count corpus);
    Printf.printf "functions scanned                   : %d\n"
      (Sempatch.Cast.function_count corpus);
    Printf.printf "run-time-assigned fn-ptr members    : %d\n"
      census.Sempatch.Analysis.member_count;
    Printf.printf "containing types                    : %d\n"
      census.Sempatch.Analysis.type_count;
    Printf.printf "types with >1 pointer (to ops)      : %d\n"
      census.Sempatch.Analysis.multi_member_type_count;
    Printf.printf "lone pointers needing PAuth         : %d\n"
      census.Sempatch.Analysis.needs_pac
  in
  let doc = "Run the semantic search census over the synthetic kernel corpus." in
  Cmd.v (Cmd.info "census" ~doc) Term.(const run $ seed_arg)

let disasm_cmd =
  let run config =
    let f = C.Instrument.wrap config ~name:"function" [ Asm.ins Insn.Nop ] in
    let prog = Asm.create () in
    Asm.add_function prog ~name:"function" f.C.Instrument.items;
    let layout = Asm.assemble prog ~base:0xffff000000100000L in
    Printf.printf "instrumented prologue/epilogue for %s:\n\n%s"
      (C.Config.name config) (Asm.disassemble layout)
  in
  let doc = "Show the instrumented function shape for a configuration." in
  Cmd.v (Cmd.info "disasm" ~doc) Term.(const run $ image_config_arg)

let integrity_cmd =
  let run config seed tier =
    let sys = K.System.boot ~config ~seed ?tier () in
    Printf.printf "syscall-table PACGA attestation: %s\n"
      (if K.System.verify_syscall_table sys then "OK" else "MISMATCH");
    (* tamper (bypassing stage 2, modeling a protection lapse) and recheck *)
    let table = K.System.kernel_symbol sys "sys_call_table" in
    K.Kmem.write64 (K.System.cpu sys) (Int64.add table 8L) 0xbadL;
    Printf.printf "after tampering:                 %s\n"
      (if K.System.verify_syscall_table sys then "OK (undetected!)" else "MISMATCH detected")
  in
  let doc = "Demonstrate the PACGA kernel integrity monitor." in
  Cmd.v (Cmd.info "integrity" ~doc)
    Term.(const run $ config_arg $ seed_arg $ exec_tier_arg)

(* Boot with telemetry, run the SMP syscall workload, return the hub. *)
let telemetry_run ?tier ~config ~seed ~cpus ~tasks ~rounds () =
  let sys = K.System.boot ~config ~seed ~cpus ?tier ~telemetry:true () in
  let layout =
    K.System.map_user_program sys (Workloads.Smp.throughput_program ~rounds)
  in
  let entry = Asm.symbol layout "throughput" in
  let spawned = List.init tasks (fun _ -> K.System.spawn_user_task sys ~entry) in
  let stats = K.System.run_smp ~quantum:500 sys ~tasks:spawned in
  let hub =
    match K.System.telemetry sys with
    | Some h -> h
    | None -> failwith "telemetry boot carries no hub"
  in
  (sys, hub, stats)

let trace_cmd =
  let chrome_arg =
    let doc =
      "Run an SMP syscall workload under telemetry and write the event \
       timeline to $(docv) as Chrome trace-event JSON (load in Perfetto or \
       chrome://tracing)."
    in
    Arg.(value & opt (some out_file) None & info [ "chrome" ] ~docv:"FILE" ~doc)
  in
  let validate_arg =
    let doc =
      "Validate $(docv) as trace-event JSON (well-formed, required fields, \
       monotone timestamps per track); exit non-zero on failure."
    in
    Arg.(value & opt (some non_dir_file) None & info [ "validate" ] ~docv:"FILE" ~doc)
  in
  let text_arg =
    let doc = "Print the telemetry event timeline as text instead of JSON." in
    Arg.(value & flag & info [ "text" ] ~doc)
  in
  (* the PAC-failure trace boots one core whatever this says *)
  let trace_cpus_arg =
    cpus_arg_from ~lo:2
      ~doc:
        "Number of simulated cores the $(b,--chrome) and $(b,--text) workloads \
         boot (2-16)."
  in
  let run config seed cpus tier chrome validate text =
    match (chrome, validate, text) with
    | _, Some path, _ ->
        let ic = open_in_bin path in
        let n = in_channel_length ic in
        let doc = really_input_string ic n in
        close_in ic;
        (match Telemetry.Chrome.validate doc with
        | Ok () -> Printf.printf "%s: valid trace-event JSON\n" path
        | Error e ->
            Printf.eprintf "%s: INVALID trace: %s\n" path e;
            exit 1)
    | Some path, _, _ ->
        let _, hub, stats =
          telemetry_run ~config ~seed ~cpus ?tier ~tasks:8 ~rounds:20 ()
        in
        let doc = Telemetry.Chrome.serialize hub in
        (match Telemetry.Chrome.validate doc with
        | Ok () -> ()
        | Error e -> failwith ("serializer produced an invalid trace: " ^ e));
        let oc = open_out path in
        output_string oc doc;
        close_out oc;
        Printf.printf
          "wrote %d events (%d dropped) from %d cores to %s (makespan %Ld cycles)\n"
          (List.length (Telemetry.Hub.events hub))
          (Telemetry.Hub.dropped hub)
          (Telemetry.Hub.cpus hub) path stats.K.System.makespan
    | None, None, true ->
        let _, hub, _ =
          telemetry_run ~config ~seed ~cpus ?tier ~tasks:8 ~rounds:20 ()
        in
        print_string (Telemetry.Chrome.text ~limit:200 hub)
    | None, None, false ->
        let sys = K.System.boot ~config ~seed ?tier () in
        Printf.printf "running the f_ops hijack to provoke a PAC failure...\n";
        Printf.printf "%s\n\n"
          (Attacks.Fptr_hijack.outcome_to_string (Attacks.Fptr_hijack.run sys));
        Printf.printf "last instructions retired before the stop:\n";
        List.iter
          (fun (pc, insn) -> Printf.printf "  %Lx: %s\n" pc (Insn.to_string insn))
          (Cpu.recent_trace ~limit:12 (K.System.cpu sys));
        Printf.printf "\nkernel log:\n";
        List.iter (fun l -> Printf.printf "  %s\n" l) (K.System.log sys)
  in
  let doc =
    "Dump execution traces: by default, provoke a PAC failure and show the \
     CPU trace ring; with $(b,--chrome)/$(b,--text), run an SMP workload \
     under telemetry and emit the cycle-stamped event timeline."
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(
      const run $ config_arg $ seed_arg $ trace_cpus_arg $ exec_tier_arg
      $ chrome_arg $ validate_arg $ text_arg)

let print_hist_table hists =
  Printf.printf "span latency (cycles, log-bucketed: values exact to 1/32)\n";
  Printf.printf "  %-16s %8s %8s %8s %8s %8s\n" "kind" "count" "p50" "p90" "p99"
    "max";
  List.iter
    (fun (kind, h) ->
      if Telemetry.Hist.is_empty h then
        Printf.printf "  %-16s %8s\n" (Telemetry.Span.kind_name kind) "-"
      else
        Printf.printf "  %-16s %8Ld %8Ld %8Ld %8Ld %8Ld\n"
          (Telemetry.Span.kind_name kind) (Telemetry.Hist.count h)
          (Telemetry.Hist.p50 h) (Telemetry.Hist.p90 h) (Telemetry.Hist.p99 h)
          (Telemetry.Hist.max_value h))
    hists

let stats_cmd =
  let json_arg =
    let doc = "Emit the merged counter file as a JSON object." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let hist_arg =
    let doc =
      "Also print the span latency histograms (syscall, context switch, IPI, \
       kernel-key residency) derived from the telemetry event rings; with \
       $(b,--json), embed them as a span_hists object."
    in
    Arg.(value & flag & info [ "hist" ] ~doc)
  in
  let run config seed cpus tier json hist =
    let _, hub, stats =
      telemetry_run ~config ~seed ~cpus ?tier ~tasks:8 ~rounds:20 ()
    in
    let merged = Telemetry.Hub.counters hub in
    if json then
      if hist then
        Printf.printf "{\"counters\": %s, \"span_hists\": %s}\n"
          (Telemetry.Counters.to_json merged)
          (Telemetry.Span.histograms_to_json (Telemetry.Hub.histograms hub))
      else print_string (Telemetry.Counters.to_json merged ^ "\n")
    else begin
      Printf.printf
        "PMU counter files after an 8-task syscall workload (%s, %d cores, \
         makespan %Ld cycles)\n\n"
        (C.Config.name config) cpus stats.K.System.makespan;
      Array.iteri
        (fun cid snap ->
          Printf.printf "cpu%d:\n%s\n" cid (Telemetry.Counters.to_string snap))
        (Telemetry.Hub.per_cpu hub);
      Printf.printf "machine (all cores merged):\n%s"
        (Telemetry.Counters.to_string merged);
      if hist then begin
        Printf.printf "\n";
        print_hist_table (Telemetry.Hub.histograms hub)
      end
    end
  in
  let doc =
    "Run an SMP syscall workload with telemetry enabled and print the \
     per-core and merged PMU-style counter files (and, with $(b,--hist), \
     the span latency histograms)."
  in
  Cmd.v (Cmd.info "stats" ~doc)
    Term.(
      const run $ config_arg $ seed_arg $ smp_cpus_arg $ exec_tier_arg
      $ json_arg $ hist_arg)

let lint_cmd =
  let json_arg =
    let doc = "Emit the selected report as byte-stable JSON instead of text." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let calls_arg =
    let doc = "Print the reconstructed call graph instead of diagnostics." in
    Arg.(value & flag & info [ "calls" ] ~doc)
  in
  let gadgets_arg =
    let doc =
      "Print the modifier-collision gadget census (every PAC/AUT site \
       partitioned by key and modifier-expression class, cross-function \
       substitution pairs, static forgery probability) instead of \
       diagnostics."
    in
    Arg.(value & flag & info [ "gadgets" ] ~doc)
  in
  let scheme_arg =
    let parse s =
      match Paclint.Rules.scheme_of_string s with
      | Some sc -> Ok sc
      | None -> Error (`Msg (Printf.sprintf "unknown scheme %S" s))
    in
    let sconv =
      Arg.conv
        (parse, fun fmt sc -> Format.pp_print_string fmt (Paclint.Rules.scheme_name sc))
    in
    let doc =
      "Override the rule pack: generic, sp-only, parts, camouflage, chained. \
       Default: the pack matching the configuration's own scheme."
    in
    Arg.(value & opt (some sconv) None & info [ "scheme" ] ~docv:"SCHEME" ~doc)
  in
  let module_arg =
    let doc =
      "Lint a standalone .kelf module object (written by $(b,camouflage \
       modgen)) against the kernel export surface instead of the kernel \
       image."
    in
    Arg.(value & opt (some string) None & info [ "module" ] ~docv:"FILE" ~doc)
  in
  let run config json calls gadgets scheme workers module_path =
    let par =
      if workers <= 1 then Paclint.Lint.seq_par
      else { Paclint.Lint.pmap = (fun ~jobs f -> Fleet.Pool.map ~workers ~jobs f) }
    in
    let subject, report =
      match module_path with
      | None -> (C.Config.name config ^ " kernel image", K.Kbuild.lint_report ~par ?scheme config)
      | Some path -> (
          match Kelf.Object_file.read_file path with
          | Ok obj ->
              ( Printf.sprintf "%s (module %s, %s exports)" obj.Kelf.Object_file.obj_name
                  path "kernel",
                K.Kbuild.lint_module ~par ?scheme config obj )
          | Error e ->
              Printf.eprintf "%s\n" e;
              exit 2)
    in
    let diags = report.K.Kbuild.diags in
    let errors = List.filter Paclint.Diag.is_error diags in
    let summary = report.K.Kbuild.summary in
    if calls then begin
      let cg = summary.Paclint.Summary.cg in
      if json then print_string (Paclint.Callgraph.to_json cg)
      else begin
        Array.iter
          (fun fn ->
            Printf.printf "%s (0x%Lx, %d insns)\n"
              (match fn.Paclint.Callgraph.name with
              | Some n -> n
              | None -> "<anon>")
              fn.Paclint.Callgraph.entry
              (fn.Paclint.Callgraph.hi - fn.Paclint.Callgraph.lo);
            List.iter
              (fun c ->
                Printf.printf "  %Lx: %s -> %s\n" c.Paclint.Callgraph.site
                  (match c.Paclint.Callgraph.kind with
                  | Paclint.Callgraph.Direct -> "bl  "
                  | Paclint.Callgraph.Indirect -> "blr "
                  | Paclint.Callgraph.Tail -> "tail")
                  (match c.Paclint.Callgraph.target with
                  | Some t -> (
                      match Paclint.Callgraph.fn_index cg t with
                      | Some j -> (
                          match cg.Paclint.Callgraph.fns.(j).Paclint.Callgraph.name with
                          | Some n -> n
                          | None -> Printf.sprintf "0x%Lx" t)
                      | None -> Printf.sprintf "0x%Lx (external)" t)
                  | None -> "?unresolved"))
              fn.Paclint.Callgraph.calls)
          cg.Paclint.Callgraph.fns;
        Printf.printf
          "%s: %d functions, %d unresolved indirect call sites, %d summary rounds, \
           %d function analyses\n"
          subject
          (Array.length cg.Paclint.Callgraph.fns)
          (Paclint.Callgraph.unresolved_count cg)
          summary.Paclint.Summary.rounds summary.Paclint.Summary.analyses
      end
    end
    else if gadgets then begin
      let census = report.K.Kbuild.census in
      if json then print_string (Paclint.Census.to_json census)
      else begin
        print_string (Paclint.Census.table census);
        let sc =
          match scheme with
          | Some sc -> sc
          | None -> C.Verifier.rules_scheme config
        in
        Printf.printf "\nrule pack (%s):\n" (Paclint.Rules.scheme_name sc);
        List.iter
          (fun r ->
            Printf.printf "  %-24s %s\n" r.Paclint.Rules.name r.Paclint.Rules.describes)
          (Paclint.Rules.pack sc)
      end
    end
    else if json then print_string (Paclint.Diag.list_to_json diags)
    else begin
      List.iter (fun d -> Printf.printf "%s\n" (Paclint.Diag.to_string d)) diags;
      Printf.printf "%s: %d diagnostics (%d errors, %d warnings/notes)\n" subject
        (List.length diags) (List.length errors)
        (List.length diags - List.length errors)
    end;
    if errors <> [] then exit 1
  in
  let doc =
    "Statically lint the kernel image (or a .kelf module with \
     $(b,--module)) with the whole-image interprocedural PAC analyzer: \
     call-graph reconstruction, per-function summaries to fixpoint, the \
     modifier-collision gadget census and the scheme's rule pack; exit \
     non-zero on error-severity findings."
  in
  Cmd.v (Cmd.info "lint" ~doc)
    Term.(
      const run $ image_config_arg $ json_arg $ calls_arg $ gadgets_arg $ scheme_arg
      $ workers_arg $ module_arg)

let modgen_cmd =
  let dir_arg =
    let doc = "Directory to write the sample .kelf objects into." in
    Arg.(value & opt dir "." & info [ "o"; "out" ] ~docv:"DIR" ~doc)
  in
  let run config dir =
    List.iter
      (fun (base, obj) ->
        let path = Filename.concat dir (base ^ ".kelf") in
        Kelf.Object_file.write_file path obj;
        Printf.printf "wrote %s (%d functions, %d instructions)\n" path
          (List.length obj.Kelf.Object_file.functions)
          (Kelf.Object_file.text_instruction_count obj))
      (Kelf.Samples.all config)
  in
  let doc =
    "Write the sample .kelf module objects (a clean module and the \
     cross-function signing-oracle / modifier-collision fixture) for the \
     $(b,lint --module) workflow. A .kelf file is readable only by the \
     binary that wrote it."
  in
  Cmd.v (Cmd.info "modgen" ~doc) Term.(const run $ image_config_arg $ dir_arg)

let faults_cmd =
  let trials_arg =
    let doc = "Number of fault-injection trials to run." in
    Arg.(value & opt int 100 & info [ "trials" ] ~docv:"N" ~doc)
  in
  let json_arg =
    let doc = "Emit the campaign report as deterministic JSON." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let quarantine_arg =
    let doc =
      "Offline a core after it accumulates $(docv) PAC authentication failures."
    in
    Arg.(value & opt (some int) None & info [ "quarantine" ] ~docv:"N" ~doc)
  in
  let demo_arg =
    let doc =
      "Run the per-CPU quarantine demonstration (stuck key-register fault on one \
       core) instead of a random campaign."
    in
    Arg.(value & flag & info [ "demo" ] ~doc)
  in
  let retries_arg =
    let doc =
      "Re-attempts granted to a raising trial job before it is quarantined \
       and reported as failed."
    in
    Arg.(value & opt (some int) None & info [ "retries" ] ~docv:"N" ~doc)
  in
  let record_arg =
    let doc =
      "Write a deterministic record-replay log of the campaign into $(docv) \
       (as faults-<seed>-<trials>.replay), re-runnable bit-for-bit with \
       $(b,camouflage replay)."
    in
    Arg.(value & opt (some dir) None & info [ "record-dir" ] ~docv:"DIR" ~doc)
  in
  let chrome_arg =
    let doc =
      "Run the campaign under telemetry and write the merged multi-trial \
       Chrome trace (one per-trial process lane, per-core thread tracks) to \
       $(docv). Byte-identical for every worker count."
    in
    Arg.(value & opt (some out_file) None & info [ "chrome" ] ~docv:"FILE" ~doc)
  in
  let lanes_arg =
    let doc = "Number of trial lanes kept for the $(b,--chrome) trace." in
    Arg.(value & opt int 4 & info [ "lanes" ] ~docv:"N" ~doc)
  in
  let hist_json_arg =
    let doc =
      "Run the campaign under telemetry and write the merged span latency \
       histograms to $(docv) as byte-stable JSON. Byte-identical for every \
       worker count (the merge is an exact commutative monoid folded in \
       trial-index order)."
    in
    Arg.(value & opt (some out_file) None & info [ "hist-json" ] ~docv:"FILE" ~doc)
  in
  let run config seed cpus tier trials json quarantine workers retries
      record_dir chrome lanes hist_json demo =
    if demo then print_string (Faultinj.Campaign.demo_to_string (Faultinj.Campaign.quarantine_demo ~seed ()))
    else begin
      let shape =
        { Faultinj.Campaign.default_shape with cpus; quarantine_after = quarantine }
      in
      (* the ranges serve and replay accept, so every recorded log replays *)
      (match Faultinj.Campaign.check ~trials shape with
      | Ok () -> ()
      | Error e ->
          Printf.eprintf "faults: %s\n" e;
          exit 2);
      (* the sequential path is just the fleet engine at --workers 1 *)
      let telemetry = chrome <> None || hist_json <> None in
      let result =
        Option.get
          (Fleet.Campaign.run ~config ~config_name:(C.Config.name config)
             ~shape ~workers ?retries ?record_dir ~telemetry ?tier
             ~lanes:(if chrome = None then 0 else max 0 lanes)
             ~seed ~trials ())
      in
      let report = result.Fleet.Campaign.report in
      if json then print_string (Faultinj.Campaign.report_to_json report)
      else print_string (Faultinj.Campaign.report_to_string report);
      (match (chrome, result.Fleet.Campaign.telemetry) with
      | Some path, Some tel ->
          let doc =
            Telemetry.Chrome.serialize_lanes tel.Fleet.Campaign.lanes
          in
          (match Telemetry.Chrome.validate doc with
          | Ok () -> ()
          | Error e -> failwith ("fleet trace failed validation: " ^ e));
          let oc = open_out path in
          output_string oc doc;
          close_out oc;
          Printf.eprintf "chrome trace (%d lanes) written to %s\n"
            (List.length tel.Fleet.Campaign.lanes)
            path
      | _ -> ());
      (match (hist_json, result.Fleet.Campaign.telemetry) with
      | Some path, Some tel ->
          let oc = open_out path in
          output_string oc
            (Telemetry.Span.histograms_to_json tel.Fleet.Campaign.hists);
          output_string oc "\n";
          close_out oc;
          Printf.eprintf "span histograms written to %s\n" path
      | _ -> ());
      (* side-channel notes go to stderr: stdout stays a clean report *)
      (match result.Fleet.Campaign.record_path with
      | Some path -> Printf.eprintf "replay log written to %s\n" path
      | None -> ());
      match result.Fleet.Campaign.failures with
      | [] -> ()
      | fs ->
          List.iter
            (fun f ->
              Printf.eprintf "warning: trial %d failed after %d attempts: %s\n"
                f.Fleet.Pool.job f.Fleet.Pool.attempts f.Fleet.Pool.error)
            fs
    end
  in
  let doc =
    "Run a seeded fault-injection campaign (bit flips in memory, registers, PAC \
     fields and key registers; instruction skips) and report how faults were \
     detected or survived. Fully deterministic per seed and worker count."
  in
  Cmd.v (Cmd.info "faults" ~doc)
    Term.(
      const run $ config_arg $ seed_arg $ smp_cpus_arg $ exec_tier_arg
      $ trials_arg $ json_arg $ quarantine_arg $ workers_arg $ retries_arg
      $ record_arg $ chrome_arg $ lanes_arg $ hist_json_arg $ demo_arg)

let replay_cmd =
  let log_arg =
    let doc = "Replay log written by $(b,camouflage faults --record-dir)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"LOG" ~doc)
  in
  let trial_arg =
    let doc = "Replay only trial $(docv) instead of every recorded trial." in
    Arg.(value & opt (some int) None & info [ "trial" ] ~docv:"N" ~doc)
  in
  let run log_path trial tier =
    match Faultinj.Replay.read ~path:log_path with
    | Error e ->
        Printf.eprintf "%s: %s\n" log_path e;
        exit 2
    | Ok log -> (
        match Faultinj.Replay.replay ?index:trial ?tier log with
        | Error e ->
            Printf.eprintf "replay failed: %s\n" e;
            exit 2
        | Ok verdicts ->
            List.iter
              (fun v -> print_endline (Faultinj.Replay.verdict_to_string v))
              verdicts;
            let diverged =
              List.filter (fun v -> not (Faultinj.Replay.verdict_ok v)) verdicts
            in
            Printf.printf
              "replayed %d trial(s) against golden fingerprint %s: %s\n"
              (List.length verdicts)
              log.Snapshot.Log.header.Snapshot.Log.h_golden_fingerprint
              (if diverged = [] then "all byte-identical"
               else Printf.sprintf "%d DIVERGED" (List.length diverged));
            if diverged <> [] then exit 1)
  in
  let doc =
    "Re-execute trials from a recorded fault campaign and hard-assert that \
     every replayed entry — fault spec, outcome, makespan and post-trial \
     state fingerprint — is byte-identical to the recording. Exits non-zero \
     on any divergence."
  in
  Cmd.v (Cmd.info "replay" ~doc)
    Term.(const run $ log_arg $ trial_arg $ exec_tier_arg)

let sweep_cmd =
  (* the ranges [serve] accepts for a bruteforce job *)
  let machines_arg =
    let lo, hi = Fleet.Sweep.machines_range in
    let doc =
      Printf.sprintf "Number of independent machines to boot and attack (%d-%d)." lo hi
    in
    let machines = count_conv ~what:"machine count" ~lo ~hi in
    Arg.(value & opt machines 16 & info [ "machines" ] ~docv:"N" ~doc)
  in
  let attempts_arg =
    let lo, hi = Fleet.Sweep.attempts_range in
    let doc = Printf.sprintf "PAC forgery attempts per machine (%d-%d)." lo hi in
    let attempts = count_conv ~what:"attempt count" ~lo ~hi in
    Arg.(value & opt attempts 8 & info [ "attempts" ] ~docv:"N" ~doc)
  in
  let threshold_arg =
    let lo, hi = Fleet.Sweep.threshold_range in
    let doc = Printf.sprintf "Override the brute-force panic threshold (%d-%d)." lo hi in
    let threshold = count_conv ~what:"threshold" ~lo ~hi in
    Arg.(value & opt (some threshold) None & info [ "threshold" ] ~docv:"N" ~doc)
  in
  let json_arg =
    let doc = "Emit the sweep report as deterministic JSON." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let run config seed machines attempts threshold workers json =
    let report, _, failures =
      Option.get
        (Fleet.Sweep.run ~config ?threshold ~workers ~seed
           ~machines ~attempts ())
    in
    if json then print_string (Fleet.Sweep.report_to_json report)
    else print_string (Fleet.Sweep.report_to_string report);
    List.iter
      (fun f ->
        Printf.eprintf "warning: machine %d failed after %d attempts: %s\n"
          f.Fleet.Pool.job f.Fleet.Pool.attempts f.Fleet.Pool.error)
      failures
  in
  let doc =
    "Run the PAC brute-force attack and accounting audit across a fleet of \
     independent machines (work-stealing domains, index-merged byte-stable \
     report)."
  in
  Cmd.v (Cmd.info "sweep" ~doc)
    Term.(
      const run $ config_arg $ seed_arg $ machines_arg $ attempts_arg
      $ threshold_arg $ workers_arg $ json_arg)

let serve_cmd =
  let run () = Fleet.Serve.loop (Fleet.Serve.create ()) in
  let doc =
    "Serve the campaign control plane: one JSON request per line on stdin \
     (ping, submit, status, report, cancel, shutdown), one JSON response per \
     line on stdout. Campaigns run asynchronously on fleet worker domains."
  in
  Cmd.v (Cmd.info "serve" ~doc) Term.(const run $ const ())

let main =
  let doc = "Camouflage: hardware-assisted CFI for an ARM-like kernel (DAC'20 reproduction)" in
  Cmd.group (Cmd.info "camouflage" ~version:"1.0.0" ~doc)
    [
      boot_cmd; attack_cmd; census_cmd; disasm_cmd; integrity_cmd; trace_cmd;
      stats_cmd; lint_cmd; modgen_cmd; faults_cmd; replay_cmd; sweep_cmd;
      serve_cmd;
    ]

let () = exit (Cmd.eval main)
