(* Differential verification of the decoded-instruction cache and
   micro-TLB (Icache). The cache is a host-speed optimization and must
   be architecturally invisible: cached and uncached execution have to
   be bit-identical — same final registers, memory, stop reasons, cycle
   and retirement totals, telemetry — while every invalidation source
   (stores over code, stage-2 permission flips, MMU-control register
   writes, module unload/reload, injected faults) keeps it coherent. *)

open Aarch64
module C = Camouflage
module K = Kernel
module O = Kelf.Object_file
module I = Faultinj.Injector

(* ---------- helpers ---------- *)

let mov_abs r v =
  let chunk i =
    Int64.to_int (Int64.logand (Int64.shift_right_logical v (16 * i)) 0xffffL)
  in
  Asm.ins (Insn.Movz (r, chunk 0, 0))
  :: List.map (fun i -> Asm.ins (Insn.Movk (r, chunk i, 16 * i))) [ 1; 2; 3 ]

(* Full architectural state (registers, SP, flags, cycle and retirement
   counts, trace ring) plus optionally probed memory words. *)
let fingerprint ?(probe = []) cpu =
  let b = Buffer.create 512 in
  Buffer.add_string b (Cpu.dump_state ~trace_limit:16 cpu);
  List.iter
    (fun va ->
      Buffer.add_string b (Printf.sprintf "[%Lx]=%Lx " va (Bare.read64 cpu va)))
    probe;
  Buffer.contents b

let check_cache_was_used cpu =
  let s = Icache.stats (Cpu.icache cpu) in
  Alcotest.(check bool) "cached run actually hit the cache" true
    (s.Icache.fetch_hits > 0)

(* ---------- differential: call-heavy bare workload (E2 probe) ---------- *)

let run_calls config ~tier =
  let cpu = Bare.machine ~seed:9L ~tier () in
  let obj = Workloads.Calls.calls_object config ~calls:400 in
  let prog = Asm.create () in
  List.iter
    (fun (name, items) -> Asm.add_function prog ~name items)
    obj.O.functions;
  let layout = Bare.load cpu prog in
  (match Bare.call ~max_insns:1_000_000 cpu layout "caller" with
  | Cpu.Sentinel_return -> ()
  | other -> Alcotest.failf "calls workload stopped: %s" (Cpu.stop_to_string other));
  cpu

let test_diff_call_workload () =
  List.iter
    (fun config ->
      let on = run_calls config ~tier:Cpu.Icache in
      let off = run_calls config ~tier:Cpu.Interp in
      check_cache_was_used on;
      Alcotest.(check string)
        (C.Config.name config ^ ": cached state = uncached state")
        (fingerprint off) (fingerprint on))
    [ C.Config.none; C.Config.backward_only ]

(* ---------- differential: load/store-heavy bare workload ---------- *)

let memory_prog () =
  let prog = Asm.create () in
  Asm.add_function prog ~name:"memloop"
    (mov_abs (Insn.R 10) Bare.data_base
    @ [
        Asm.ins (Insn.Movz (Insn.R 11, 64, 0));
        Asm.ins (Insn.Movz (Insn.R 12, 0, 0));
        Asm.label "mloop";
        Asm.ins (Insn.Str (Insn.R 11, Insn.Off (Insn.R 10, 0)));
        Asm.ins (Insn.Ldr (Insn.R 13, Insn.Off (Insn.R 10, 0)));
        Asm.ins (Insn.Add_reg (Insn.R 12, Insn.R 12, Insn.R 13));
        Asm.ins (Insn.Stp (Insn.R 12, Insn.R 13, Insn.Pre (Insn.SP, -16)));
        Asm.ins (Insn.Ldp (Insn.R 12, Insn.R 13, Insn.Post (Insn.SP, 16)));
        Asm.ins (Insn.Str (Insn.R 12, Insn.Off (Insn.R 10, 8)));
        Asm.ins (Insn.Sub_imm (Insn.R 11, Insn.R 11, 1));
        Asm.cbnz_to (Insn.R 11) "mloop";
        Asm.ins (Insn.Mov (Insn.R 0, Insn.R 12));
        Asm.ins Insn.Ret;
      ]);
  prog

let run_memloop ~tier =
  let cpu = Bare.machine ~seed:9L ~tier () in
  let layout = Bare.load cpu (memory_prog ()) in
  (match Bare.call cpu layout "memloop" with
  | Cpu.Sentinel_return -> ()
  | other -> Alcotest.failf "memloop stopped: %s" (Cpu.stop_to_string other));
  fingerprint ~probe:[ Bare.data_base; Int64.add Bare.data_base 8L ] cpu

let test_diff_memory_workload () =
  Alcotest.(check string) "cached state = uncached state"
    (run_memloop ~tier:Cpu.Interp) (run_memloop ~tier:Cpu.Icache)

(* ---------- differential: SMP schedule + telemetry fingerprint ---------- *)

let smp_fingerprint sys (stats : K.System.smp_stats) =
  let b = Buffer.create 512 in
  Printf.bprintf b
    "slices=%d preemptions=%d migrations=%d ipis=%d makespan=%Ld offlined=%s\n"
    stats.K.System.smp_slices stats.K.System.smp_preemptions
    stats.K.System.smp_migrations stats.K.System.smp_ipis
    stats.K.System.makespan
    (String.concat "," (List.map string_of_int stats.K.System.smp_offlined));
  Array.iteri
    (fun i c -> Printf.bprintf b "cpu%d=%Ld " i c)
    stats.K.System.per_cpu_cycles;
  List.iter
    (fun (cpu, pid, e) ->
      Printf.bprintf b "\nexit cpu%d pid%d %s" cpu pid
        (K.System.user_exit_to_string e))
    stats.K.System.smp_exits;
  List.iter (fun l -> Printf.bprintf b "\n%s" l) (K.System.log sys);
  (match K.System.telemetry sys with
  | Some hub ->
      Printf.bprintf b "\n%s"
        (Telemetry.Counters.to_json (Telemetry.Hub.counters hub))
  | None -> ());
  Buffer.contents b

let run_smp_workload ~tier =
  let sys =
    K.System.boot ~config:C.Config.full ~seed:23L ~cpus:3 ~tier
      ~telemetry:true ()
  in
  let layout =
    K.System.map_user_program sys (Workloads.Smp.throughput_program ~rounds:6)
  in
  let entry = Asm.symbol layout "throughput" in
  let tasks = List.init 6 (fun _ -> K.System.spawn_user_task sys ~entry) in
  let stats = K.System.run_smp ~quantum:400 sys ~tasks in
  smp_fingerprint sys stats

let test_diff_smp_schedule () =
  Alcotest.(check string)
    "SMP schedule, exits, per-core cycles and counters match"
    (run_smp_workload ~tier:Cpu.Interp)
    (run_smp_workload ~tier:Cpu.Icache)

(* ---------- self-modifying code: store-hook invalidation ---------- *)

(* The program patches two of its own instruction slots mid-run and
   loops back over them: pass 1 executes the originals and performs the
   store, pass 2 must execute the replacements. A stale cached decode
   would replay the originals — caught against the uncached run. *)

type selfmod_case = {
  before : Insn.t list;  (* odd length keeps the victim slot 8-aligned *)
  originals : Insn.t * Insn.t;
  replacements : Insn.t * Insn.t;
  after : Insn.t list;
}

let selfmod_prog case ~word =
  let prog = Asm.create () in
  Asm.add_function prog ~name:"selfmod"
    (Asm.mov_addr (Insn.R 10) "victim"
    @ mov_abs (Insn.R 11) word
    @ [ Asm.ins (Insn.Movz (Insn.R 12, 1, 0)); Asm.label "top" ]
    @ List.map Asm.ins case.before
    @ [
        Asm.label "victim";
        Asm.ins (fst case.originals);
        Asm.ins (snd case.originals);
      ]
    @ List.map Asm.ins case.after
    @ [
        Asm.cbz_to (Insn.R 12) "done";
        Asm.ins (Insn.Movz (Insn.R 12, 0, 0));
        Asm.ins (Insn.Str (Insn.R 11, Insn.Off (Insn.R 10, 0)));
        Asm.b_to "top";
        Asm.label "done";
        Asm.ins Insn.Ret;
      ]);
  prog

let run_selfmod case ~tier =
  (* The victim address is known before assembly: the function sits at
     [code_base] and the prefix ahead of the "victim" label is always
     mov_addr (4) + mov_abs (4) + one Movz + the filler. *)
  let victim =
    Int64.add Bare.code_base (Int64.of_int (4 * (9 + List.length case.before)))
  in
  assert (Int64.rem victim 8L = 0L);
  let enc pc insn =
    Int64.logand (Int64.of_int32 (Encode.encode ~pc insn)) 0xffffffffL
  in
  let word =
    Int64.logor
      (enc victim (fst case.replacements))
      (Int64.shift_left (enc (Int64.add victim 4L) (snd case.replacements)) 32)
  in
  let cpu = Bare.machine ~seed:3L ~tier () in
  (* the program patches itself, so its code pages must be writable *)
  Bare.map_region cpu ~base:Bare.code_base ~pages:16 Mmu.rwx;
  let layout = Bare.load cpu (selfmod_prog case ~word) in
  assert (Asm.symbol layout "selfmod" = Bare.code_base);
  let stop = Bare.call ~max_insns:100_000 cpu layout "selfmod" in
  (Cpu.stop_to_string stop, cpu)

let test_selfmod_patch_takes_effect () =
  let case =
    {
      before = [ Insn.Nop ];
      originals = (Insn.Movz (Insn.R 0, 1, 0), Insn.Nop);
      replacements = (Insn.Movz (Insn.R 0, 2, 0), Insn.Nop);
      after = [];
    }
  in
  let stop, cpu = run_selfmod case ~tier:Cpu.Icache in
  Alcotest.(check string) "returned" "sentinel return" stop;
  let s = Icache.stats (Cpu.icache cpu) in
  Alcotest.(check bool) "the store dropped cached decodes" true
    (s.Icache.invalidations > 0);
  Alcotest.(check int64) "pass 2 executed the patched instruction" 2L
    (Cpu.reg cpu (Insn.R 0));
  let _, cpu_off = run_selfmod case ~tier:Cpu.Interp in
  Alcotest.(check string) "cached = uncached" (fingerprint cpu_off)
    (fingerprint cpu)

let gen_simple =
  QCheck2.Gen.(
    let reg = map (fun n -> Insn.R n) (int_range 0 5) in
    let imm12 = int_range 0 4095 in
    oneof
      [
        map2 (fun r v -> Insn.Movz (r, v, 0)) reg (int_range 0 0xffff);
        map3 (fun d n v -> Insn.Add_imm (d, n, v)) reg reg imm12;
        map3 (fun d n v -> Insn.Sub_imm (d, n, v)) reg reg imm12;
        map3 (fun d n m -> Insn.Add_reg (d, n, m)) reg reg reg;
        map3 (fun d n m -> Insn.Eor_reg (d, n, m)) reg reg reg;
        map3 (fun d n m -> Insn.Orr_reg (d, n, m)) reg reg reg;
        map2 (fun d n -> Insn.Lsl_imm (d, n, 3)) reg reg;
        return Insn.Nop;
      ])

let gen_selfmod =
  QCheck2.Gen.(
    map (fun n -> (2 * n) + 1) (int_range 0 4) >>= fun k ->
    list_size (return k) gen_simple >>= fun before ->
    gen_simple >>= fun o1 ->
    gen_simple >>= fun o2 ->
    gen_simple >>= fun r1 ->
    gen_simple >>= fun r2 ->
    list_size (int_range 0 8) gen_simple >>= fun after ->
    return { before; originals = (o1, o2); replacements = (r1, r2); after })

let print_selfmod case =
  Printf.sprintf "before=[%s] originals=[%s; %s] replacements=[%s; %s] after=[%s]"
    (String.concat "; " (List.map Insn.to_string case.before))
    (Insn.to_string (fst case.originals))
    (Insn.to_string (snd case.originals))
    (Insn.to_string (fst case.replacements))
    (Insn.to_string (snd case.replacements))
    (String.concat "; " (List.map Insn.to_string case.after))

let prop_selfmod =
  QCheck2.Test.make ~count:40
    ~name:"random self-patching programs: cached = uncached"
    ~print:print_selfmod gen_selfmod (fun case ->
      let stop_on, cpu_on = run_selfmod case ~tier:Cpu.Icache in
      let stop_off, cpu_off = run_selfmod case ~tier:Cpu.Interp in
      stop_on = stop_off && fingerprint cpu_on = fingerprint cpu_off)

(* ---------- module unload/reload at the same address ---------- *)

let load_work_module sys name ret =
  let config = K.System.config sys in
  let h =
    C.Instrument.wrap config ~name:"h" [ Asm.ins (Insn.Movz (Insn.R 0, ret, 0)) ]
  in
  let obj =
    O.empty name
    |> fun o ->
    O.add_function o ~name:"h" h.C.Instrument.items
    |> fun o ->
    O.add_data o { O.blob_name = "w"; words = [ O.Lit 0L; O.Sym "h" ] }
    |> fun o ->
    O.add_static_sign o
      {
        O.sign_blob = "w";
        word_index = 1;
        type_name = "work_struct";
        member_name = "func";
      }
  in
  match K.System.load_module sys obj with
  | Result.Error e -> Alcotest.failf "load %s: %s" name (Kelf.Loader.error_to_string e)
  | Result.Ok placed -> placed

let dispatch sys placed =
  match K.System.run_work sys ~work_va:(Kelf.Loader.symbol placed "w") with
  | K.System.Ok v -> v
  | K.System.Killed m | K.System.Panicked m -> Alcotest.failf "dispatch: %s" m

let run_reload ~tier =
  let sys = K.System.boot ~config:C.Config.full ~seed:3L ~tier () in
  let a = load_work_module sys "mod_a" 1 in
  let va = dispatch sys a in
  K.System.unload_module sys a;
  let b = load_work_module sys "mod_b" 2 in
  Alcotest.(check int64) "reload reuses the module area"
    a.Kelf.Loader.text_base b.Kelf.Loader.text_base;
  (va, dispatch sys b)

let test_unload_reload_invalidates () =
  let on = run_reload ~tier:Cpu.Icache in
  let off = run_reload ~tier:Cpu.Interp in
  Alcotest.(check (pair int64 int64))
    "second handler's code executes, not a stale decode" (1L, 2L) on;
  Alcotest.(check (pair int64 int64)) "cached = uncached" off on

(* ---------- stage-2 (XOM-style) permission flip ---------- *)

let run_stage2_flip ~tier =
  let cpu = Bare.machine ~seed:5L ~tier () in
  let prog = Asm.create () in
  Asm.add_function prog ~name:"f"
    [ Asm.ins (Insn.Movz (Insn.R 0, 7, 0)); Asm.ins Insn.Ret ];
  let layout = Bare.load cpu prog in
  let pa_page = Vaddr.page_of (Bare.pa_of_va (Asm.symbol layout "f")) in
  let mmu = Cpu.mmu cpu in
  let s1 = Bare.call cpu layout "f" in
  Mmu.stage2_protect mmu ~pa_page Mmu.rw;
  let s2 = Bare.call cpu layout "f" in
  Mmu.stage2_protect mmu ~pa_page Mmu.rx;
  let s3 = Bare.call cpu layout "f" in
  (List.map Cpu.stop_to_string [ s1; s2; s3 ], Cpu.reg cpu (Insn.R 0))

let test_stage2_flip_invalidates () =
  let (stops_on, r_on) = run_stage2_flip ~tier:Cpu.Icache in
  let (stops_off, r_off) = run_stage2_flip ~tier:Cpu.Interp in
  (match stops_on with
  | [ first; revoked; restored ] ->
      Alcotest.(check string) "first call returns" first restored;
      Alcotest.(check bool) "revoked execute permission faults" true
        (revoked <> first)
  | _ -> Alcotest.fail "expected three stops");
  Alcotest.(check (list string)) "cached = uncached stops" stops_off stops_on;
  Alcotest.(check int64) "cached = uncached result" r_off r_on

(* ---------- executed-MSR flush matrix ---------- *)

let test_msr_flush_matrix () =
  let cpu = Bare.machine ~seed:4L () in
  let _, da_lo = Sysreg.key_halves Sysreg.DA in
  let prog = Asm.create () in
  Asm.add_function prog ~name:"touch"
    [ Asm.ins (Insn.Movz (Insn.R 0, 9, 0)); Asm.ins Insn.Ret ];
  Asm.add_function prog ~name:"ttbr"
    [
      Asm.ins (Insn.Mrs (Insn.R 1, Sysreg.TTBR0_EL1));
      Asm.ins (Insn.Msr (Sysreg.TTBR0_EL1, Insn.R 1));
      Asm.ins Insn.Ret;
    ];
  Asm.add_function prog ~name:"asid"
    [
      Asm.ins (Insn.Mrs (Insn.R 1, Sysreg.CONTEXTIDR_EL1));
      Asm.ins (Insn.Msr (Sysreg.CONTEXTIDR_EL1, Insn.R 1));
      Asm.ins Insn.Ret;
    ];
  Asm.add_function prog ~name:"keywr"
    [
      Asm.ins (Insn.Movz (Insn.R 1, 0x51ED, 0));
      Asm.ins (Insn.Msr (da_lo, Insn.R 1));
      Asm.ins Insn.Ret;
    ];
  let layout = Bare.load cpu prog in
  let flushes () = (Icache.stats (Cpu.icache cpu)).Icache.flushes in
  let expect name delta =
    let before = flushes () in
    (match Bare.call cpu layout name with
    | Cpu.Sentinel_return -> ()
    | s -> Alcotest.failf "%s stopped: %s" name (Cpu.stop_to_string s));
    Alcotest.(check int) (name ^ ": flush delta") delta (flushes () - before)
  in
  (* warm-up: the first fetch after boot syncs with the MMU generation
     counter (the boot-time mappings), which counts as one flush *)
  (match Bare.call cpu layout "touch" with
  | Cpu.Sentinel_return -> ()
  | s -> Alcotest.failf "warm-up stopped: %s" (Cpu.stop_to_string s));
  expect "touch" 0;
  expect "ttbr" 1;
  (* the flushed cache refills and execution stays correct *)
  expect "touch" 0;
  Alcotest.(check int64) "refilled run result" 9L (Cpu.reg cpu (Insn.R 0));
  expect "asid" 1;
  (* PAuth key writes are exempt: keys affect execution, not decode *)
  expect "keywr" 0

(* ---------- fault injector: stuck-at flip on cached code ---------- *)

let faultinj_prog () =
  let prog = Asm.create () in
  Asm.add_function prog ~name:"victim"
    [ Asm.ins (Insn.Movz (Insn.R 0, 1, 0)); Asm.ins Insn.Ret ];
  Asm.add_function prog ~name:"caller"
    [
      Asm.ins (Insn.Movz (Insn.R 19, 0, 0));
      Asm.ins (Insn.Movz (Insn.R 20, 6, 0));
      Asm.label "loop";
      Asm.ins (Insn.Stp (Insn.lr, Insn.R 20, Insn.Pre (Insn.SP, -16)));
      Asm.bl_to "victim";
      Asm.ins (Insn.Ldp (Insn.lr, Insn.R 20, Insn.Post (Insn.SP, 16)));
      Asm.ins (Insn.Add_reg (Insn.R 19, Insn.R 19, Insn.R 0));
      Asm.ins (Insn.Sub_imm (Insn.R 20, Insn.R 20, 1));
      Asm.cbnz_to (Insn.R 20) "loop";
      Asm.ins (Insn.Mov (Insn.R 0, Insn.R 19));
      Asm.ins Insn.Ret;
    ];
  prog

let run_stuck_fault ~tier =
  let cpu = Bare.machine ~seed:8L ~tier () in
  let layout = Bare.load cpu (faultinj_prog ()) in
  let victim = Asm.symbol layout "victim" in
  let inj =
    I.create
      {
        I.trigger = I.After_steps 12;
        model = I.Mem_flip { va = victim; bits = [ 1; 5 ] };
        persistence = I.Stuck;
      }
  in
  I.arm inj cpu;
  let stop = Bare.call ~max_insns:10_000 cpu layout "caller" in
  Alcotest.(check bool) "fault fired" true (I.fired inj);
  I.disarm cpu;
  (Cpu.stop_to_string stop, fingerprint cpu)

let test_stuck_fault_on_cached_code () =
  let on = run_stuck_fault ~tier:Cpu.Icache in
  let off = run_stuck_fault ~tier:Cpu.Interp in
  Alcotest.(check string) "cached = uncached stop" (fst off) (fst on);
  Alcotest.(check string) "cached = uncached state" (snd off) (snd on)

(* ---------- fast path engagement ---------- *)

let test_fast_path_without_hooks () =
  let cpu = Bare.machine ~tier:Cpu.Traces () in
  let prog = Asm.create () in
  Asm.add_function prog ~name:"f"
    [ Asm.ins (Insn.Movz (Insn.R 0, 1, 0)); Asm.ins Insn.Ret ];
  let layout = Bare.load cpu prog in
  let call what =
    match Bare.call cpu layout "f" with
    | Cpu.Sentinel_return -> ()
    | s -> Alcotest.failf "%s f stopped: %s" what (Cpu.stop_to_string s)
  in
  let tier =
    Alcotest.testable (fun fmt t -> Format.pp_print_string fmt (Cpu.tier_name t)) ( = )
  in
  call "unhooked";
  Alcotest.(check tier) "hook-free run takes the traces loop" Cpu.Traces
    (Cpu.last_run_tier cpu);
  Cpu.set_step_hook cpu (Some (fun _ ~pc:_ _ -> Cpu.Exec));
  call "hooked";
  Alcotest.(check tier) "a step hook forces the icache loop" Cpu.Icache
    (Cpu.last_run_tier cpu);
  Cpu.set_step_hook cpu None;
  call "unhooked";
  Alcotest.(check tier) "removing the hook restores the traces loop"
    Cpu.Traces (Cpu.last_run_tier cpu)

(* ---------- stats, flushing, sharing ---------- *)

let test_stats_and_flush () =
  let cpu = Bare.machine ~seed:2L () in
  let layout = Bare.load cpu (memory_prog ()) in
  let run what =
    match Bare.call cpu layout "memloop" with
    | Cpu.Sentinel_return -> ()
    | s -> Alcotest.failf "%s memloop stopped: %s" what (Cpu.stop_to_string s)
  in
  run "first";
  let ic = Cpu.icache cpu in
  let s = Icache.stats ic in
  Alcotest.(check bool) "hits observed" true (s.Icache.fetch_hits > 0);
  Alcotest.(check bool) "fills observed" true (s.Icache.fills > 0);
  Alcotest.(check bool) "enabled" true (Icache.enabled ic);
  Icache.flush ic;
  let s2 = Icache.stats ic in
  Alcotest.(check int) "flush is counted" (s.Icache.flushes + 1) s2.Icache.flushes;
  run "flushed";
  Alcotest.(check bool) "a flushed cache refills" true
    ((Icache.stats ic).Icache.fills > s2.Icache.fills)

let test_disabled_machine_never_counts () =
  let cpu = Bare.machine ~tier:Cpu.Interp () in
  let layout = Bare.load cpu (memory_prog ()) in
  (match Bare.call cpu layout "memloop" with
  | Cpu.Sentinel_return -> ()
  | s -> Alcotest.failf "memloop stopped: %s" (Cpu.stop_to_string s));
  let s = Icache.stats (Cpu.icache cpu) in
  Alcotest.(check int) "no hits" 0 s.Icache.fetch_hits;
  Alcotest.(check int) "no fills" 0 s.Icache.fills

let test_machine_shares_one_cache () =
  let m = Machine.create ~cpus:2 () in
  Alcotest.(check bool) "both cores use the machine cache" true
    (Cpu.icache (Machine.core m 0) == Cpu.icache (Machine.core m 1))

let suite =
  [
    Alcotest.test_case "differential: call-heavy workload" `Quick
      test_diff_call_workload;
    Alcotest.test_case "differential: load/store workload" `Quick
      test_diff_memory_workload;
    Alcotest.test_case "differential: SMP schedule + telemetry" `Quick
      test_diff_smp_schedule;
    Alcotest.test_case "self-patching code takes effect" `Quick
      test_selfmod_patch_takes_effect;
    QCheck_alcotest.to_alcotest prop_selfmod;
    Alcotest.test_case "module unload/reload at same address" `Quick
      test_unload_reload_invalidates;
    Alcotest.test_case "stage-2 permission flip" `Quick
      test_stage2_flip_invalidates;
    Alcotest.test_case "MSR flush matrix (TTBR/ASID yes, keys no)" `Quick
      test_msr_flush_matrix;
    Alcotest.test_case "stuck-at fault on cached code" `Quick
      test_stuck_fault_on_cached_code;
    Alcotest.test_case "hook-free runs take the fast path" `Quick
      test_fast_path_without_hooks;
    Alcotest.test_case "stats and explicit flush" `Quick
      test_stats_and_flush;
    Alcotest.test_case "disabled machine bypasses entirely" `Quick
      test_disabled_machine_never_counts;
    Alcotest.test_case "SMP machine shares one cache" `Quick
      test_machine_shares_one_cache;
  ]
