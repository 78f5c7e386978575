(* Tier-matrix verification of the superblock trace compiler (Traces).
   Compiled traces are a host-speed structure and must be
   architecturally invisible: every workload has to be bit-identical
   across the three execution tiers (interp / icache / traces) — same
   final registers, memory, stop reasons, cycle and retirement totals —
   while every invalidation channel (self-patching stores inside an
   active superblock, module unload/reload, executed MSR flushes,
   stage-2 permission flips, snapshot restores) keeps the trace cache
   coherent. The random-program side of this lives in [test_fuzz.ml];
   here are the hand-built edge cases. *)

open Aarch64
module C = Camouflage
module K = Kernel
module O = Kelf.Object_file

let all_tiers = Cpu.all_tiers

let tier_testable =
  Alcotest.testable (fun fmt t -> Format.pp_print_string fmt (Cpu.tier_name t)) ( = )

let mov_abs r v =
  let chunk i =
    Int64.to_int (Int64.logand (Int64.shift_right_logical v (16 * i)) 0xffffL)
  in
  Asm.ins (Insn.Movz (r, chunk 0, 0))
  :: List.map (fun i -> Asm.ins (Insn.Movk (r, chunk i, 16 * i))) [ 1; 2; 3 ]

let fingerprint ?(probe = []) cpu =
  let b = Buffer.create 512 in
  Buffer.add_string b (Cpu.dump_state ~trace_limit:16 cpu);
  List.iter
    (fun va ->
      Buffer.add_string b (Printf.sprintf "[%Lx]=%Lx " va (Bare.read64 cpu va)))
    probe;
  Buffer.contents b

let tstats cpu =
  match Cpu.trace_stats cpu with
  | Some s -> s
  | None -> Alcotest.fail "traces-tier core carries no trace cache"

let check_traces_engaged cpu =
  let s = tstats cpu in
  Alcotest.(check bool) "superblocks were compiled" true (s.Traces.compiled > 0);
  Alcotest.(check bool) "superblocks were dispatched" true (s.Traces.executed > 0);
  Alcotest.(check bool) "instructions retired inside blocks" true
    (s.Traces.block_insns > 0)

(* ---------- differential: hot loop across all three tiers ---------- *)

(* 64 iterations — far past the hot threshold (16), so the traces tier
   compiles and runs the body as a superblock. *)
let hot_loop_prog () =
  let prog = Asm.create () in
  Asm.add_function prog ~name:"hot"
    (mov_abs (Insn.R 10) Bare.data_base
    @ [
        Asm.ins (Insn.Movz (Insn.R 11, 64, 0));
        Asm.ins (Insn.Movz (Insn.R 12, 0, 0));
        Asm.label "loop";
        Asm.ins (Insn.Add_imm (Insn.R 12, Insn.R 12, 3));
        Asm.ins (Insn.Str (Insn.R 12, Insn.Off (Insn.R 10, 0)));
        Asm.ins (Insn.Ldr (Insn.R 13, Insn.Off (Insn.R 10, 0)));
        Asm.ins (Insn.Eor_reg (Insn.R 12, Insn.R 12, Insn.R 13));
        Asm.ins (Insn.Add_reg (Insn.R 12, Insn.R 12, Insn.R 13));
        Asm.ins (Insn.Sub_imm (Insn.R 11, Insn.R 11, 1));
        Asm.cbnz_to (Insn.R 11) "loop";
        Asm.ins (Insn.Mov (Insn.R 0, Insn.R 12));
        Asm.ins Insn.Ret;
      ]);
  prog

let run_hot_loop ~tier =
  let cpu = Bare.machine ~seed:7L ~tier () in
  let layout = Bare.load cpu (hot_loop_prog ()) in
  (match Bare.call cpu layout "hot" with
  | Cpu.Sentinel_return -> ()
  | s -> Alcotest.failf "hot loop stopped: %s" (Cpu.stop_to_string s));
  cpu

let test_diff_hot_loop () =
  let base = fingerprint ~probe:[ Bare.data_base ] (run_hot_loop ~tier:Cpu.Interp) in
  List.iter
    (fun tier ->
      let cpu = run_hot_loop ~tier in
      Alcotest.(check string)
        (Cpu.tier_name tier ^ " state = interp state")
        base
        (fingerprint ~probe:[ Bare.data_base ] cpu);
      if tier = Cpu.Traces then check_traces_engaged cpu)
    all_tiers

(* ---------- differential: call-heavy instrumented workload ---------- *)

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
  | s -> Alcotest.failf "calls workload stopped: %s" (Cpu.stop_to_string s));
  cpu

let test_diff_call_workload () =
  List.iter
    (fun config ->
      let base = fingerprint (run_calls config ~tier:Cpu.Interp) in
      List.iter
        (fun tier ->
          let cpu = run_calls config ~tier in
          Alcotest.(check string)
            (C.Config.name config ^ ": " ^ Cpu.tier_name tier ^ " = interp")
            base (fingerprint cpu);
          if tier = Cpu.Traces then check_traces_engaged cpu)
        all_tiers)
    [ C.Config.none; C.Config.backward_only ]

(* ---------- self-patching store inside an active superblock ---------- *)

(* The straight-line loop body contains both the patching store and the
   victim pair it overwrites, so the store fires while its own
   superblock is mid-dispatch: the driver must abort the dead block
   after the store and single-step the freshly patched victim. The
   store repeats every iteration, killing and recompiling the block
   each time — the hardest case for in-place invalidation. *)
let selfmod_prog ~word =
  let prog = Asm.create () in
  Asm.add_function prog ~name:"selfmod"
    (Asm.mov_addr (Insn.R 10) "victim"
    @ mov_abs (Insn.R 11) word
    @ [
        Asm.ins (Insn.Movz (Insn.R 12, 40, 0));
        Asm.ins (Insn.Movz (Insn.R 13, 0, 0));
        Asm.label "top";
        Asm.ins (Insn.Str (Insn.R 11, Insn.Off (Insn.R 10, 0)));
        Asm.ins Insn.Nop;
        Asm.label "victim";
        Asm.ins (Insn.Movz (Insn.R 0, 1, 0));
        Asm.ins Insn.Nop;
        Asm.ins (Insn.Add_reg (Insn.R 13, Insn.R 13, Insn.R 0));
        Asm.ins (Insn.Sub_imm (Insn.R 12, Insn.R 12, 1));
        Asm.cbnz_to (Insn.R 12) "top";
        Asm.ins (Insn.Mov (Insn.R 0, Insn.R 13));
        Asm.ins Insn.Ret;
      ]);
  prog

let run_selfmod ~tier =
  (* victim = code_base + 4 * (mov_addr 4 + mov_abs 4 + 2 movz + str + nop) *)
  let victim = Int64.add Bare.code_base (Int64.of_int (4 * 12)) in
  assert (Int64.rem victim 8L = 0L);
  let enc pc insn =
    Int64.logand (Int64.of_int32 (Encode.encode ~pc insn)) 0xffffffffL
  in
  let word =
    Int64.logor
      (enc victim (Insn.Movz (Insn.R 0, 2, 0)))
      (Int64.shift_left (enc (Int64.add victim 4L) Insn.Nop) 32)
  in
  let cpu = Bare.machine ~seed:3L ~tier () in
  Bare.map_region cpu ~base:Bare.code_base ~pages:16 Mmu.rwx;
  let layout = Bare.load cpu (selfmod_prog ~word) in
  assert (Asm.symbol layout "selfmod" = Bare.code_base);
  let stop = Bare.call ~max_insns:100_000 cpu layout "selfmod" in
  (Cpu.stop_to_string stop, cpu)

let test_selfmod_active_superblock () =
  let stop_tr, cpu_tr = run_selfmod ~tier:Cpu.Traces in
  Alcotest.(check string) "returned" "sentinel return" stop_tr;
  (* every iteration executes the patched movz: 40 * 2 *)
  Alcotest.(check int64) "patched instruction executed each pass" 80L
    (Cpu.reg cpu_tr (Insn.R 0));
  let s = tstats cpu_tr in
  Alcotest.(check bool) "the store killed compiled blocks" true
    (s.Traces.invalidations > 0);
  List.iter
    (fun tier ->
      let stop, cpu = run_selfmod ~tier in
      Alcotest.(check string)
        (Cpu.tier_name tier ^ " stop = traces stop") stop_tr stop;
      Alcotest.(check string)
        (Cpu.tier_name tier ^ " state = traces state")
        (fingerprint cpu_tr) (fingerprint cpu))
    [ Cpu.Interp; Cpu.Icache ]

(* ---------- module unload/reload mid-trace ---------- *)

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
  (* dispatch the first handler past the hot threshold so its text is
     sitting in compiled superblocks when the module goes away *)
  let va = ref 0L in
  for _ = 1 to 24 do
    va := dispatch sys a
  done;
  K.System.unload_module sys a;
  let b = load_work_module sys "mod_b" 2 in
  Alcotest.(check int64) "reload reuses the module area"
    a.Kelf.Loader.text_base b.Kelf.Loader.text_base;
  (!va, dispatch sys b)

let test_unload_reload_mid_trace () =
  let tr = run_reload ~tier:Cpu.Traces in
  Alcotest.(check (pair int64 int64))
    "second handler's code executes, not a stale trace" (1L, 2L) tr;
  List.iter
    (fun tier ->
      Alcotest.(check (pair int64 int64))
        (Cpu.tier_name tier ^ " = traces") tr (run_reload ~tier))
    [ Cpu.Interp; Cpu.Icache ]

(* ---------- executed-MSR flush matrix ---------- *)

let test_msr_flush_matrix () =
  let cpu = Bare.machine ~seed:4L ~tier:Cpu.Traces () in
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
  Asm.add_function prog ~name:"sctlr"
    [
      Asm.ins (Insn.Mrs (Insn.R 1, Sysreg.SCTLR_EL1));
      Asm.ins (Insn.Msr (Sysreg.SCTLR_EL1, Insn.R 1));
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
  let flushes () = (tstats cpu).Traces.flushes in
  let expect name delta =
    let before = flushes () in
    (match Bare.call cpu layout name with
    | Cpu.Sentinel_return -> ()
    | s -> Alcotest.failf "%s stopped: %s" name (Cpu.stop_to_string s));
    Alcotest.(check int) (name ^ ": trace flush delta") delta (flushes () - before)
  in
  (* warm-up: the first dispatch syncs with the MMU generation counter
     (the boot-time mappings), which counts as one flush *)
  (match Bare.call cpu layout "touch" with
  | Cpu.Sentinel_return -> ()
  | s -> Alcotest.failf "warm-up stopped: %s" (Cpu.stop_to_string s));
  expect "touch" 0;
  expect "ttbr" 1;
  expect "touch" 0;
  Alcotest.(check int64) "refilled run result" 9L (Cpu.reg cpu (Insn.R 0));
  expect "sctlr" 1;
  expect "asid" 1;
  (* PAuth key writes are exempt: keys affect execution, not decode *)
  expect "keywr" 0

(* ---------- stage-2 permission flip ---------- *)

let run_stage2_flip ~tier =
  let cpu = Bare.machine ~seed:5L ~tier () in
  let prog = Asm.create () in
  Asm.add_function prog ~name:"f"
    [ Asm.ins (Insn.Movz (Insn.R 0, 7, 0)); Asm.ins Insn.Ret ];
  let layout = Bare.load cpu prog in
  let pa_page = Vaddr.page_of (Bare.pa_of_va (Asm.symbol layout "f")) in
  let mmu = Cpu.mmu cpu in
  (* heat the function so the traces tier compiles it before the flip *)
  for _ = 1 to 24 do
    match Bare.call cpu layout "f" with
    | Cpu.Sentinel_return -> ()
    | s -> Alcotest.failf "warm f stopped: %s" (Cpu.stop_to_string s)
  done;
  Mmu.stage2_protect mmu ~pa_page Mmu.rw;
  let revoked = Bare.call cpu layout "f" in
  Mmu.stage2_protect mmu ~pa_page Mmu.rx;
  let restored = Bare.call cpu layout "f" in
  (List.map Cpu.stop_to_string [ revoked; restored ], Cpu.reg cpu (Insn.R 0))

let test_stage2_flip () =
  let stops_tr, r_tr = run_stage2_flip ~tier:Cpu.Traces in
  (match stops_tr with
  | [ revoked; restored ] ->
      Alcotest.(check string) "restored execute permission returns"
        "sentinel return" restored;
      Alcotest.(check bool) "revoked execute permission faults" true
        (revoked <> restored)
  | _ -> Alcotest.fail "expected two stops");
  List.iter
    (fun tier ->
      let stops, r = run_stage2_flip ~tier in
      Alcotest.(check (list string))
        (Cpu.tier_name tier ^ " stops = traces stops") stops_tr stops;
      Alcotest.(check int64)
        (Cpu.tier_name tier ^ " result = traces result") r_tr r)
    [ Cpu.Interp; Cpu.Icache ]

(* ---------- snapshot/restore across compiled traces ---------- *)

let test_snapshot_restore () =
  let run_twice m cpu layout =
    for _ = 1 to 2 do
      match Bare.call cpu layout "hot" with
      | Cpu.Sentinel_return -> ()
      | s -> Alcotest.failf "hot stopped: %s" (Cpu.stop_to_string s)
    done;
    Snapshot.Fingerprint.of_machine m
  in
  let m = Bare.smp ~seed:7L ~tier:Cpu.Traces () in
  let cpu = Machine.boot_core m in
  let layout = Bare.load cpu (hot_loop_prog ()) in
  (* heat + compile before the capture *)
  (match Bare.call cpu layout "hot" with
  | Cpu.Sentinel_return -> ()
  | s -> Alcotest.failf "pre-snapshot hot stopped: %s" (Cpu.stop_to_string s));
  check_traces_engaged cpu;
  let snap = Machine.snapshot m in
  let first = run_twice m cpu layout in
  Machine.restore m snap;
  let second = run_twice m cpu layout in
  Alcotest.(check string) "restored rerun is bit-identical" first second;
  (* and the whole sequence matches the icache tier *)
  let m2 = Bare.smp ~seed:7L ~tier:Cpu.Icache () in
  let cpu2 = Machine.boot_core m2 in
  let layout2 = Bare.load cpu2 (hot_loop_prog ()) in
  (match Bare.call cpu2 layout2 "hot" with
  | Cpu.Sentinel_return -> ()
  | s -> Alcotest.failf "icache hot stopped: %s" (Cpu.stop_to_string s));
  let snap2 = Machine.snapshot m2 in
  let first2 = run_twice m2 cpu2 layout2 in
  Machine.restore m2 snap2;
  ignore (run_twice m2 cpu2 layout2 : string);
  Alcotest.(check string) "traces fingerprint = icache fingerprint" first2 first

(* ---------- insn budget lands mid-block ---------- *)

let test_insn_limit_mid_block () =
  let run ~tier ~max_insns =
    let cpu = Bare.machine ~seed:7L ~tier () in
    let layout = Bare.load cpu (hot_loop_prog ()) in
    (* heat first so the budgeted run enters compiled blocks *)
    (match Bare.call cpu layout "hot" with
    | Cpu.Sentinel_return -> ()
    | s -> Alcotest.failf "warm hot stopped: %s" (Cpu.stop_to_string s));
    let stop = Bare.call ~max_insns cpu layout "hot" in
    (Cpu.stop_to_string stop, Cpu.insns_retired cpu, Cpu.pc cpu, Cpu.cycles cpu)
  in
  (* budgets chosen to land at every offset inside the 7-insn loop body *)
  List.iter
    (fun max_insns ->
      let base = run ~tier:Cpu.Interp ~max_insns in
      List.iter
        (fun tier ->
          let got = run ~tier ~max_insns in
          Alcotest.(check (pair string (pair int64 (pair int64 int64))))
            (Printf.sprintf "%s budget=%d" (Cpu.tier_name tier) max_insns)
            (let s, a, b, c = base in (s, (a, (b, c))))
            (let s, a, b, c = got in (s, (a, (b, c)))))
        all_tiers)
    [ 10; 11; 12; 13; 14; 15; 16; 17; 50 ]

(* ---------- block-to-block chaining ---------- *)

(* Chaining now shows at {e indirect} block boundaries: direct branches
   and predictable returns are inlined into the superblock itself, so
   the block-to-block edges that remain are the ones the compiler
   cannot follow statically — an indirect call (BLR) and its matching
   return. The hot loop below settles into two blocks (caller tail
   ending in BLR, helper body ending in RET) that chain to each other
   on every iteration. *)
let test_chaining () =
  let prog = Asm.create () in
  Asm.add_function prog ~name:"two_blocks"
    [
      Asm.ins (Insn.Movz (Insn.R 11, 200, 0));
      Asm.ins (Insn.Movz (Insn.R 12, 0, 0));
      Asm.ins (Insn.Mov (Insn.R 10, Insn.lr));
      Asm.adr_of (Insn.R 9) "helper";
      Asm.label "loop";
      Asm.ins (Insn.Blr (Insn.R 9));
      Asm.ins (Insn.Sub_imm (Insn.R 11, Insn.R 11, 1));
      Asm.cbnz_to (Insn.R 11) "loop";
      Asm.ins (Insn.Mov (Insn.R 0, Insn.R 12));
      Asm.ins (Insn.Mov (Insn.lr, Insn.R 10));
      Asm.ins Insn.Ret;
      Asm.label "helper";
      Asm.ins (Insn.Add_imm (Insn.R 12, Insn.R 12, 3));
      Asm.ins Insn.Ret;
    ];
  let cpu = Bare.machine ~seed:2L ~tier:Cpu.Traces () in
  let layout = Bare.load cpu prog in
  (match Bare.call cpu layout "two_blocks" with
  | Cpu.Sentinel_return -> ()
  | s -> Alcotest.failf "two_blocks stopped: %s" (Cpu.stop_to_string s));
  Alcotest.(check int64) "loop result" 600L (Cpu.reg cpu (Insn.R 0));
  let s = tstats cpu in
  Alcotest.(check bool) "chain edges recorded" true (s.Traces.chain_links > 0);
  Alcotest.(check bool) "chain edges followed" true (s.Traces.chain_follows > 0)

(* ---------- last_run_tier reporting ---------- *)

let trivial_layout cpu =
  let prog = Asm.create () in
  Asm.add_function prog ~name:"f"
    [ Asm.ins (Insn.Movz (Insn.R 0, 1, 0)); Asm.ins Insn.Ret ];
  Bare.load cpu prog

let call_f cpu layout =
  match Bare.call cpu layout "f" with
  | Cpu.Sentinel_return -> ()
  | s -> Alcotest.failf "f stopped: %s" (Cpu.stop_to_string s)

let test_last_run_tier () =
  List.iter
    (fun tier ->
      let cpu = Bare.machine ~tier () in
      Alcotest.(check tier_testable) "created tier" tier (Cpu.tier cpu);
      let layout = trivial_layout cpu in
      call_f cpu layout;
      Alcotest.(check tier_testable)
        (Cpu.tier_name tier ^ ": hook-free run reports its tier") tier
        (Cpu.last_run_tier cpu);
      Cpu.set_step_hook cpu (Some (fun _ ~pc:_ _ -> Cpu.Exec));
      call_f cpu layout;
      (* a hooked run cannot use compiled traces: a traces core drops to
         the icache tier, the others stay put *)
      let expected = if tier = Cpu.Traces then Cpu.Icache else tier in
      Alcotest.(check tier_testable)
        (Cpu.tier_name tier ^ ": hooked run reports the stepping tier")
        expected (Cpu.last_run_tier cpu);
      Cpu.set_step_hook cpu None;
      call_f cpu layout;
      Alcotest.(check tier_testable)
        (Cpu.tier_name tier ^ ": unhooking restores the tier") tier
        (Cpu.last_run_tier cpu))
    all_tiers;
  Alcotest.(check tier_testable) "default machine runs the icache tier"
    Cpu.Icache
    (Cpu.tier (Bare.machine ()))

let test_tier_of_string () =
  List.iter
    (fun tier ->
      match Cpu.tier_of_string (Cpu.tier_name tier) with
      | Some t -> Alcotest.(check tier_testable) "round-trips" tier t
      | None -> Alcotest.failf "%s does not parse" (Cpu.tier_name tier))
    all_tiers;
  Alcotest.(check bool) "junk rejected" true (Cpu.tier_of_string "jit" = None)

let suite =
  [
    Alcotest.test_case "differential: hot loop across tiers" `Quick
      test_diff_hot_loop;
    Alcotest.test_case "differential: call-heavy workload across tiers" `Quick
      test_diff_call_workload;
    Alcotest.test_case "self-patching store inside an active superblock" `Quick
      test_selfmod_active_superblock;
    Alcotest.test_case "module unload/reload mid-trace" `Quick
      test_unload_reload_mid_trace;
    Alcotest.test_case "executed-MSR flush matrix (TTBR/SCTLR/ASID yes, keys no)"
      `Quick test_msr_flush_matrix;
    Alcotest.test_case "stage-2 permission flip kills hot traces" `Quick
      test_stage2_flip;
    Alcotest.test_case "snapshot/restore across compiled traces" `Quick
      test_snapshot_restore;
    Alcotest.test_case "insn budget landing mid-block" `Quick
      test_insn_limit_mid_block;
    Alcotest.test_case "block-to-block chaining" `Quick test_chaining;
    Alcotest.test_case "last_run_tier reporting" `Quick test_last_run_tier;
    Alcotest.test_case "tier_of_string round-trip" `Quick test_tier_of_string;
  ]
