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

let run_calls ~calls config ~tier =
  let cpu = Bare.machine ~seed:9L ~tier () in
  let obj = Workloads.Calls.calls_object config ~calls in
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
      let base = fingerprint (run_calls ~calls:400 config ~tier:Cpu.Interp) in
      List.iter
        (fun tier ->
          let cpu = run_calls ~calls:400 config ~tier in
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
  let victim = Int64.add Env.code_base (Int64.of_int (4 * 12)) in
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
  Env.map_region cpu ~base:Env.code_base ~pages:16 Mmu.rwx;
  let layout = Bare.load cpu (selfmod_prog ~word) in
  assert (Asm.symbol layout "selfmod" = Env.code_base);
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
  let pa_page = Vaddr.page_of (Env.pa_of_va (Asm.symbol layout "f")) in
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
      (* below its hook's horizon a traces core runs its trace cache *)
      Cpu.set_step_horizon cpu (Int64.add (Cpu.cycles cpu) 1_000L);
      call_f cpu layout;
      Alcotest.(check tier_testable)
        (Cpu.tier_name tier ^ ": a hook whose horizon lies ahead keeps the tier")
        tier (Cpu.last_run_tier cpu);
      Cpu.set_step_horizon cpu (Cpu.cycles cpu);
      call_f cpu layout;
      Alcotest.(check tier_testable)
        (Cpu.tier_name tier ^ ": a hook whose horizon has passed steps")
        expected (Cpu.last_run_tier cpu);
      Cpu.set_step_hook cpu None;
      call_f cpu layout;
      Alcotest.(check tier_testable)
        (Cpu.tier_name tier ^ ": unhooking restores the tier") tier
        (Cpu.last_run_tier cpu);
      (* a sink observes every retirement, which blocks do not report *)
      Cpu.attach_telemetry cpu (Telemetry.Sink.create ~cpu:0 ());
      call_f cpu layout;
      Alcotest.(check tier_testable)
        (Cpu.tier_name tier ^ ": observed run reports the stepping tier")
        expected (Cpu.last_run_tier cpu);
      Cpu.detach_telemetry cpu;
      call_f cpu layout;
      Alcotest.(check tier_testable)
        (Cpu.tier_name tier ^ ": detaching restores the tier") tier
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

(* ---------- per-op page caches: bit 63 of the address ---------- *)

(* A hot loop warms the page cache of one load (or store) on the data
   page; then x0 gets bit 63 flipped and the same instruction runs once
   more. The flipped address differs from the cached page only in bit
   63, which a page number truncated to a native int before the shift
   drops: such a cache hits where every tier must fault. *)
let bit63_prog access =
  let prog = Asm.create () in
  Asm.add_function prog ~name:"alias"
    (mov_abs (Insn.R 0) Bare.data_base
    @ [
        Asm.ins (Insn.Movz (Insn.R 3, 0x8000, 48));
        Asm.ins (Insn.Movz (Insn.R 11, 40, 0));
        Asm.label "loop";
        Asm.ins access;
        Asm.ins (Insn.Sub_imm (Insn.R 11, Insn.R 11, 1));
        Asm.cbnz_to (Insn.R 11) "loop";
        Asm.cbz_to (Insn.R 3) "done";
        Asm.ins (Insn.Eor_reg (Insn.R 0, Insn.R 0, Insn.R 3));
        Asm.ins (Insn.Movz (Insn.R 3, 0, 0));
        Asm.ins (Insn.Movz (Insn.R 11, 1, 0));
        Asm.b_to "loop";
        Asm.label "done";
        Asm.ins Insn.Ret;
      ]);
  prog

let test_bit63_alias access kind () =
  let run tier =
    let cpu = Bare.machine ~seed:5L ~tier () in
    let layout = Bare.load cpu (bit63_prog access) in
    let stop = Cpu.stop_to_string (Bare.call cpu layout "alias") in
    if tier = Cpu.Traces then check_traces_engaged cpu;
    (stop, fingerprint ~probe:[ Bare.data_base ] cpu)
  in
  let base = run Cpu.Interp in
  let want = Printf.sprintf "translation fault on %s at 0x7fff000000300000" kind in
  Alcotest.(check bool) ("interp stops with " ^ want) true
    (String.ends_with ~suffix:want (fst base));
  List.iter
    (fun tier ->
      Alcotest.(check (pair string string))
        (Cpu.tier_name tier ^ " stop and state = interp")
        base (run tier))
    all_tiers

(* ---------- a step hook that moves the MMU generation ---------- *)

(* The hook unmaps the data page on the 30th execution of a hot
   [ldr x1, [x0]]. That [ldr] is already fetched, and on the cached
   tiers its line op holds a page cache on the page just unmapped, so
   it must run as a freshly compiled op and fault at once, as on the
   interp tier: 5 + 29 * 3 + 1 = 93 instructions retired, x11 = 11. A
   stale op would load on and fault one trip later, after 96. *)
let test_hook_moves_generation () =
  let run tier =
    let cpu = Bare.machine ~seed:5L ~tier () in
    let prog = Asm.create () in
    Asm.add_function prog ~name:"hot"
      (mov_abs (Insn.R 0) Bare.data_base
      @ [
          Asm.ins (Insn.Movz (Insn.R 11, 40, 0));
          Asm.label "loop";
          Asm.ins (Insn.Ldr (Insn.R 1, Insn.Off (Insn.R 0, 0)));
          Asm.ins (Insn.Sub_imm (Insn.R 11, Insn.R 11, 1));
          Asm.cbnz_to (Insn.R 11) "loop";
          Asm.ins Insn.Ret;
        ]);
    let layout = Bare.load cpu prog in
    let loads = ref 0 in
    Cpu.set_step_hook cpu
      (Some
         (fun cpu ~pc:_ insn ->
           (match insn with
           | Insn.Ldr _ ->
               incr loads;
               if !loads = 30 then
                 Mmu.unmap (Cpu.mmu cpu) ~va_page:(Vaddr.page_of Bare.data_base)
           | _ -> ());
           Cpu.Exec));
    let stop = Cpu.stop_to_string (Bare.call cpu layout "hot") in
    Alcotest.(check string)
      (Cpu.tier_name tier ^ " faults on the unmapped page")
      (Printf.sprintf "fault at pc=0x%Lx: translation fault on read at 0x%Lx"
         (Int64.add Env.code_base 20L) Bare.data_base)
      stop;
    Alcotest.(check int64) (Cpu.tier_name tier ^ " retired") 93L (Cpu.insns_retired cpu);
    Alcotest.(check int64) (Cpu.tier_name tier ^ " x11") 11L (Cpu.reg cpu (Insn.R 11));
    fingerprint ~probe:[] cpu
  in
  let base = run Cpu.Interp in
  List.iter
    (fun tier ->
      Alcotest.(check string) (Cpu.tier_name tier ^ " state = interp state") base (run tier))
    all_tiers

(* ---------- PAC links read their cost when they run ---------- *)

(* A hot loop signs and authenticates under IA, so its block chains a
   PAC and an AUT link. The core is captured with SCTLR's EnIA clear,
   and the bit is set again before the loop runs hot and compiles.
   Restoring the capture writes the clear bit back without a flush, so
   the rerun dispatches the block compiled under PAuth enabled while
   IA is disabled: its PAC and AUT must cost an ALU op, as on interp.
   A link that bound the enabled cost when the block was built charges
   the rerun 2 * 63 * (pauth - alu) cycles too many. *)
let pac_loop_prog () =
  let prog = Asm.create () in
  Asm.add_function prog ~name:"pacloop"
    (mov_abs (Insn.R 10) Bare.data_base
    @ [
        Asm.ins (Insn.Movz (Insn.R 11, 64, 0));
        Asm.ins (Insn.Movz (Insn.R 1, 0, 0));
        Asm.label "loop";
        Asm.ins (Insn.Mov (Insn.R 12, Insn.R 10));
        Asm.ins (Insn.Pac (Sysreg.IA, Insn.R 12, Insn.R 11));
        Asm.ins (Insn.Eor_reg (Insn.R 1, Insn.R 1, Insn.R 12));
        Asm.ins (Insn.Aut (Sysreg.IA, Insn.R 12, Insn.R 11));
        Asm.ins (Insn.Add_reg (Insn.R 1, Insn.R 1, Insn.R 12));
        Asm.ins (Insn.Sub_imm (Insn.R 11, Insn.R 11, 1));
        Asm.cbnz_to (Insn.R 11) "loop";
        Asm.ins (Insn.Mov (Insn.R 0, Insn.R 1));
        Asm.ins Insn.Ret;
      ]);
  prog

let test_pac_cost_after_restore () =
  let run tier =
    let cpu = Bare.machine ~seed:6L ~tier () in
    let layout = Bare.load cpu (pac_loop_prog ()) in
    let sctlr = Cpu.sysreg cpu Sysreg.SCTLR_EL1 in
    let enia = Int64.shift_left 1L (Sysreg.sctlr_enable_bit Sysreg.IA) in
    Cpu.set_sysreg cpu Sysreg.SCTLR_EL1 (Int64.logand sctlr (Int64.lognot enia));
    let disabled = Cpu.capture cpu in
    Cpu.set_sysreg cpu Sysreg.SCTLR_EL1 sctlr;
    let call () =
      match Bare.call cpu layout "pacloop" with
      | Cpu.Sentinel_return -> Cpu.reg cpu (Insn.R 0)
      | s -> Alcotest.failf "pacloop stopped: %s" (Cpu.stop_to_string s)
    in
    let signed = call () in
    Cpu.restore cpu disabled;
    let blocks_before = Option.map (fun s -> s.Traces.block_insns) (Cpu.trace_stats cpu) in
    let plain = call () in
    Alcotest.(check bool)
      (Cpu.tier_name tier ^ ": the restored SCTLR disables IA")
      true
      (not (Int64.equal signed plain));
    (match (blocks_before, Cpu.trace_stats cpu) with
    | Some b0, Some s ->
        (* 63 trips of the 7-insn loop body, the first one stepped *)
        Alcotest.(check bool) "the rerun ran the PAC block compiled before the restore"
          true
          (s.Traces.block_insns - b0 >= 63 * 7)
    | _ -> ());
    fingerprint ~probe:[ Bare.data_base ] cpu
  in
  let base = run Cpu.Interp in
  List.iter
    (fun tier ->
      Alcotest.(check string)
        (Cpu.tier_name tier ^ " state, cycles and retired = interp")
        base (run tier))
    all_tiers

(* ---------- a hook's horizon is invisible ---------- *)

(* A warm loop of 1- to 5-cycle instructions: LDR (2), ISB (4), PAC and
   AUT (4), STR (1), ALU ops (1) and a BRAA (5) to the next instruction,
   30 cycles a trip. The accumulator x5 shifts left once a trip, so a
   flip of its bit 0 lands in a different final bit for every
   instruction it can strike before. *)
let horizon_prog () =
  let prog = Asm.create () in
  Asm.add_function prog ~name:"mix"
    (mov_abs (Insn.R 10) Bare.data_base
    @ [
        Asm.ins (Insn.Movz (Insn.R 11, 40, 0));
        Asm.ins (Insn.Movz (Insn.R 5, 1, 0));
        Asm.label "loop";
        Asm.ins (Insn.Ldr (Insn.R 3, Insn.Off (Insn.R 10, 0)));
        Asm.ins Insn.Isb;
        Asm.ins (Insn.Mov (Insn.R 12, Insn.R 10));
        Asm.ins (Insn.Pac (Sysreg.IA, Insn.R 12, Insn.R 11));
        Asm.ins (Insn.Aut (Sysreg.IA, Insn.R 12, Insn.R 11));
        Asm.ins (Insn.Str (Insn.R 3, Insn.Off (Insn.R 12, 8)));
        Asm.ins (Insn.Lsl_imm (Insn.R 5, Insn.R 5, 1));
        Asm.ins (Insn.Eor_reg (Insn.R 5, Insn.R 5, Insn.R 3));
        Asm.adr_of (Insn.R 13) "next";
        Asm.ins (Insn.Pac (Sysreg.IA, Insn.R 13, Insn.R 11));
        Asm.ins (Insn.Bra (Sysreg.IA, Insn.R 13, Insn.R 11));
        Asm.label "next";
        Asm.ins (Insn.Sub_imm (Insn.R 11, Insn.R 11, 1));
        Asm.cbnz_to (Insn.R 11) "loop";
        Asm.ins (Insn.Mov (Insn.R 0, Insn.R 5));
        Asm.ins Insn.Ret;
      ]);
  prog

(* An injector armed with a cycle window sets its core's horizon to the
   window's [lo], and a traces core runs blocks until then under a
   budget that no instruction can carry past it. For every [lo] over
   600 cycles of the warm loop, a transient flip of x5 must strike the
   same instruction and leave the same result, cycles and stop as on
   interp, which hooks every instruction. A budget one instruction too
   large lets a block run the first instruction at or past [lo], and
   the flip lands later. *)
let test_horizon_boundary () =
  let module I = Faultinj.Injector in
  let warm tier =
    let cpu = Bare.machine ~seed:12L ~tier () in
    let layout = Bare.load cpu (horizon_prog ()) in
    Bare.write64 cpu Bare.data_base 0x5a5aL;
    let call () = Bare.call cpu layout "mix" in
    (match call () with
    | Cpu.Sentinel_return -> ()
    | s -> Alcotest.failf "mix stopped: %s" (Cpu.stop_to_string s));
    (cpu, call, Cpu.capture cpu)
  in
  let strike (cpu, call, warmed) k =
    Cpu.restore cpu warmed;
    let lo = Int64.add (Cpu.cycles cpu) (Int64.of_int k) in
    let inj =
      I.create
        {
          I.trigger = I.At_cycle_window { lo; hi = Int64.max_int };
          model = I.Gpr_flip { reg = 5; bits = [ 0 ] };
          persistence = I.Transient;
        }
    in
    I.arm inj cpu;
    let stop = Cpu.stop_to_string (call ()) in
    (I.first_strike inj, Cpu.reg cpu (Insn.R 0), Cpu.cycles cpu, stop)
  in
  let interp = warm Cpu.Interp and traces = warm Cpu.Traces in
  let tcpu, _, _ = traces in
  let b0 = (tstats tcpu).Traces.block_insns in
  let runs = List.init 601 (fun k -> (k, strike interp k, strike traces k)) in
  Alcotest.(check (list int)) "every lo struck" []
    (List.filter_map (fun (k, (s, _, _, _), _) -> if s = None then Some k else None) runs);
  let differ = List.filter_map (fun (k, i, t) -> if i = t then None else Some k) runs in
  Alcotest.(check int)
    (Printf.sprintf "lo values where traces differs from interp (from +%s cycles)"
       (match differ with k :: _ -> string_of_int k | [] -> "-"))
    0 (List.length differ);
  Alcotest.(check bool) "the armed runs retired instructions in blocks" true
    ((tstats tcpu).Traces.block_insns > b0);
  Alcotest.(check tier_testable) "an armed run below its horizon reports traces"
    Cpu.Traces (Cpu.last_run_tier tcpu)

(* ---------- the paper's kernel path runs inside blocks ---------- *)

(* A warm getpid under full Camouflage is the XOM key setter's
   MOVZ/MOVK/MSR stream, the handler's signed frame and the user-key
   restore; a warm timer_set adds an MRS of the virtual counter. Every
   instruction of either must retire inside compiled blocks. Cutting
   blocks again at PAC/AUT, at MRS or at a key-register MSR sends part
   of them back to the single-step path. The E2 probe under
   backward-edge Camouflage signs and authenticates on every call, and
   must run 99% of its instructions in blocks (the rest is the cold
   first trips). Warming takes 64 calls: the step path looks up a block
   after every branch, taken or not, so the code after each of
   timer_set's four bounds checks heats up alongside the checks; a
   step path that looks blocks up only where control transfers leaves
   the 23 instructions after the last check stepping after 64 calls. *)
let test_kernel_path_in_blocks () =
  let sys = K.System.boot ~config:C.Config.full ~seed:42L ~tier:Cpu.Traces () in
  let cpu = K.System.cpu sys in
  let warm_calls name ~nr ~args =
    let call () =
      match K.System.syscall sys ~nr ~args with
      | K.System.Ok _ -> ()
      | K.System.Killed m | K.System.Panicked m -> Alcotest.failf "%s: %s" name m
    in
    for _ = 1 to 64 do
      call ()
    done;
    let r0 = Cpu.insns_retired cpu and b0 = (tstats cpu).Traces.block_insns in
    for _ = 1 to 8 do
      call ()
    done;
    let retired = Int64.to_int (Int64.sub (Cpu.insns_retired cpu) r0) in
    Alcotest.(check int)
      ("warm " ^ name ^ ": every instruction retired inside a block")
      retired
      ((tstats cpu).Traces.block_insns - b0);
    retired
  in
  Alcotest.(check int) "warm getpid: 8 calls of 69 instructions" (8 * 69)
    (warm_calls "getpid" ~nr:K.Kbuild.sys_getpid ~args:[]);
  Alcotest.(check bool) "warm timer_set ran" true
    (warm_calls "timer_set" ~nr:K.Kbuild.sys_timer_set ~args:[ 0L; 1000L; 0L ] > 0);
  let cpu = run_calls ~calls:2000 C.Config.backward_only ~tier:Cpu.Traces in
  let share =
    float_of_int (tstats cpu).Traces.block_insns /. Int64.to_float (Cpu.insns_retired cpu)
  in
  Alcotest.(check bool)
    (Printf.sprintf "E2 backward-edge probe: %.4f of instructions in blocks >= 0.99" share)
    true (share >= 0.99)

(* ---------- one coherence owner: the icache ---------- *)

let ret_const_prog v =
  let prog = Asm.create () in
  Asm.add_function prog ~name:"f" [ Asm.ins (Insn.Movz (Insn.R 0, v, 0)); Asm.ins Insn.Ret ];
  prog

(* Rewrite [f]'s first instruction from the host, through [Mem]. *)
let patch_f cpu layout v =
  let f = Asm.symbol layout "f" in
  Mem.write32 (Cpu.mem cpu) (Env.pa_of_va f)
    (Encode.encode ~pc:f (Insn.Movz (Insn.R 0, v, 0)))

let result_of_f cpu layout =
  match Bare.call cpu layout "f" with
  | Cpu.Sentinel_return -> Cpu.reg cpu (Insn.R 0)
  | s -> Alcotest.failf "f stopped: %s" (Cpu.stop_to_string s)

(* Nothing evicts a code page: [f] warms into a block, then the data
   pages of 2,048 loads go through [Icache.data_page], which a table of
   1,024 direct-mapped slots could not hold beside [f]'s entry. [f]'s
   line must still be cached, and its block must run without a
   recompile. The pages are mapped before [f] heats up, so no MMU
   generation moves in between. *)
let test_no_page_evicts_code () =
  let cpu = Bare.machine ~seed:8L ~tier:Cpu.Traces () in
  let layout = Bare.load cpu (ret_const_prog 7) in
  let f = Asm.symbol layout "f" in
  let base = 0xffff000001000000L in
  Env.map_region cpu ~base ~pages:2048 Mmu.rw;
  for _ = 1 to 24 do
    ignore (result_of_f cpu layout : int64)
  done;
  let compiled = (tstats cpu).Traces.compiled in
  Alcotest.(check bool) "f was compiled" true (compiled > 0);
  let ic = Cpu.icache cpu in
  for i = 0 to 2047 do
    let va = Int64.add base (Int64.of_int (i * 4096)) in
    ignore (Icache.data_page ic ~el:El.El1 ~access:Mmu.Read va)
  done;
  let misses = (Icache.stats ic).Icache.fetch_misses in
  ignore (Icache.fetch ic ~el:El.El1 f);
  Alcotest.(check int) "f's line is still cached" misses (Icache.stats ic).Icache.fetch_misses;
  let b0 = (tstats cpu).Traces.block_insns in
  Alcotest.(check int64) "f runs" 7L (result_of_f cpu layout);
  Alcotest.(check int) "no recompile" compiled (tstats cpu).Traces.compiled;
  Alcotest.(check int) "f ran as its block" (b0 + 2) (tstats cpu).Traces.block_insns

(* Every core's trace cache registers with the one shared icache, so a
   host store to code that two cores have compiled kills both cores'
   blocks. *)
let test_store_kills_every_core () =
  let m = Machine.create ~tier:Cpu.Traces ~cpus:2 () in
  let cores = Machine.cores m in
  Env.map_region (Machine.boot_core m) ~base:Env.code_base ~pages:1 Mmu.rx;
  let layout = Env.load_program (Machine.boot_core m) (ret_const_prog 7) in
  List.iter
    (fun cpu ->
      for _ = 1 to 24 do
        ignore (result_of_f cpu layout : int64)
      done;
      Alcotest.(check bool)
        (Printf.sprintf "core %d compiled f" (Cpu.id cpu))
        true
        ((tstats cpu).Traces.compiled > 0))
    cores;
  patch_f (Machine.boot_core m) layout 8;
  List.iter
    (fun cpu ->
      Alcotest.(check int64)
        (Printf.sprintf "core %d runs the patched f" (Cpu.id cpu))
        8L (result_of_f cpu layout))
    cores

(* ---------- an entry PC's bit-63 twin ---------- *)

(* [f]'s address with bit 63 flipped is unmapped, and drops to the same
   native int as [f] itself. Reached from a block boundary 16 times
   while [f] is still heating, and 16 more once [f] is compiled, it
   must fault on every tier exactly as on interp, and leave [f]'s
   state alone: [f] compiles on its 16th call, not earlier and not
   never, and its block then runs with no recompile. A trace key that
   drops bit 63 lets the twin run [f]'s block, or heat and blacklist
   [f]'s entry. *)
let test_bit63_twin_entry () =
  let run tier =
    let cpu = Bare.machine ~seed:8L ~tier () in
    let layout = Bare.load cpu (ret_const_prog 7) in
    let twin = Int64.logxor (Asm.symbol layout "f") Int64.min_int in
    let reach_twin () = List.init 16 (fun _ -> Cpu.stop_to_string (Cpu.call cpu twin)) in
    let compiled () = Option.map (fun s -> s.Traces.compiled) (Cpu.trace_stats cpu) in
    let call_f () = Alcotest.(check int64) "f returns 7" 7L (result_of_f cpu layout) in
    for _ = 1 to 15 do
      call_f ()
    done;
    let cold = reach_twin () in
    let before = compiled () in
    call_f ();
    let after = compiled () in
    let warm = reach_twin () in
    let blocks () = Option.map (fun s -> s.Traces.block_insns) (Cpu.trace_stats cpu) in
    let b0 = blocks () in
    call_f ();
    if tier = Cpu.Traces then begin
      Alcotest.(check (option int)) "f is cold after 15 calls and 16 twins" (Some 0) before;
      Alcotest.(check (option int)) "f compiles on its 16th call" (Some 1) after;
      Alcotest.(check (option int)) "no recompile after the twins" (Some 1) (compiled ());
      Alcotest.(check (option int)) "f ran as its block"
        (Option.map (fun b -> b + 2) b0)
        (blocks ())
    end;
    (cold @ warm, fingerprint cpu)
  in
  let base = run Cpu.Interp in
  Alcotest.(check bool) "interp faults on the twin" true
    (List.for_all
       (fun s -> String.ends_with ~suffix:"translation fault on exec at 0x7fff000000100000" s)
       (fst base));
  List.iter
    (fun tier ->
      Alcotest.(check (pair (list string) string))
        (Cpu.tier_name tier ^ " stops and state = interp")
        base (run tier))
    all_tiers

(* ---------- the trace table's size bound ---------- *)

(* A new entry past 16,384 states starts the table over, and must kill
   every block first: a block left live outside the table is one no
   later flush can find, and a chained successor would run it after a
   store to its code. *)
let test_bound_kills_blocks () =
  let tr = Traces.create () in
  let pc = Env.code_base in
  for _ = 1 to 15 do
    Alcotest.(check bool) "not hot yet" false (Traces.bump tr ~el:El.El1 pc)
  done;
  Alcotest.(check bool) "hot on the 16th boundary" true (Traces.bump tr ~el:El.El1 pc);
  let b = Traces.install tr ~el:El.El1 ~entry:pc ~len:1 () in
  for i = 1 to 16_383 do
    ignore (Traces.bump tr ~el:El.El0 (Int64.of_int (4 * i)) : bool)
  done;
  Alcotest.(check bool) "16,384 states: the block lives" true b.Traces.bk_live;
  ignore (Traces.bump tr ~el:El.El0 0L : bool);
  Alcotest.(check bool) "the next entry kills the block" false b.Traces.bk_live;
  Alcotest.(check bool) "and takes it out of the table" true
    (match Traces.find tr ~el:El.El1 pc with _ -> false | exception Not_found -> true);
  Alcotest.(check int) "one invalidation" 1 (Traces.stats tr).Traces.invalidations

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
    Alcotest.test_case "page cache: bit-63 alias of a hot load faults" `Quick
      (test_bit63_alias (Insn.Ldr (Insn.R 1, Insn.Off (Insn.R 0, 0))) "read");
    Alcotest.test_case "page cache: bit-63 alias of a hot store faults" `Quick
      (test_bit63_alias (Insn.Str (Insn.R 11, Insn.Off (Insn.R 0, 0))) "write");
    Alcotest.test_case "step hook moving the MMU generation: fresh op" `Quick
      test_hook_moves_generation;
    Alcotest.test_case "PAC links read their cost after a restore clears SCTLR" `Quick
      test_pac_cost_after_restore;
    Alcotest.test_case "the warm full kernel path retires inside blocks" `Quick
      test_kernel_path_in_blocks;
    Alcotest.test_case "no page evicts a warm code page" `Quick test_no_page_evicts_code;
    Alcotest.test_case "a store to code kills every core's blocks" `Quick
      test_store_kills_every_core;
    Alcotest.test_case "a cycle-window strike lands where interp's does" `Quick
      test_horizon_boundary;
    Alcotest.test_case "an entry PC's bit-63 twin faults and leaves its state" `Quick
      test_bit63_twin_entry;
    Alcotest.test_case "the size bound kills every block before starting over" `Quick
      test_bound_kills_blocks;
  ]
