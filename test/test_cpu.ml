(* Interpreter smoke tests: run small assembled programs end to end,
   including PAuth sign/authenticate round trips and fault delivery. *)

open Aarch64

let code_base = Env.code_base
let stack_top = Env.stack_top
let pa_of_va = Env.pa_of_va
let map_region cpu ~base ~pages perm = Env.map_region cpu ~base ~pages perm
let fresh_cpu () = Env.fresh_cpu ()
let load_program cpu prog = Env.load_program cpu prog
let run_function = Env.run_function

let test_arith_loop () =
  let cpu = fresh_cpu () in
  let prog = Asm.create () in
  (* Sum 1..10 into x0. *)
  Asm.add_function prog ~name:"sum"
    [
      Asm.ins (Insn.Movz (Insn.R 0, 0, 0));
      Asm.ins (Insn.Movz (Insn.R 1, 10, 0));
      Asm.label "loop";
      Asm.ins (Insn.Add_reg (Insn.R 0, Insn.R 0, Insn.R 1));
      Asm.ins (Insn.Sub_imm (Insn.R 1, Insn.R 1, 1));
      Asm.cbnz_to (Insn.R 1) "loop";
      Asm.ins Insn.Ret;
    ];
  let layout = load_program cpu prog in
  (match run_function cpu layout "sum" with
  | Cpu.Sentinel_return -> ()
  | other -> Alcotest.failf "unexpected stop: %s" (Cpu.stop_to_string other));
  Alcotest.(check int64) "sum 1..10" 55L (Cpu.reg cpu (Insn.R 0))

let test_memory_and_frame () =
  let cpu = fresh_cpu () in
  let prog = Asm.create () in
  (* Canonical frame push/pop as in Listing 1 of the paper. *)
  Asm.add_function prog ~name:"callee"
    [
      Asm.ins (Insn.Stp (Insn.fp, Insn.lr, Insn.Pre (Insn.SP, -16)));
      Asm.ins (Insn.Mov (Insn.fp, Insn.SP));
      Asm.ins (Insn.Movz (Insn.R 0, 7, 0));
      Asm.ins (Insn.Ldp (Insn.fp, Insn.lr, Insn.Post (Insn.SP, 16)));
      Asm.ins Insn.Ret;
    ];
  Asm.add_function prog ~name:"caller"
    [
      Asm.ins (Insn.Stp (Insn.fp, Insn.lr, Insn.Pre (Insn.SP, -16)));
      Asm.ins (Insn.Mov (Insn.fp, Insn.SP));
      Asm.bl_to "callee";
      Asm.ins (Insn.Add_imm (Insn.R 0, Insn.R 0, 1));
      Asm.ins (Insn.Ldp (Insn.fp, Insn.lr, Insn.Post (Insn.SP, 16)));
      Asm.ins Insn.Ret;
    ];
  let layout = load_program cpu prog in
  (match run_function cpu layout "caller" with
  | Cpu.Sentinel_return -> ()
  | other -> Alcotest.failf "unexpected stop: %s" (Cpu.stop_to_string other));
  Alcotest.(check int64) "nested call result" 8L (Cpu.reg cpu (Insn.R 0));
  Alcotest.(check int64) "stack balanced" stack_top (Cpu.sp_of cpu El.El1)

let test_pac_aut_roundtrip () =
  let cpu = fresh_cpu () in
  let prog = Asm.create () in
  (* Sign x0 with the DB key under modifier x1, then authenticate. *)
  Asm.add_function prog ~name:"sign_auth"
    [
      Asm.ins (Insn.Pac (Sysreg.DB, Insn.R 0, Insn.R 1));
      Asm.ins (Insn.Mov (Insn.R 2, Insn.R 0));
      Asm.ins (Insn.Aut (Sysreg.DB, Insn.R 0, Insn.R 1));
      Asm.ins Insn.Ret;
    ];
  let layout = load_program cpu prog in
  let ptr = 0xffff000000300040L in
  Cpu.set_reg cpu (Insn.R 0) ptr;
  Cpu.set_reg cpu (Insn.R 1) 0x1234L;
  (match run_function cpu layout "sign_auth" with
  | Cpu.Sentinel_return -> ()
  | other -> Alcotest.failf "unexpected stop: %s" (Cpu.stop_to_string other));
  Alcotest.(check int64) "auth restores pointer" ptr (Cpu.reg cpu (Insn.R 0));
  Alcotest.(check bool) "signed form differs" true (Cpu.reg cpu (Insn.R 2) <> ptr)

let test_aut_wrong_modifier_poisons () =
  let cpu = fresh_cpu () in
  let prog = Asm.create () in
  Asm.add_function prog ~name:"bad_auth"
    [
      Asm.ins (Insn.Pac (Sysreg.DB, Insn.R 0, Insn.R 1));
      Asm.ins (Insn.Aut (Sysreg.DB, Insn.R 0, Insn.R 2));
      (* dereference the poisoned pointer: must fault *)
      Asm.ins (Insn.Ldr (Insn.R 3, Insn.Off (Insn.R 0, 0)));
      Asm.ins Insn.Ret;
    ];
  let layout = load_program cpu prog in
  Cpu.set_reg cpu (Insn.R 0) 0xffff000000300040L;
  Cpu.set_reg cpu (Insn.R 1) 0x1234L;
  Cpu.set_reg cpu (Insn.R 2) 0x9999L;
  (match run_function cpu layout "bad_auth" with
  | Cpu.Fault { fault = Cpu.Mmu_fault f; _ } ->
      Alcotest.(check bool) "translation fault" true (f.Mmu.kind = Mmu.Translation);
      Alcotest.(check bool) "faulting VA is poisoned" true
        (Vaddr.is_poisoned (Cpu.kernel_cfg cpu) f.Mmu.va)
  | other -> Alcotest.failf "expected fault, got %s" (Cpu.stop_to_string other))

let test_svc_and_sysreg_protection () =
  let cpu = fresh_cpu () in
  let prog = Asm.create () in
  Asm.add_function prog ~name:"do_svc" [ Asm.ins (Insn.Svc 5) ];
  let layout = load_program cpu prog in
  (match run_function cpu layout "do_svc" with
  | Cpu.Svc 5 -> ()
  | other -> Alcotest.failf "expected svc, got %s" (Cpu.stop_to_string other));
  (* Hypervisor locks SCTLR: EL1 write must be denied. *)
  Cpu.set_sysreg_lock cpu Sysreg.is_mmu_control;
  let prog2 = Asm.create () in
  Asm.add_function prog2 ~name:"tamper"
    [
      Asm.ins (Insn.Movz (Insn.R 0, 0, 0));
      Asm.ins (Insn.Msr (Sysreg.SCTLR_EL1, Insn.R 0));
      Asm.ins Insn.Ret;
    ];
  let base2 = Int64.add code_base 0x8000L in
  let layout2 = Asm.assemble prog2 ~base:base2 in
  Asm.encode_into layout2 ~write32:(fun va word ->
      Mem.write32 (Cpu.mem cpu) (pa_of_va va) word);
  match Cpu.call cpu (Asm.symbol layout2 "tamper") with
  | Cpu.Fault { fault = Cpu.Hyp_denied Sysreg.SCTLR_EL1; _ } -> ()
  | other -> Alcotest.failf "expected hyp denial, got %s" (Cpu.stop_to_string other)

let test_xom_enforcement () =
  let cpu = fresh_cpu () in
  let prog = Asm.create () in
  (* A function that tries to read its own code. *)
  Asm.add_function prog ~name:"read_self"
    [
      Asm.adr_of (Insn.R 1) "read_self";
      Asm.ins (Insn.Ldr (Insn.R 0, Insn.Off (Insn.R 1, 0)));
      Asm.ins Insn.Ret;
    ];
  let layout = load_program cpu prog in
  (* Stage 2: make the code frame execute-only. *)
  Mmu.stage2_protect (Cpu.mmu cpu)
    ~pa_page:(Vaddr.page_of (pa_of_va code_base))
    Mmu.xo;
  match run_function cpu layout "read_self" with
  | Cpu.Fault { fault = Cpu.Mmu_fault f; _ } ->
      Alcotest.(check bool) "stage-2 permission fault" true
        (f.Mmu.kind = Mmu.Stage2_permission)
  | other -> Alcotest.failf "expected stage-2 fault, got %s" (Cpu.stop_to_string other)

let test_pauthless_cpu () =
  (* On an ARMv8.0 part the 1716 hint forms are NOP and PAC is undefined. *)
  let cpu = Cpu.create ~has_pauth:false () in
  map_region cpu ~base:code_base ~pages:4 Mmu.rx;
  Cpu.set_el cpu El.El1;
  Cpu.set_sp_of cpu El.El1 stack_top;
  let prog = Asm.create () in
  Asm.add_function prog ~name:"hints"
    [
      Asm.ins (Insn.Pac1716 Sysreg.IB);
      Asm.ins (Insn.Aut1716 Sysreg.IB);
      Asm.ins Insn.Ret;
    ];
  Asm.add_function prog ~name:"hard_pauth"
    [ Asm.ins (Insn.Pac (Sysreg.IA, Insn.R 0, Insn.SP)); Asm.ins Insn.Ret ];
  let layout = load_program cpu prog in
  Cpu.set_reg cpu (Insn.R 17) 0x42L;
  (match run_function cpu layout "hints" with
  | Cpu.Sentinel_return -> ()
  | other -> Alcotest.failf "hint forms must be NOP: %s" (Cpu.stop_to_string other));
  Alcotest.(check int64) "x17 untouched" 0x42L (Cpu.reg cpu (Insn.R 17));
  (* A PAC with keys disabled (no SCTLR bits) is a NOP even on 8.3; on a
     8.0 part we model the whole instruction as available-but-inert only
     for the hint space. The encoded Pac executes as pass-through since
     pauth_enabled is false. *)
  match run_function cpu layout "hard_pauth" with
  | Cpu.Sentinel_return -> ()
  | other -> Alcotest.failf "disabled pac is inert: %s" (Cpu.stop_to_string other)

let test_cycle_accounting () =
  let cpu = fresh_cpu () in
  let prog = Asm.create () in
  Asm.add_function prog ~name:"three_alu"
    [
      Asm.ins (Insn.Movz (Insn.R 0, 1, 0));
      Asm.ins (Insn.Add_imm (Insn.R 0, Insn.R 0, 1));
      Asm.ins (Insn.Pac (Sysreg.IA, Insn.R 0, Insn.SP));
      Asm.ins Insn.Ret;
    ];
  let layout = load_program cpu prog in
  let before = Cpu.cycles cpu in
  (match run_function cpu layout "three_alu" with
  | Cpu.Sentinel_return -> ()
  | other -> Alcotest.failf "unexpected stop: %s" (Cpu.stop_to_string other));
  let elapsed = Int64.to_int (Int64.sub (Cpu.cycles cpu) before) in
  let c = Cpu.cost_profile cpu in
  Alcotest.(check int) "cycles = 2 alu + pauth + branch"
    ((2 * c.Cost.alu) + c.Cost.pauth + c.Cost.branch)
    elapsed

(* The written system registers in [fold_sysregs] order, by name. *)
let listed cpu =
  List.rev (Cpu.fold_sysregs cpu (fun acc sr v -> (Sysreg.name sr, v) :: acc) [])

let by_name = List.map (fun (sr, v) -> (Sysreg.name sr, v))

(* [Cpu.restore] gives [fold_sysregs] back exactly, on every tier: a
   register overwritten after the capture has its captured value again,
   and one first written after it, by the host or by MSR, is absent
   again and reads 0. *)
let test_restore_written_sysregs () =
  List.iter
    (fun tier ->
      let cpu = Cpu.create ~tier () in
      map_region cpu ~base:code_base ~pages:4 Mmu.rx;
      Cpu.set_sysreg cpu Sysreg.TPIDR_EL1 0x11L;
      Cpu.set_sysreg cpu Sysreg.APIBKeyHi_EL1 0x22L;
      (* a register written as 0 is still listed *)
      Cpu.set_sysreg cpu Sysreg.CONTEXTIDR_EL1 0L;
      let captured = listed cpu in
      Alcotest.(check (list (pair string int64)))
        "written registers in Sysreg.all order"
        (by_name Sysreg.[ (APIBKeyHi_EL1, 0x22L); (CONTEXTIDR_EL1, 0L); (TPIDR_EL1, 0x11L) ])
        captured;
      let snap = Cpu.capture cpu in
      let prog = Asm.create () in
      Asm.add_function prog ~name:"msr"
        [
          Asm.ins (Insn.Msr (Sysreg.TPIDR_EL1, Insn.R 0));
          Asm.ins (Insn.Msr (Sysreg.VBAR_EL1, Insn.R 1));
          Asm.ins (Insn.Msr (Sysreg.ESR_EL1, Insn.XZR));
          Asm.ins Insn.Ret;
        ];
      let layout = load_program cpu prog in
      Cpu.set_reg cpu (Insn.R 0) 0x33L;
      Cpu.set_reg cpu (Insn.R 1) 0x44L;
      Cpu.set_sysreg cpu Sysreg.FAR_EL1 0x55L;
      Env.expect_return cpu layout "msr";
      Alcotest.(check (list (pair string int64)))
        "the run wrote two more and overwrote one"
        (by_name
           Sysreg.
             [
               (APIBKeyHi_EL1, 0x22L); (CONTEXTIDR_EL1, 0L); (VBAR_EL1, 0x44L);
               (ESR_EL1, 0L); (FAR_EL1, 0x55L); (TPIDR_EL1, 0x33L);
             ])
        (listed cpu);
      Cpu.restore cpu snap;
      Alcotest.(check (list (pair string int64)))
        (Cpu.tier_name tier ^ ": restore gives back fold_sysregs") captured (listed cpu);
      List.iter
        (fun sr ->
          Alcotest.(check int64) (Sysreg.name sr ^ " reads 0 again") 0L (Cpu.sysreg cpu sr))
        Sysreg.[ VBAR_EL1; FAR_EL1 ])
    Cpu.all_tiers

(* Every register, the PC and every system register has a slot of its
   own: a distinct value written to each system register reads back
   through [Cpu.sysreg] and through MRS on every tier, [fold_sysregs]
   lists all of them in [Sysreg.all] order, and writes to XZR, x30 and
   each SP bank, beside the sink slot, move neither the PC nor any
   system register. *)
let test_state_slots () =
  let all =
    List.mapi
      (fun i sr -> (sr, Int64.logor (Int64.shift_left (Int64.of_int (i + 1)) 48) 0x5a5aL))
      Sysreg.all
  in
  (* the counter and PMU registers read live values, not their slots *)
  let stored = List.filter (fun (sr, _) -> not (Sysreg.el0_readable sr)) all in
  List.iter
    (fun tier ->
      let what s = Cpu.tier_name tier ^ ": " ^ s in
      let cpu = Env.fresh_cpu ~tier () in
      List.iter (fun (sr, v) -> Cpu.set_sysreg cpu sr v) all;
      Alcotest.(check (list (pair string int64)))
        (what "fold_sysregs lists every register in Sysreg.all order")
        (by_name all) (listed cpu);
      List.iter
        (fun (sr, v) ->
          Alcotest.(check int64) (what (Sysreg.name sr ^ " reads back")) v (Cpu.sysreg cpu sr))
        stored;
      let prog = Asm.create () in
      Asm.add_function prog ~name:"mrs"
        (List.mapi (fun i (sr, _) -> Asm.ins (Insn.Mrs (Insn.R i, sr))) stored
        @ [ Asm.ins Insn.Ret ]);
      let layout = load_program cpu prog in
      Env.expect_return cpu layout "mrs";
      List.iteri
        (fun i (sr, v) ->
          Alcotest.(check int64)
            (what (Printf.sprintf "MRS x%d, %s" i (Sysreg.name sr)))
            v
            (Cpu.reg cpu (Insn.R i)))
        stored;
      let pc = Cpu.pc cpu in
      Cpu.set_reg cpu Insn.XZR 0x1111L;
      Cpu.set_reg cpu (Insn.R 30) 0x2222L;
      List.iter (fun el -> Cpu.set_sp_of cpu el 0x3333L) El.[ El0; El1; El2 ];
      Alcotest.(check int64) (what "the PC is unchanged") pc (Cpu.pc cpu);
      Alcotest.(check (list (pair string int64)))
        (what "the system registers are unchanged")
        (by_name all) (listed cpu);
      Alcotest.(check int64) (what "XZR reads 0") 0L (Cpu.reg cpu Insn.XZR))
    Cpu.all_tiers

(* ----- a step hook allocates nothing of its own ----- *)

(* Minor words per retired instruction of a 20,000-iteration ALU loop on
   the icache tier, after a warm-up run that fills the icache. The step
   path boxes the PC once per instruction for the icache lookup; a hook
   that lets every instruction run must reuse that box, not add its
   own. The margin (a hundredth of a word) covers the per-call set-up,
   not a box per instruction. *)
let test_hook_allocation () =
  let words_per_insn hooked =
    let cpu = Env.fresh_cpu ~tier:Cpu.Icache () in
    let prog = Asm.create () in
    Asm.add_function prog ~name:"spin"
      [
        Asm.ins (Insn.Movz (Insn.R 1, 20_000, 0));
        Asm.label "loop";
        Asm.ins (Insn.Add_reg (Insn.R 0, Insn.R 0, Insn.R 1));
        Asm.ins (Insn.Sub_imm (Insn.R 1, Insn.R 1, 1));
        Asm.cbnz_to (Insn.R 1) "loop";
        Asm.ins Insn.Ret;
      ];
    let layout = load_program cpu prog in
    if hooked then Cpu.set_step_hook cpu (Some (fun _ ~pc:_ _ -> Cpu.Exec));
    Env.expect_return cpu layout "spin";
    let insns0 = Cpu.insns_retired cpu in
    let words0 = Gc.minor_words () in
    Env.expect_return cpu layout "spin";
    let words = Gc.minor_words () -. words0 in
    words /. Int64.to_float (Int64.sub (Cpu.insns_retired cpu) insns0)
  in
  let plain = words_per_insn false and hooked = words_per_insn true in
  if hooked > plain +. 0.01 then
    Alcotest.failf "hooked core: %.2f minor words per instruction, unhooked %.2f" hooked
      plain

(* ----- a memory op allocates no more than an ALU op ----- *)

(* Minor words per retired instruction of a warm 20,000-iteration loop
   on the icache and traces tiers, for two bodies of the same length:
   loads and stores in every addressing mode, or ALU ops. Every access
   hits its op's page cache, so the memory body may allocate no more
   than the ALU body; an address computed by a closure that returns a
   boxed int64 costs a box per access. *)
let test_memory_op_allocation () =
  let words_per_insn tier body =
    let cpu = Env.fresh_cpu ~tier () in
    let prog = Asm.create () in
    Asm.add_function prog ~name:"spin"
      ([ Asm.ins (Insn.Movz (Insn.R 1, 20_000, 0)); Asm.label "loop" ]
      @ List.map Asm.ins body
      @ [
          Asm.ins (Insn.Sub_imm (Insn.R 1, Insn.R 1, 1));
          Asm.cbnz_to (Insn.R 1) "loop";
          Asm.ins Insn.Ret;
        ]);
    let layout = load_program cpu prog in
    Env.expect_return cpu layout "spin";
    let insns0 = Cpu.insns_retired cpu in
    let words0 = Gc.minor_words () in
    Env.expect_return cpu layout "spin";
    let words = Gc.minor_words () -. words0 in
    words /. Int64.to_float (Int64.sub (Cpu.insns_retired cpu) insns0)
  in
  let memory =
    Insn.
      [
        Str (R 1, Pre (SP, -16));
        Ldr (R 2, Post (SP, 16));
        Stp (R 1, R 2, Off (SP, -32));
        Ldp (R 3, R 4, Off (SP, -32));
        Strb (R 1, Off (SP, -40));
        Ldrb (R 5, Off (SP, -40));
      ]
  and alu =
    Insn.
      [
        Add_reg (R 2, R 2, R 1);
        Eor_reg (R 3, R 3, R 1);
        Sub_reg (R 4, R 4, R 1);
        Orr_reg (R 5, R 5, R 1);
        Add_imm (R 6, R 6, 3);
        And_reg (R 7, R 7, R 1);
      ]
  in
  List.iter
    (fun tier ->
      let mem = words_per_insn tier memory and alu = words_per_insn tier alu in
      if mem > alu +. 0.01 then
        Alcotest.failf "%s: memory loop %.2f minor words per instruction, ALU loop %.2f"
          (Cpu.tier_name tier) mem alu)
    [ Cpu.Icache; Cpu.Traces ]

(* --- The PAC memo: exact and invisible. ---

   A cached-tier core looks every MAC up in its PAC memo before it runs
   the cipher, keyed on key hi, key lo, modifier and canonical pointer.
   Each family below first signs a base input, so it sits in its memo
   slot, then a variant differing in one of those words only. A memo
   that compared fewer words would answer a variant sharing the base's
   slot with the base's MAC; with 4096 variants per word, about 16
   share a slot. Every result must equal the interp core's, which
   calls the cipher directly, and [Pac.compute]'s. *)

let memo_program () =
  let prog = Asm.create () in
  let fn name insn = Asm.add_function prog ~name [ Asm.ins insn; Asm.ins Insn.Ret ] in
  fn "pacia" (Insn.Pac (Sysreg.IA, Insn.R 0, Insn.R 1));
  fn "autia" (Insn.Aut (Sysreg.IA, Insn.R 0, Insn.R 1));
  fn "pacga" (Insn.Pacga (Insn.R 0, Insn.R 0, Insn.R 1));
  prog

(* interp first: the reference the cached tiers are held to *)
let memo_cores () =
  List.map
    (fun tier ->
      let cpu = Env.fresh_cpu ~tier () in
      (cpu, load_program cpu (memo_program ())))
    Cpu.all_tiers

(* [memo_op (cpu, layout) fn k key x0 x1] installs [key] as key [k],
   runs [fn] on x0 and x1 and returns x0. *)
let memo_op (cpu, layout) fn k (key : Pac.key) x0 x1 =
  let hi, lo = Sysreg.key_halves k in
  Cpu.set_sysreg cpu hi key.hi;
  Cpu.set_sysreg cpu lo key.lo;
  Cpu.set_reg cpu (Insn.R 0) x0;
  Cpu.set_reg cpu (Insn.R 1) x1;
  Env.expect_return cpu layout fn;
  Cpu.reg cpu (Insn.R 0)

let test_pac_memo_exact () =
  let cores = memo_cores () in
  let cipher = Cpu.cipher (fst (List.hd cores)) in
  let wrong = ref 0 and first = ref "" in
  (* every core's result for one input, against [expect] *)
  let check what fn k key x0 x1 expect =
    List.iter
      (fun ((cpu, _) as core) ->
        let got = memo_op core fn k key x0 x1 in
        if got <> expect then begin
          if !wrong = 0 then
            first :=
              Printf.sprintf "%s on %s: %Lx, expected %Lx (key %Lx:%Lx, x0 %Lx, x1 %Lx)"
                what (Cpu.tier_name (Cpu.tier cpu)) got expect key.Pac.hi key.Pac.lo x0 x1;
          incr wrong
        end)
      cores
  in
  let sign what (key : Pac.key) ~modifier ptr =
    let cfg = Cpu.pointer_cfg (fst (List.hd cores)) ptr in
    check what "pacia" Sysreg.IA key ptr modifier
      (Pac.compute ~cipher ~key ~cfg ~modifier ptr)
  in
  let rng = Camo_util.Rng.create 0x4D454D4FL in
  let r64 () = Camo_util.Rng.next rng in
  let bit b = Int64.shift_left 1L b in
  let user_ptr () = Int64.logand (r64 ()) 0x0000_ffff_ffff_fff0L in
  let bases = List.init 64 (fun _ -> (Pac.{ hi = r64 (); lo = r64 () }, r64 (), user_ptr ())) in
  let family what vary =
    List.iter
      (fun (key, modifier, ptr) ->
        for b = 0 to 63 do
          sign what key ~modifier ptr;
          let key', modifier', ptr' = vary (key, modifier, ptr) (bit b) in
          sign what key' ~modifier:modifier' ptr'
        done)
      bases
  in
  family "keys differing in the hi half" (fun (k, m, p) d ->
      (Pac.{ k with hi = Int64.logxor k.hi d }, m, p));
  family "keys differing in the lo half" (fun (k, m, p) d ->
      (Pac.{ k with lo = Int64.logxor k.lo d }, m, p));
  family "modifiers one bit apart" (fun (k, m, p) d -> (k, Int64.logxor m d, p));
  (* bit 55 selects the kernel or the user PAC layout *)
  List.iter
    (fun (key, modifier, ptr) ->
      sign "a user pointer" key ~modifier ptr;
      sign "its bit-55 twin" key ~modifier (Int64.logxor ptr (bit 55)))
    bases;
  (* PACGA, under GA keys one bit apart *)
  List.iter
    (fun (key, modifier, value) ->
      for b = 0 to 63 do
        List.iter
          (fun (key : Pac.key) ->
            check "PACGA" "pacga" Sysreg.GA key value modifier
              (Pac.generic ~cipher ~key ~value ~modifier))
          [ key; Pac.{ key with lo = Int64.logxor key.lo (bit b) } ]
      done)
    bases;
  (* the all-zero input on fresh cores: their first lookup *)
  let zero = Pac.{ hi = 0L; lo = 0L } in
  List.iter
    (fun ((cpu, _) as core) ->
      let got = memo_op core "pacia" Sysreg.IA zero 0L 0L in
      Alcotest.(check int64)
        ("the all-zero input on a fresh " ^ Cpu.tier_name (Cpu.tier cpu) ^ " core")
        (Pac.compute ~cipher ~key:zero ~cfg:Vaddr.linux_user ~modifier:0L 0L)
        got)
    (memo_cores ());
  if !wrong > 0 then Alcotest.failf "%d wrong results; the first: %s" !wrong !first;
  (* after a memo hit on a valid pointer, one flipped PAC bit fails AUT,
     and a sink attached for both AUTs counts that failure once *)
  let key, modifier, ptr = List.hd bases in
  let cfg = Vaddr.linux_user in
  let signed = Pac.compute ~cipher ~key ~cfg ~modifier ptr in
  let lo, _ = List.hd (Vaddr.pac_field cfg) in
  let flipped = Int64.logxor signed (bit lo) in
  List.iter
    (fun ((cpu, _) as core) ->
      let tier = Cpu.tier_name (Cpu.tier cpu) in
      Alcotest.(check int64) (tier ^ ": signed") signed
        (memo_op core "pacia" Sysreg.IA key ptr modifier);
      let sink = Telemetry.Sink.create ~cpu:0 () in
      Cpu.attach_telemetry cpu sink;
      Alcotest.(check int64) (tier ^ ": the valid pointer authenticates") ptr
        (memo_op core "autia" Sysreg.IA key signed modifier);
      let before = Cpu.pac_memo_stats cpu in
      Alcotest.(check int64) (tier ^ ": one flipped PAC bit fails AUT")
        (Vaddr.poison cfg flipped)
        (memo_op core "autia" Sysreg.IA key flipped modifier);
      Cpu.detach_telemetry cpu;
      let after = Cpu.pac_memo_stats cpu in
      Alcotest.(check int64) (tier ^ ": the sink counts the failure once") 1L
        (Telemetry.Counters.live_auth_failures (Telemetry.Sink.counters sink));
      Alcotest.(check int)
        (tier ^ ": the failing AUT was a memo hit")
        (if Cpu.tier cpu = Cpu.Interp then 0 else 1)
        (after.Cpu.hits - before.Cpu.hits))
    cores

(* The memo's counters: every lookup of a warm [full] getpid hits on the
   cached tiers, and an interp core looks nothing up. *)
let test_pac_memo_stats () =
  List.iter
    (fun tier ->
      let sys = Kernel.System.boot ~config:Camouflage.Config.full ~seed:7L ~tier () in
      let getpids n =
        for _ = 1 to n do
          ignore (Kernel.System.syscall sys ~nr:Kernel.Kbuild.sys_getpid ~args:[])
        done
      in
      getpids 10;
      let cpu = Kernel.System.cpu sys in
      let before = Cpu.pac_memo_stats cpu in
      getpids 1000;
      let after = Cpu.pac_memo_stats cpu in
      let lookups = after.Cpu.lookups - before.Cpu.lookups
      and hits = after.Cpu.hits - before.Cpu.hits in
      let name = Cpu.tier_name tier in
      match tier with
      | Cpu.Interp ->
          Alcotest.(check int) (name ^ ": no lookups") 0 after.Cpu.lookups
      | Cpu.Icache | Cpu.Traces ->
          Alcotest.(check bool) (name ^ ": getpid looks MACs up") true (lookups >= 1000);
          Alcotest.(check int) (name ^ ": every warm lookup hits") lookups hits)
    Cpu.all_tiers

(* ----- a PAC-family op allocates no more than an ALU op ----- *)

(* Minor words per retired instruction of a warm 20,000-iteration loop
   on the icache and traces tiers, for two bodies of the same length:
   every PAC-family form with its modifier arithmetic (PACIB/AUTIB, the
   1716 pair, PACGA, XPACI, BFI, UBFX, and a BRAA to the next
   instruction, whose pointer the loop signs afresh), or ALU ops. Every
   MAC after the first iteration is a memo hit, so the PAC body may
   allocate no more than the ALU body; a key read into a record, a
   MAC from a closure or a call across modules taking an int64 costs a
   box per op. Then a warm unit of the E2 call probe under Camouflage's
   backward-edge scheme on the traces tier: under 0.1 minor words per
   call, where a boxed MAC or a [Some] per chained block costs words on
   every one. *)
let test_pac_op_allocation () =
  let words_per_insn tier body =
    let cpu = Env.fresh_cpu ~tier () in
    let prog = Asm.create () in
    Asm.add_function prog ~name:"spin"
      ([
         Asm.ins (Insn.Movz (Insn.R 1, 20_000, 0));
         Asm.ins (Insn.Movz (Insn.R 2, 0x1234, 0));
         Asm.ins (Insn.Movz (Insn.R 3, 0x77, 0));
         Asm.ins (Insn.Movz (Insn.R 16, 0x55, 0));
         Asm.ins (Insn.Movz (Insn.R 17, 0x4321, 0));
         Asm.label "loop";
       ]
      @ body
      @ [
          Asm.ins (Insn.Sub_imm (Insn.R 1, Insn.R 1, 1));
          Asm.cbnz_to (Insn.R 1) "loop";
          Asm.ins Insn.Ret;
        ]);
    let layout = load_program cpu prog in
    Env.expect_return cpu layout "spin";
    let insns0 = Cpu.insns_retired cpu in
    let words0 = Gc.minor_words () in
    Env.expect_return cpu layout "spin";
    let words = Gc.minor_words () -. words0 in
    words /. Int64.to_float (Int64.sub (Cpu.insns_retired cpu) insns0)
  in
  let pac =
    Insn.
      [
        Asm.ins (Pac (Sysreg.IB, R 2, R 3));
        Asm.ins (Aut (Sysreg.IB, R 2, R 3));
        Asm.ins (Pac1716 Sysreg.IA);
        Asm.ins (Aut1716 Sysreg.IA);
        Asm.ins (Pacga (R 4, R 2, R 3));
        Asm.ins (Xpac (R 5));
        Asm.ins (Bfi (R 6, R 3, 32, 32));
        Asm.ins (Ubfx (R 7, R 6, 12, 16));
        Asm.adr_of (R 8) "next";
        Asm.ins (Pac (Sysreg.IA, R 8, R 3));
        Asm.ins (Bra (Sysreg.IA, R 8, R 3));
        Asm.label "next";
      ]
  and alu =
    Insn.
      [
        Asm.ins (Add_reg (R 2, R 2, R 1));
        Asm.ins (Eor_reg (R 3, R 3, R 1));
        Asm.ins (Sub_reg (R 4, R 4, R 1));
        Asm.ins (Orr_reg (R 5, R 5, R 1));
        Asm.ins (Add_imm (R 6, R 6, 3));
        Asm.ins (And_reg (R 7, R 7, R 1));
        Asm.ins (Lsl_imm (R 9, R 1, 3));
        Asm.ins (Lsr_imm (R 10, R 1, 2));
        Asm.ins (Sub_imm (R 11, R 11, 5));
        Asm.ins (Add_reg (R 12, R 12, R 1));
        Asm.ins (Eor_reg (R 13, R 13, R 1));
      ]
  in
  List.iter
    (fun tier ->
      let pac = words_per_insn tier pac and alu = words_per_insn tier alu in
      if pac > alu +. 0.01 then
        Alcotest.failf "%s: PAC-family loop %.2f minor words per instruction, ALU loop %.2f"
          (Cpu.tier_name tier) pac alu)
    [ Cpu.Icache; Cpu.Traces ];
  let calls = 2000 in
  let cpu = Bare.machine ~tier:Cpu.Traces () in
  let obj = Workloads.Calls.calls_object Camouflage.Config.backward_only ~calls in
  let prog = Asm.create () in
  List.iter (fun (name, items) -> Asm.add_function prog ~name items) obj.Kelf.Object_file.functions;
  let layout = Bare.load cpu prog in
  let unit () =
    match Bare.call ~max_insns:100_000_000 cpu layout "caller" with
    | Cpu.Sentinel_return -> ()
    | other -> Alcotest.failf "E2 unit: %s" (Cpu.stop_to_string other)
  in
  unit ();
  let words0 = Gc.minor_words () in
  unit ();
  let per_call = (Gc.minor_words () -. words0) /. float_of_int calls in
  if per_call >= 0.1 then
    Alcotest.failf "a warm Camouflage E2 call: %.2f minor words, at most 0.1 allowed" per_call

let suite =
  [
    Alcotest.test_case "arithmetic loop" `Quick test_arith_loop;
    Alcotest.test_case "frame record push/pop (Listing 1)" `Quick test_memory_and_frame;
    Alcotest.test_case "pac/aut roundtrip" `Quick test_pac_aut_roundtrip;
    Alcotest.test_case "wrong modifier poisons pointer" `Quick
      test_aut_wrong_modifier_poisons;
    Alcotest.test_case "svc + hypervisor sysreg lock" `Quick
      test_svc_and_sysreg_protection;
    Alcotest.test_case "XOM enforced by stage 2" `Quick test_xom_enforcement;
    Alcotest.test_case "ARMv8.0 compatibility behaviour" `Quick test_pauthless_cpu;
    Alcotest.test_case "cycle accounting" `Quick test_cycle_accounting;
    Alcotest.test_case "restore gives back the written sysregs" `Quick
      test_restore_written_sysregs;
    Alcotest.test_case "every state slot is its own" `Quick test_state_slots;
    Alcotest.test_case "a step hook allocates nothing per instruction" `Quick
      test_hook_allocation;
    Alcotest.test_case "a memory op allocates no more than an ALU op" `Quick
      test_memory_op_allocation;
    Alcotest.test_case "the PAC memo is exact on every tier" `Quick test_pac_memo_exact;
    Alcotest.test_case "PAC memo counters: warm getpids hit, interp looks nothing up"
      `Quick test_pac_memo_stats;
    Alcotest.test_case "a PAC-family op allocates no more than an ALU op" `Quick
      test_pac_op_allocation;
  ]
