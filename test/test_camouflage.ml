(* Tests for the Camouflage core: instrumentation shape (E8), runtime
   behaviour of the instrumented prologues/epilogues, the pointer
   integrity accessors of Listing 4, static-table signing, the static
   verifier and the brute-force policy. *)

open Aarch64
module C = Camouflage

let add_wrapped config prog ~name body =
  let f = C.Instrument.wrap config ~name body in
  Asm.add_function prog ~name:f.C.Instrument.name f.C.Instrument.items

let listing_of config name body =
  let prog = Asm.create () in
  add_wrapped config prog ~name body;
  Asm.assemble prog ~base:Env.code_base

(* E8: the emitted sequences must match the paper's listings. *)

let test_listing2_sp_only () =
  let config = { C.Config.full with scheme = C.Modifier.Sp_only } in
  let layout = listing_of config "func" [] in
  let text = Asm.disassemble layout in
  let expected =
    "func:\n\
    \  ffff000000100000: pacib lr, sp\n\
    \  ffff000000100004: stp fp, lr, [sp, #-16]!\n\
    \  ffff000000100008: mov fp, sp\n\
    \  ffff00000010000c: ldp fp, lr, [sp], #16\n\
    \  ffff000000100010: autib lr, sp\n\
    \  ffff000000100014: ret\n"
  in
  Alcotest.(check string) "Listing 2 shape" expected text

let test_listing3_camouflage () =
  let layout = listing_of C.Config.full "function" [] in
  let text = Asm.disassemble layout in
  let expected =
    "function:\n\
    \  ffff000000100000: adr x16, 0xffff000000100000\n\
    \  ffff000000100004: mov x17, sp\n\
    \  ffff000000100008: bfi x16, x17, #32, #32\n\
    \  ffff00000010000c: pacib lr, x16\n\
    \  ffff000000100010: stp fp, lr, [sp, #-16]!\n\
    \  ffff000000100014: mov fp, sp\n\
    \  ffff000000100018: ldp fp, lr, [sp], #16\n\
    \  ffff00000010001c: adr x16, 0xffff000000100000\n\
    \  ffff000000100020: mov x17, sp\n\
    \  ffff000000100024: bfi x16, x17, #32, #32\n\
    \  ffff000000100028: autib lr, x16\n\
    \  ffff00000010002c: ret\n"
  in
  Alcotest.(check string) "Listing 3 shape" expected text

(* Instructions a scheme adds to an empty function's prologue and
   epilogue, over the unprotected frame. *)
let overhead_insns config =
  let count config =
    Asm.instruction_count (C.Instrument.wrap config ~name:"f" []).C.Instrument.items
  in
  count config - count C.Config.none

let test_overhead_counts () =
  Alcotest.(check int) "camouflage adds 8 insns" 8 (overhead_insns C.Config.full);
  Alcotest.(check int) "sp-only adds 2 insns" 2
    (overhead_insns { C.Config.full with scheme = C.Modifier.Sp_only });
  Alcotest.(check int) "parts adds 12 insns" 12
    (overhead_insns { C.Config.full with scheme = C.Modifier.Parts 42L });
  Alcotest.(check int) "none adds 0" 0 (overhead_insns C.Config.none)

(* Runtime: instrumented call chains execute and return correctly for
   every scheme and mode; corrupting the saved LR is detected. *)

let build_nested config =
  let cpu = Env.fresh_cpu () in
  let prog = Asm.create () in
  add_wrapped config prog ~name:"leaf_worker"
    [ Asm.ins (Insn.Add_imm (Insn.R 0, Insn.R 0, 5)) ];
  add_wrapped config prog ~name:"middle"
    [ Asm.bl_to "leaf_worker"; Asm.ins (Insn.Add_imm (Insn.R 0, Insn.R 0, 7)) ];
  add_wrapped config prog ~name:"outer"
    [ Asm.bl_to "middle"; Asm.ins (Insn.Add_imm (Insn.R 0, Insn.R 0, 11)) ];
  let layout = Env.load_program cpu prog in
  (cpu, layout)

let schemes_under_test =
  [
    ("sp-only", { C.Config.full with scheme = C.Modifier.Sp_only });
    ("parts", { C.Config.full with scheme = C.Modifier.Parts 0x123456789abcL });
    ("camouflage", C.Config.full);
    ("compat", C.Config.compat);
    ("none", C.Config.none);
  ]

let test_nested_calls_all_schemes () =
  List.iter
    (fun (name, config) ->
      let cpu, layout = build_nested config in
      Cpu.set_reg cpu (Insn.R 0) 0L;
      (match Env.run_function cpu layout "outer" with
      | Cpu.Sentinel_return -> ()
      | other -> Alcotest.failf "%s: %s" name (Cpu.stop_to_string other));
      Alcotest.(check int64) (name ^ " result") 23L (Cpu.reg cpu (Insn.R 0)))
    schemes_under_test

let test_compat_runs_without_pauth () =
  (* Contribution 2: the same compat binary must run on an ARMv8.0 part,
     where the 1716 forms are NOPs. *)
  let config = C.Config.compat in
  let cpu = Env.fresh_cpu ~has_pauth:false () in
  let prog = Asm.create () in
  add_wrapped config prog ~name:"fn"
    [ Asm.ins (Insn.Add_imm (Insn.R 0, Insn.R 0, 9)) ];
  let layout = Env.load_program cpu prog in
  Cpu.set_reg cpu (Insn.R 0) 0L;
  (match Env.run_function cpu layout "fn" with
  | Cpu.Sentinel_return -> ()
  | other -> Alcotest.failf "compat on v8.0: %s" (Cpu.stop_to_string other));
  Alcotest.(check int64) "result" 9L (Cpu.reg cpu (Insn.R 0))

(* A stack smash that overwrites the saved return address must be caught
   by the epilogue's AUT: the victim never returns to the planted
   address. *)
let test_rop_detected ~config ~expect_detected =
  let cpu = Env.fresh_cpu () in
  let prog = Asm.create () in
  let gadget_entry = ref 0L in
  (* victim: a protected function that "overflows" its own stack slot,
     modeling an attacker-controlled write of the saved LR. *)
  add_wrapped config prog ~name:"victim"
    [
      (* saved frame record sits at [fp]: fp+8 holds the saved LR *)
      Asm.adr_of (Insn.R 9) "gadget";
      Asm.ins (Insn.Str (Insn.R 9, Insn.Off (Insn.fp, 8)));
    ];
  (* the gadget "escalates" and halts, standing in for attacker code *)
  Asm.add_function prog ~name:"gadget"
    [ Asm.ins (Insn.Movz (Insn.R 0, 0xbad, 0)); Asm.ins (Insn.Hlt 0x1337) ];
  let layout = Env.load_program cpu prog in
  gadget_entry := Asm.symbol layout "gadget";
  match Env.run_function cpu layout "victim" with
  | Cpu.Fault { fault = Cpu.Mmu_fault f; _ } when expect_detected ->
      Alcotest.(check bool) "poisoned return address" true
        (Vaddr.is_poisoned (Cpu.kernel_cfg cpu) f.Mmu.va)
  | Cpu.Hlt 0x1337 when not expect_detected ->
      Alcotest.(check int64) "gadget executed" 0xbadL (Cpu.reg cpu (Insn.R 0))
  | other ->
      Alcotest.failf "unexpected outcome (detected=%b): %s" expect_detected
        (Cpu.stop_to_string other)

let test_rop_detected_camouflage () = test_rop_detected ~config:C.Config.full ~expect_detected:true

let test_rop_succeeds_unprotected () =
  test_rop_detected ~config:C.Config.none ~expect_detected:false

(* Pointer integrity: Listing 4 get/set accessors on the machine agree
   with the host-side mirror, and a swapped ops pointer is rejected. *)

let make_registry () =
  let r = C.Pointer_integrity.create_registry () in
  let _ =
    C.Pointer_integrity.register r
      { C.Pointer_integrity.type_name = "file"; member_name = "f_ops"; offset = 40;
        role = C.Keys.Data }
  in
  let _ =
    C.Pointer_integrity.register r
      { C.Pointer_integrity.type_name = "timer"; member_name = "callback"; offset = 8;
        role = C.Keys.Forward }
  in
  r

let test_get_set_roundtrip () =
  let config = C.Config.full in
  let registry = make_registry () in
  let cpu = Env.fresh_cpu () in
  let prog = Asm.create () in
  (* set_file_ops(x0=file, x1=ops); then file_ops(x0) -> x0 *)
  add_wrapped config prog ~name:"set_file_ops"
    (C.Pointer_integrity.emit_setter config registry ~type_name:"file"
       ~member_name:"f_ops" ~obj:(Insn.R 0) ~value:(Insn.R 1) ~scratch:(Insn.R 9));
  add_wrapped config prog ~name:"file_ops"
    (C.Pointer_integrity.emit_getter config registry ~type_name:"file"
       ~member_name:"f_ops" ~obj:(Insn.R 0) ~dst:(Insn.R 8) ~scratch:(Insn.R 9)
    @ [ Asm.ins (Insn.Mov (Insn.R 0, Insn.R 8)) ]);
  let layout = Env.load_program cpu prog in
  let file_obj = Int64.add Env.data_base 0x100L in
  let ops_addr = Int64.add Env.data_base 0x800L in
  Cpu.set_reg cpu (Insn.R 0) file_obj;
  Cpu.set_reg cpu (Insn.R 1) ops_addr;
  Env.expect_return cpu layout "set_file_ops";
  (* In-memory representation carries a PAC. *)
  let stored = Env.read64_va cpu (Int64.add file_obj 40L) in
  Alcotest.(check bool) "stored pointer is signed" true (stored <> ops_addr);
  (* Host mirror agrees with the machine-side signing. *)
  let host_signed =
    C.Pointer_integrity.sign_value cpu config registry ~type_name:"file"
      ~member_name:"f_ops" ~obj_addr:file_obj ops_addr
  in
  Alcotest.(check int64) "host mirror matches machine" host_signed stored;
  Cpu.set_reg cpu (Insn.R 0) file_obj;
  Env.expect_return cpu layout "file_ops";
  Alcotest.(check int64) "getter authenticates" ops_addr (Cpu.reg cpu (Insn.R 0))

let test_fops_swap_detected () =
  (* DFI: copying a validly-signed f_ops from one file object into
     another must fail authentication (modifier binds the address). *)
  let config = C.Config.full in
  let registry = make_registry () in
  let cpu = Env.fresh_cpu () in
  let file_a = Int64.add Env.data_base 0x100L in
  let file_b = Int64.add Env.data_base 0x200L in
  let ops = Int64.add Env.data_base 0x800L in
  let signed_for_a =
    C.Pointer_integrity.sign_value cpu config registry ~type_name:"file"
      ~member_name:"f_ops" ~obj_addr:file_a ops
  in
  (match
     C.Pointer_integrity.auth_value cpu config registry ~type_name:"file"
       ~member_name:"f_ops" ~obj_addr:file_a signed_for_a
   with
  | Ok v -> Alcotest.(check int64) "auth at home address" ops v
  | Error _ -> Alcotest.fail "valid pointer rejected");
  (match
     C.Pointer_integrity.auth_value cpu config registry ~type_name:"file"
       ~member_name:"f_ops" ~obj_addr:file_b signed_for_a
   with
  | Ok _ -> Alcotest.fail "replayed pointer accepted"
  | Error poisoned ->
      Alcotest.(check bool) "poisoned" true
        (Vaddr.is_poisoned (Cpu.kernel_cfg cpu) poisoned));
  (* Cross-member replay: same address, different member constant. *)
  match
    C.Pointer_integrity.auth_value cpu config registry ~type_name:"timer"
      ~member_name:"callback" ~obj_addr:file_a signed_for_a
  with
  | Ok _ -> Alcotest.fail "cross-type replay accepted"
  | Error _ -> ()

let test_static_table_signing () =
  let config = C.Config.full in
  let registry = make_registry () in
  let cpu = Env.fresh_cpu () in
  let work_obj = Int64.add Env.data_base 0x300L in
  let location = Int64.add work_obj 8L in
  let callback = Int64.add Env.code_base 0x40L in
  Env.write64_va cpu location callback;
  let table =
    [ C.Static_table.entry_for registry ~location ~type_name:"timer"
        ~member_name:"callback" ]
  in
  C.Static_table.sign_all cpu config registry table ~read64:(Env.read64_va cpu)
    ~write64:(Env.write64_va cpu);
  let stored = Env.read64_va cpu location in
  Alcotest.(check bool) "signed in place" true (stored <> callback);
  match
    C.Pointer_integrity.auth_value cpu config registry ~type_name:"timer"
      ~member_name:"callback" ~obj_addr:work_obj stored
  with
  | Ok v -> Alcotest.(check int64) "authenticates to original" callback v
  | Error _ -> Alcotest.fail "static signing produced bad PAC"

(* Verifier. *)

let test_verifier_rejects_key_reads () =
  let cpu = Env.fresh_cpu () in
  let prog = Asm.create () in
  Asm.add_function prog ~name:"spy"
    [
      Asm.ins (Insn.Mrs (Insn.R 0, Sysreg.APIBKeyLo_EL1));
      Asm.ins (Insn.Mrs (Insn.R 1, Sysreg.APIBKeyHi_EL1));
      Asm.ins Insn.Ret;
    ];
  let layout = Env.load_program cpu prog in
  let violations =
    Env.key_access_scan
      ~read32:(fun va -> Mem.read32 (Cpu.mem cpu) (Env.pa_of_va va))
      ~base:layout.Asm.base ~size:layout.Asm.size
      ~allowed:(fun _ -> false)
  in
  Alcotest.(check int) "two violations" 2 (List.length violations);
  match violations with
  | { Paclint.Diag.kind = Paclint.Diag.Key_register_read Sysreg.APIBKeyLo_EL1; _ } :: _ -> ()
  | d :: _ -> Alcotest.failf "wrong reason: %s" (Paclint.Diag.to_string d)
  | [] -> Alcotest.fail "no violations"

let test_verifier_allows_setter () =
  let cpu = Env.fresh_cpu () in
  let prog = Asm.create () in
  Asm.add_function prog ~name:"setter"
    [
      Asm.ins (Insn.Movz (Insn.R 0, 0x1234, 0));
      Asm.ins (Insn.Msr (Sysreg.APIBKeyLo_EL1, Insn.R 0));
      Asm.ins (Insn.Movz (Insn.R 0, 0, 0));
      Asm.ins Insn.Ret;
    ];
  Asm.add_function prog ~name:"rogue_setter"
    [ Asm.ins (Insn.Msr (Sysreg.APIBKeyLo_EL1, Insn.R 0)); Asm.ins Insn.Ret ];
  let layout = Env.load_program cpu prog in
  let setter_base = Asm.symbol layout "setter" in
  let rogue_base = Asm.symbol layout "rogue_setter" in
  let allowed va = va >= setter_base && va < rogue_base in
  let violations =
    Env.key_access_scan
      ~read32:(fun va -> Mem.read32 (Cpu.mem cpu) (Env.pa_of_va va))
      ~base:layout.Asm.base ~size:layout.Asm.size ~allowed
  in
  Alcotest.(check int) "only the rogue write flagged" 1 (List.length violations);
  match violations with
  | [ { Paclint.Diag.kind = Paclint.Diag.Key_register_write _; va; _ } ] ->
      Alcotest.(check bool) "flagged inside rogue" true (va >= rogue_base)
  | other ->
      Alcotest.failf "unexpected: %s"
        (String.concat "; " (List.map Paclint.Diag.to_string other))

let test_verifier_sctlr () =
  let cpu = Env.fresh_cpu () in
  let prog = Asm.create () in
  Asm.add_function prog ~name:"disable_pauth"
    [
      Asm.ins (Insn.Movz (Insn.R 0, 0, 0));
      Asm.ins (Insn.Msr (Sysreg.SCTLR_EL1, Insn.R 0));
      Asm.ins Insn.Ret;
    ];
  let layout = Env.load_program cpu prog in
  let violations =
    Env.key_access_scan
      ~read32:(fun va -> Mem.read32 (Cpu.mem cpu) (Env.pa_of_va va))
      ~base:layout.Asm.base ~size:layout.Asm.size
      ~allowed:(fun _ -> false)
  in
  match violations with
  | [ { Paclint.Diag.kind = Paclint.Diag.Sctlr_write; _ } ] -> ()
  | other ->
      Alcotest.failf "expected SCTLR violation, got %d: %s" (List.length other)
        (String.concat "; " (List.map Paclint.Diag.to_string other))

(* Brute force. *)

let test_bruteforce_policy () =
  let bf = C.Bruteforce.create ~threshold:4 in
  let verdicts =
    List.init 4 (fun i ->
        C.Bruteforce.record_failure bf ~pid:(100 + i) ~faulting_va:0xffff0000dead0000L)
  in
  Alcotest.(check (list bool))
    "kill, kill, kill, panic"
    [ false; false; false; true ]
    (List.map (fun v -> v = C.Bruteforce.Panic) verdicts);
  Alcotest.(check int) "log depth" 4 (List.length (C.Bruteforce.log bf))

(* Modifier properties. *)

let prop_camouflage_modifier_distinct_functions =
  QCheck2.Test.make ~name:"camouflage modifier separates functions at equal SP"
    ~count:300
    QCheck2.Gen.(pair (map Int64.of_int int) (map Int64.of_int int))
    (fun (fa, fb) ->
      let sp = 0xffff00000021ff70L in
      let ma = C.Modifier.return_modifier C.Modifier.Camouflage ~sp ~func_addr:fa in
      let mb = C.Modifier.return_modifier C.Modifier.Camouflage ~sp ~func_addr:fb in
      let low32 x = Int64.logand x 0xffffffffL in
      if low32 fa = low32 fb then ma = mb else ma <> mb)

let prop_sp_only_replays_across_threads =
  (* The weakness the paper fixes: SP-only modifiers collide whenever two
     stacks are 2^16-aligned apart — here exactly equal low bits. *)
  QCheck2.Test.make ~name:"sp-only modifier collides across 64KiB-separated stacks"
    ~count:100
    QCheck2.Gen.(int_range 0 0xfff)
    (fun off ->
      let sp_thread1 = Int64.add 0xffff000000210000L (Int64.of_int off) in
      let sp_thread2 = Int64.add sp_thread1 0x10000L in
      let m1 = C.Modifier.return_modifier C.Modifier.Sp_only ~sp:sp_thread1 ~func_addr:1L in
      let m2 = C.Modifier.return_modifier C.Modifier.Sp_only ~sp:sp_thread2 ~func_addr:1L in
      (* full SP still differs; the PARTS 16-bit truncation collides *)
      let parts1 = C.Modifier.return_modifier (C.Modifier.Parts 7L) ~sp:sp_thread1 ~func_addr:1L in
      let parts2 = C.Modifier.return_modifier (C.Modifier.Parts 7L) ~sp:sp_thread2 ~func_addr:1L in
      m1 <> m2 && parts1 = parts2)

let suite =
  [
    Alcotest.test_case "Listing 2: sp-only prologue/epilogue" `Quick test_listing2_sp_only;
    Alcotest.test_case "Listing 3: camouflage prologue/epilogue" `Quick
      test_listing3_camouflage;
    Alcotest.test_case "instrumentation overhead counts" `Quick test_overhead_counts;
    Alcotest.test_case "nested calls under all schemes" `Quick
      test_nested_calls_all_schemes;
    Alcotest.test_case "compat binary on ARMv8.0" `Quick test_compat_runs_without_pauth;
    Alcotest.test_case "ROP blocked by backward-edge CFI" `Quick
      test_rop_detected_camouflage;
    Alcotest.test_case "ROP succeeds without protection" `Quick
      test_rop_succeeds_unprotected;
    Alcotest.test_case "Listing 4 get/set roundtrip" `Quick test_get_set_roundtrip;
    Alcotest.test_case "f_ops swap detected (DFI)" `Quick test_fops_swap_detected;
    Alcotest.test_case "static table signing (Section 4.6)" `Quick
      test_static_table_signing;
    Alcotest.test_case "verifier rejects key reads" `Quick test_verifier_rejects_key_reads;
    Alcotest.test_case "verifier allows audited setter" `Quick test_verifier_allows_setter;
    Alcotest.test_case "verifier flags SCTLR writes" `Quick test_verifier_sctlr;
    Alcotest.test_case "brute-force threshold policy" `Quick test_bruteforce_policy;
    QCheck_alcotest.to_alcotest prop_camouflage_modifier_distinct_functions;
    QCheck_alcotest.to_alcotest prop_sp_only_replays_across_threads;
  ]

(* The chained (PACStack-style) scheme: correctness of nested calls on a
   bare machine, its stronger temporal-replay guarantee, and its
   explicit limits. *)

let chained_config = { C.Config.backward_only with scheme = C.Modifier.Chained }

let test_chained_nested_calls () =
  let cpu = Aarch64.Bare.machine () in
  let prog = Asm.create () in
  let wrap name body =
    let f = C.Instrument.wrap chained_config ~name body in
    Asm.add_function prog ~name f.C.Instrument.items
  in
  wrap "inner" [ Asm.ins (Insn.Add_imm (Insn.R 0, Insn.R 0, 5)) ];
  wrap "middle" [ Asm.bl_to "inner"; Asm.ins (Insn.Add_imm (Insn.R 0, Insn.R 0, 7)) ];
  wrap "outer" [ Asm.bl_to "middle"; Asm.ins (Insn.Add_imm (Insn.R 0, Insn.R 0, 11)) ];
  let layout = Aarch64.Bare.load cpu prog in
  Cpu.set_reg cpu (Insn.R 0) 0L;
  (match Aarch64.Bare.call cpu layout "outer" with
  | Cpu.Sentinel_return -> ()
  | other -> Alcotest.failf "chained nested: %s" (Cpu.stop_to_string other));
  Alcotest.(check int64) "result" 23L (Cpu.reg cpu (Insn.R 0));
  Alcotest.(check int64) "stack balanced" Aarch64.Bare.stack_top (Cpu.sp_of cpu Aarch64.El.El1)

let test_chained_detects_smash () =
  let cpu = Aarch64.Bare.machine () in
  let prog = Asm.create () in
  let victim =
    C.Instrument.wrap chained_config ~name:"victim"
      [
        Asm.adr_of (Insn.R 9) "gadget";
        Asm.ins (Insn.Str (Insn.R 9, Insn.Off (Insn.fp, 8)));
      ]
  in
  Asm.add_function prog ~name:"victim" victim.C.Instrument.items;
  Asm.add_function prog ~name:"gadget" [ Asm.ins (Insn.Hlt 0x666) ];
  let layout = Aarch64.Bare.load cpu prog in
  match Aarch64.Bare.call cpu layout "victim" with
  | Cpu.Fault { fault = Cpu.Mmu_fault f; _ } ->
      Alcotest.(check bool) "poisoned return" true
        (Aarch64.Vaddr.is_poisoned (Cpu.kernel_cfg cpu) f.Aarch64.Mmu.va)
  | other -> Alcotest.failf "chained smash: %s" (Cpu.stop_to_string other)

let test_temporal_replay_matrix () =
  (match Attacks.Temporal_replay.run C.Modifier.Sp_only with
  | Attacks.Temporal_replay.Replay_accepted -> ()
  | o -> Alcotest.failf "sp-only: %s" (Attacks.Temporal_replay.outcome_to_string o));
  (match Attacks.Temporal_replay.run C.Modifier.Camouflage with
  | Attacks.Temporal_replay.Replay_accepted -> ()
  | o -> Alcotest.failf "camouflage: %s" (Attacks.Temporal_replay.outcome_to_string o));
  match Attacks.Temporal_replay.run C.Modifier.Chained with
  | Attacks.Temporal_replay.Replay_rejected -> ()
  | o -> Alcotest.failf "chained: %s" (Attacks.Temporal_replay.outcome_to_string o)

let test_chained_limits () =
  Alcotest.check_raises "no compat encoding"
    (Invalid_argument "Instrument: the chained scheme has no compat encoding") (fun () ->
      ignore (C.Instrument.wrap { chained_config with mode = C.Keys.Compat } ~name:"f" []));
  (match Kernel.System.boot ~config:chained_config () with
  | exception Failure _ -> ()
  | _sys -> Alcotest.fail "chained boot must be refused");
  Alcotest.check_raises "dynamic modifier"
    (Invalid_argument
       "Modifier.return_modifier: the chained modifier is a dynamic run-time value")
    (fun () ->
      ignore (C.Modifier.return_modifier C.Modifier.Chained ~sp:0L ~func_addr:0L))

let suite =
  suite
  @ [
      Alcotest.test_case "chained: nested calls" `Quick test_chained_nested_calls;
      Alcotest.test_case "chained: stack smash detected" `Quick test_chained_detects_smash;
      Alcotest.test_case "temporal replay matrix (A5)" `Quick test_temporal_replay_matrix;
      Alcotest.test_case "chained: documented limits" `Quick test_chained_limits;
    ]
