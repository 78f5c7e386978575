(* Coverage for the small supporting surfaces: disassembly text,
   exception-level naming, insn classification, the
   trace ring, and the hypervisor lockdown predicate. *)

open Aarch64

let test_el_names () =
  Alcotest.(check string) "el0" "EL0" (El.name El.El0);
  Alcotest.(check string) "el1" "EL1" (El.name El.El1);
  Alcotest.(check string) "el2" "EL2" (El.name El.El2)

let test_insn_classification () =
  Alcotest.(check bool) "pacia is pauth" true
    (Insn.is_pauth (Insn.Pac (Sysreg.IA, Insn.lr, Insn.SP)));
  Alcotest.(check bool) "retab is pauth" true (Insn.is_pauth (Insn.Reta Sysreg.IB));
  Alcotest.(check bool) "add is not" false
    (Insn.is_pauth (Insn.Add_imm (Insn.R 0, Insn.R 1, 4)));
  (match Insn.reads_sysreg (Insn.Mrs (Insn.R 0, Sysreg.APIAKeyLo_EL1)) with
  | Some Sysreg.APIAKeyLo_EL1 -> ()
  | Some _ | None -> Alcotest.fail "mrs reads");
  match Insn.writes_sysreg (Insn.Msr (Sysreg.SCTLR_EL1, Insn.R 0)) with
  | Some Sysreg.SCTLR_EL1 -> ()
  | Some _ | None -> Alcotest.fail "msr writes"

let test_insn_rendering () =
  let check insn expected = Alcotest.(check string) expected expected (Insn.to_string insn) in
  check (Insn.Pac (Sysreg.IB, Insn.lr, Insn.SP)) "pacib lr, sp";
  check (Insn.Aut (Sysreg.DB, Insn.R 8, Insn.R 9)) "autdb x8, x9";
  check (Insn.Stp (Insn.fp, Insn.lr, Insn.Pre (Insn.SP, -16))) "stp fp, lr, [sp, #-16]!";
  check (Insn.Ldp (Insn.fp, Insn.lr, Insn.Post (Insn.SP, 16))) "ldp fp, lr, [sp], #16";
  check (Insn.Bfi (Insn.R 16, Insn.R 17, 32, 32)) "bfi x16, x17, #32, #32";
  check (Insn.Blra (Sysreg.IA, Insn.R 8, Insn.R 9)) "blraia x8, x9";
  check Insn.Ret "ret";
  check (Insn.Svc 3) "svc #3"

let test_sysreg_ids () =
  (* the id is the position in [all]: the encoding keeps its fields *)
  List.iteri
    (fun i sr ->
      Alcotest.(check int) (Sysreg.name sr ^ " id") i (Sysreg.to_id sr);
      match Sysreg.of_id (Sysreg.to_id sr) with
      | Some sr' -> Alcotest.(check string) "id roundtrip" (Sysreg.name sr) (Sysreg.name sr')
      | None -> Alcotest.failf "no id for %s" (Sysreg.name sr))
    Sysreg.all;
  Alcotest.(check bool) "invalid id" true (Sysreg.of_id 999 = None);
  Alcotest.(check bool) "negative id" true (Sysreg.of_id (-1) = None);
  Alcotest.(check int) "ten key halves" 10
    (List.length (List.filter Sysreg.is_pauth_key Sysreg.all))

let test_trace_ring () =
  let cpu = Bare.machine () in
  let prog = Asm.create () in
  Asm.add_function prog ~name:"f"
    (List.init 40 (fun _ -> Asm.ins Insn.Nop) @ [ Asm.ins Insn.Ret ]);
  let layout = Bare.load cpu prog in
  (match Bare.call cpu layout "f" with
  | Cpu.Sentinel_return -> ()
  | other -> Alcotest.failf "trace run: %s" (Cpu.stop_to_string other));
  let trace = Cpu.recent_trace ~limit:8 cpu in
  Alcotest.(check int) "limited depth" 8 (List.length trace);
  (* newest entry is the ret *)
  (match List.rev trace with
  | (_, Insn.Ret) :: _ -> ()
  | _ -> Alcotest.fail "last retired should be ret");
  (* entries are consecutive pcs *)
  let pcs = List.map fst trace in
  let rec consecutive = function
    | a :: (b :: _ as rest) -> Int64.add a 4L = b && consecutive rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "consecutive straight-line pcs" true (consecutive pcs)

(* The ring keeps the last 32 retired instructions: a 61-instruction
   run leaves 32 however large the limit asked for. *)
let test_trace_depth () =
  let cpu = Bare.machine () in
  let prog = Asm.create () in
  Asm.add_function prog ~name:"f"
    (List.init 60 (fun _ -> Asm.ins Insn.Nop) @ [ Asm.ins Insn.Ret ]);
  let layout = Bare.load cpu prog in
  (match Bare.call cpu layout "f" with
  | Cpu.Sentinel_return -> ()
  | other -> Alcotest.failf "trace run: %s" (Cpu.stop_to_string other));
  Alcotest.(check int) "depth is 32" 32
    (List.length (Cpu.recent_trace ~limit:1000 cpu))

let test_hypervisor_lock_predicate () =
  let cpu = Cpu.create () in
  let hyp = Kernel.Hypervisor.install cpu in
  Alcotest.(check bool) "sctlr locked" true
    (Kernel.Hypervisor.is_locked_register hyp Sysreg.SCTLR_EL1);
  Alcotest.(check bool) "ttbr1 locked" true
    (Kernel.Hypervisor.is_locked_register hyp Sysreg.TTBR1_EL1);
  Alcotest.(check bool) "key regs not MMU-locked (verifier's job)" false
    (Kernel.Hypervisor.is_locked_register hyp Sysreg.APIBKeyLo_EL1)

let test_keys_allocation () =
  let module CK = Camouflage.Keys in
  Alcotest.(check int) "v8.3 uses 3 keys" 3 (List.length (CK.keys_in_use CK.Armv83));
  Alcotest.(check int) "compat uses 1 key" 1 (List.length (CK.keys_in_use CK.Compat));
  Alcotest.(check bool) "backward != forward on v8.3" true
    (CK.key_for CK.Armv83 CK.Backward <> CK.key_for CK.Armv83 CK.Forward);
  Alcotest.(check bool) "compat shares one key" true
    (CK.key_for CK.Compat CK.Backward = CK.key_for CK.Compat CK.Data)

let test_cntvct_reads_cycles () =
  let cpu = Bare.machine () in
  let prog = Asm.create () in
  Asm.add_function prog ~name:"readclk"
    [
      Asm.ins (Insn.Mrs (Insn.R 0, Sysreg.CNTVCT_EL0));
      Asm.ins (Insn.Mrs (Insn.R 1, Sysreg.CNTVCT_EL0));
      Asm.ins Insn.Ret;
    ];
  let layout = Bare.load cpu prog in
  (match Bare.call cpu layout "readclk" with
  | Cpu.Sentinel_return -> ()
  | other -> Alcotest.failf "clk: %s" (Cpu.stop_to_string other));
  Alcotest.(check bool) "virtual counter advances" true
    (Cpu.reg cpu (Insn.R 1) > Cpu.reg cpu (Insn.R 0))

let suite =
  [
    Alcotest.test_case "exception-level names" `Quick test_el_names;
    Alcotest.test_case "instruction classification" `Quick test_insn_classification;
    Alcotest.test_case "instruction rendering" `Quick test_insn_rendering;
    Alcotest.test_case "sysreg id roundtrip" `Quick test_sysreg_ids;
    Alcotest.test_case "cpu trace ring" `Quick test_trace_ring;
    Alcotest.test_case "trace ring depth is 32" `Quick test_trace_depth;
    Alcotest.test_case "hypervisor lock predicate" `Quick test_hypervisor_lock_predicate;
    Alcotest.test_case "key allocation (Section 4.5)" `Quick test_keys_allocation;
    Alcotest.test_case "CNTVCT virtual counter" `Quick test_cntvct_reads_cycles;
  ]
