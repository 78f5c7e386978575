(* XOM key-management tests (Sections 4.1, 5.1, 6.2.2): the generated
   setter installs exactly the generated keys, clears its working
   registers, passes the static verifier only via the allowed-range
   predicate, and the page is unreadable yet executable. *)

open Aarch64
module C = Camouflage
module K = Kernel

let setup ?(mode = C.Keys.Armv83) () =
  let cpu = Cpu.create () in
  let hyp = K.Hypervisor.install cpu in
  let rng = Camo_util.Rng.create 99L in
  let xom = K.Xom.install cpu hyp ~rng ~mode in
  (cpu, xom)

let test_setter_installs_keys () =
  let cpu, xom = setup () in
  (match Cpu.call cpu xom.K.Xom.setter_addr with
  | Cpu.Sentinel_return -> ()
  | other -> Alcotest.failf "setter: %s" (Cpu.stop_to_string other));
  List.iter
    (fun (key, expected) ->
      let got = Cpu.pac_key cpu key in
      Alcotest.(check int64) "hi half" expected.Pac.hi got.Pac.hi;
      Alcotest.(check int64) "lo half" expected.Pac.lo got.Pac.lo)
    xom.K.Xom.kernel_keys

let test_setter_clears_gprs () =
  let cpu, xom = setup () in
  Cpu.set_reg cpu (Insn.R 0) 0xdeadL;
  (match Cpu.call cpu xom.K.Xom.setter_addr with
  | Cpu.Sentinel_return -> ()
  | other -> Alcotest.failf "setter: %s" (Cpu.stop_to_string other));
  Alcotest.(check int64) "x0 cleared (no key residue)" 0L (Cpu.reg cpu (Insn.R 0))

let test_restore_loads_task_keys () =
  let cpu, xom = setup () in
  (* lay out a fake task struct with recognizable user keys *)
  let task = 0xffff000000700000L in
  K.Kmem.map_kernel_region cpu ~base:task ~bytes:4096 Mmu.rw;
  List.iteri
    (fun idx _ ->
      let base = Int64.add task (Int64.of_int (K.Kobject.Task.off_user_keys + (16 * idx))) in
      K.Kmem.write64 cpu base (Int64.of_int (0x1000 + idx));
      K.Kmem.write64 cpu (Int64.add base 8L) (Int64.of_int (0x2000 + idx)))
    Sysreg.[ IA; IB; DA; DB; GA ];
  Cpu.set_reg cpu (Insn.R 0) task;
  (match Cpu.call cpu xom.K.Xom.restore_addr with
  | Cpu.Sentinel_return -> ()
  | other -> Alcotest.failf "restore: %s" (Cpu.stop_to_string other));
  List.iteri
    (fun idx key ->
      let k = Cpu.pac_key cpu key in
      Alcotest.(check int64) "restored hi" (Int64.of_int (0x1000 + idx)) k.Pac.hi;
      Alcotest.(check int64) "restored lo" (Int64.of_int (0x2000 + idx)) k.Pac.lo)
    Sysreg.[ IA; IB; DA; DB; GA ];
  Alcotest.(check int64) "scratch cleared" 0L (Cpu.reg cpu (Insn.R 1))

let test_xom_unreadable_but_executable () =
  let cpu, xom = setup () in
  (* machine-level read of the setter page must fault at stage 2 *)
  let prog = Asm.create () in
  Asm.add_function prog ~name:"snoop"
    [ Asm.ins (Insn.Ldr (Insn.R 0, Insn.Off (Insn.R 1, 0))); Asm.ins Insn.Ret ];
  let code_base = 0xffff000000110000L in
  K.Kmem.map_kernel_region cpu ~base:code_base ~bytes:4096 Mmu.rx;
  let layout = Asm.assemble prog ~base:code_base in
  Asm.encode_into layout ~write32:(K.Kmem.write32 cpu);
  Cpu.set_reg cpu (Insn.R 1) xom.K.Xom.setter_addr;
  (match Cpu.call cpu (Asm.symbol layout "snoop") with
  | Cpu.Fault { fault = Cpu.Mmu_fault f; _ } ->
      Alcotest.(check bool) "stage-2 read denial" true (f.Mmu.kind = Mmu.Stage2_permission)
  | other -> Alcotest.failf "read of XOM: %s" (Cpu.stop_to_string other));
  (* yet execution still works *)
  match Cpu.call cpu xom.K.Xom.setter_addr with
  | Cpu.Sentinel_return -> ()
  | other -> Alcotest.failf "exec of XOM: %s" (Cpu.stop_to_string other)

let test_xom_unwritable () =
  let cpu, xom = setup () in
  let prog = Asm.create () in
  Asm.add_function prog ~name:"patch"
    [ Asm.ins (Insn.Str (Insn.R 0, Insn.Off (Insn.R 1, 0))); Asm.ins Insn.Ret ];
  let code_base = 0xffff000000110000L in
  K.Kmem.map_kernel_region cpu ~base:code_base ~bytes:4096 Mmu.rx;
  let layout = Asm.assemble prog ~base:code_base in
  Asm.encode_into layout ~write32:(K.Kmem.write32 cpu);
  Cpu.set_reg cpu (Insn.R 1) xom.K.Xom.setter_addr;
  match Cpu.call cpu (Asm.symbol layout "patch") with
  | Cpu.Fault { fault = Cpu.Mmu_fault _; _ } -> ()
  | other -> Alcotest.failf "write to XOM: %s" (Cpu.stop_to_string other)

let test_verifier_allowed_range () =
  let cpu, xom = setup () in
  (* the setter writes key registers: flagged everywhere except inside
     the audited range *)
  let read32 va = K.Kmem.read32 cpu va in
  let strict =
    Env.key_access_scan ~read32 ~base:xom.K.Xom.base ~size:xom.K.Xom.bytes
      ~allowed:(fun _ -> false)
  in
  Alcotest.(check bool) "flags key writes without allowance" true
    (List.length strict >= List.length xom.K.Xom.kernel_keys * 2);
  let allowed =
    Env.key_access_scan ~read32 ~base:xom.K.Xom.base ~size:xom.K.Xom.bytes
      ~allowed:(K.Xom.allowed_key_writer xom)
  in
  Alcotest.(check int) "clean inside audited range" 0 (List.length allowed)

let test_compat_mode_keys () =
  let _, xom = setup ~mode:C.Keys.Compat () in
  Alcotest.(check int) "compat uses a single key" 1
    (List.length xom.K.Xom.kernel_keys);
  match xom.K.Xom.kernel_keys with
  | [ (Sysreg.IB, _) ] -> ()
  | _ -> Alcotest.fail "compat key must be IB"

let test_distinct_seeds_distinct_keys () =
  let make seed =
    let cpu = Cpu.create () in
    let hyp = K.Hypervisor.install cpu in
    K.Xom.install cpu hyp ~rng:(Camo_util.Rng.create seed) ~mode:C.Keys.Armv83
  in
  let a = make 1L and b = make 2L in
  Alcotest.(check bool) "different boot entropy, different keys" true
    (a.K.Xom.kernel_keys <> b.K.Xom.kernel_keys)

let suite =
  [
    Alcotest.test_case "setter installs generated keys" `Quick test_setter_installs_keys;
    Alcotest.test_case "setter clears working registers" `Quick test_setter_clears_gprs;
    Alcotest.test_case "restore loads thread_struct keys" `Quick
      test_restore_loads_task_keys;
    Alcotest.test_case "XOM page unreadable but executable" `Quick
      test_xom_unreadable_but_executable;
    Alcotest.test_case "XOM page unwritable" `Quick test_xom_unwritable;
    Alcotest.test_case "verifier allowance is range-exact" `Quick
      test_verifier_allowed_range;
    Alcotest.test_case "compat mode provisions only IB" `Quick test_compat_mode_keys;
    Alcotest.test_case "boot entropy drives the keys" `Quick
      test_distinct_seeds_distinct_keys;
  ]
