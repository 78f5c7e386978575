(* Shared machine setup for tests: a mapped kernel-space environment with
   keys installed, plus program loading helpers. *)

open Aarch64

let code_base = 0xffff000000100000L
let stack_top = 0xffff000000220000L
let data_base = 0xffff000000300000L

(* Identity-ish mapping: PA is the VA with the kernel prefix cleared. *)
let pa_of_va va = Int64.logand va 0x0000ffffffffffffL

let map_region ?(el0 = Mmu.no_access) cpu ~base ~pages perm =
  for i = 0 to pages - 1 do
    let va = Int64.add base (Int64.of_int (i * 4096)) in
    Mmu.map (Cpu.mmu cpu) ~va_page:(Vaddr.page_of va)
      ~pa_page:(Vaddr.page_of (pa_of_va va))
      ~el0 ~el1:perm
  done

let install_test_keys cpu =
  let sctlr =
    List.fold_left
      (fun acc k -> Camo_util.Val64.set_bit (Sysreg.sctlr_enable_bit k) true acc)
      0L
      Sysreg.[ IA; IB; DA; DB ]
  in
  Cpu.set_sysreg cpu Sysreg.SCTLR_EL1 sctlr;
  let rng = Camo_util.Rng.create 0xC0FFEEL in
  List.iter
    (fun k ->
      let hi, lo = Sysreg.key_halves k in
      Cpu.set_sysreg cpu hi (Camo_util.Rng.next rng);
      Cpu.set_sysreg cpu lo (Camo_util.Rng.next rng))
    Sysreg.[ IA; IB; DA; DB; GA ]

let fresh_cpu ?(has_pauth = true) ?tier () =
  let cpu = Cpu.create ~has_pauth ?tier () in
  map_region cpu ~base:code_base ~pages:16 Mmu.rx;
  map_region cpu ~base:(Int64.sub stack_top 0x20000L) ~pages:32 Mmu.rw;
  map_region cpu ~base:data_base ~pages:4 Mmu.rw;
  Cpu.set_sp_of cpu El.El1 stack_top;
  Cpu.set_el cpu El.El1;
  if has_pauth then install_test_keys cpu;
  cpu

let load_program ?(base = code_base) cpu prog =
  let layout = Asm.assemble prog ~base in
  Asm.encode_into layout ~write32:(fun va word ->
      Mem.write32 (Cpu.mem cpu) (pa_of_va va) word);
  layout

let run_function cpu layout name = Cpu.call cpu (Asm.symbol layout name)

let expect_return cpu layout name =
  match run_function cpu layout name with
  | Cpu.Sentinel_return -> ()
  | other -> Alcotest.failf "%s: unexpected stop: %s" name (Cpu.stop_to_string other)

let read64_va cpu va = Mem.read64 (Cpu.mem cpu) (pa_of_va va)
let write64_va cpu va v = Mem.write64 (Cpu.mem cpu) (pa_of_va va) v

(* The static key-access rule over a memory region: every word that
   decodes, checked by [Paclint.Lint.key_access]. *)
let key_access_scan ~read32 ~base ~size ~allowed =
  Paclint.Lint.decode_region ~read32 ~base ~size
  |> Array.to_list
  |> List.filter_map (fun (va, insn) -> Paclint.Lint.key_access ~allowed va insn)
