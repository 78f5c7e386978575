let code_base = 0xffff000000100000L
let stack_top = 0xffff000000220000L
let data_base = 0xffff000000300000L

let pa_of_va va = Int64.logand va 0x0000ffffffffffffL

let map_region cpu ~base ~pages perm =
  for idx = 0 to pages - 1 do
    let va = Int64.add base (Int64.of_int (idx * 4096)) in
    Mmu.map (Cpu.mmu cpu) ~va_page:(Vaddr.page_of va)
      ~pa_page:(Vaddr.page_of (pa_of_va va))
      ~el0:Mmu.no_access ~el1:perm
  done

(* Shared EL1 bring-up: mappings, stack, enable bits, random keys. *)
let setup ?(seed = 0xBA2EL) cpu =
  map_region cpu ~base:code_base ~pages:16 Mmu.rx;
  map_region cpu ~base:(Int64.sub stack_top 0x20000L) ~pages:32 Mmu.rw;
  map_region cpu ~base:data_base ~pages:4 Mmu.rw;
  Cpu.set_sp_of cpu El.El1 stack_top;
  Cpu.set_el cpu El.El1;
  let sctlr =
    List.fold_left
      (fun acc k -> Camo_util.Val64.set_bit (Sysreg.sctlr_enable_bit k) true acc)
      0L
      Sysreg.[ IA; IB; DA; DB ]
  in
  Cpu.set_sysreg cpu Sysreg.SCTLR_EL1 sctlr;
  let rng = Camo_util.Rng.create seed in
  List.iter
    (fun k ->
      let hi, lo = Sysreg.key_halves k in
      Cpu.set_sysreg cpu hi (Camo_util.Rng.next rng);
      Cpu.set_sysreg cpu lo (Camo_util.Rng.next rng))
    Sysreg.[ IA; IB; DA; DB; GA ];
  cpu

let machine ?seed ?cost ?trace_depth ?tier () =
  setup ?seed (Cpu.create ?cost ?trace_depth ?tier ())

(* Machine-based variant, for harnesses that need whole-machine
   snapshots or Snapshot.Fingerprint.of_machine — notably the
   three-tier differential fuzzer. *)
let smp ?seed ?tier () =
  let m = Machine.create ?tier ~cpus:1 () in
  ignore (setup ?seed (Machine.boot_core m) : Cpu.t);
  m

let load cpu prog =
  let layout = Asm.assemble prog ~base:code_base in
  Asm.encode_into layout ~write32:(fun va word ->
      Mem.write32 (Cpu.mem cpu) (pa_of_va va) word);
  layout

let read64 cpu va = Mem.read64 (Cpu.mem cpu) (pa_of_va va)
let write64 cpu va v = Mem.write64 (Cpu.mem cpu) (pa_of_va va) v

let call ?max_insns cpu layout name = Cpu.call ?max_insns cpu (Asm.symbol layout name)
