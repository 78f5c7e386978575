(* One instruction semantics, checked against the reference.

   [Cpu.op_of] is the only definition of what an instruction does, so
   the tiers agreeing with each other (test_fuzz.ml) no longer says
   they are right: a wrong op is wrong on every tier at once. This
   suite runs every instruction form of [Test_properties.gen_insn] as
   a one-instruction program and compares the outcome with
   [Cpu_ref.execute], the old interpreter kept as an oracle.

   Each case runs on the interp and icache tiers twice, with
   [Cpu.restore] and [Mem.restore] between, so the second icache run
   meets a warm line and a warm page cache. Operands are R, SP and XZR
   registers holding data-region pointers, small values or random
   words; the core runs at EL0 or EL1, with PAuth on, off in SCTLR, or
   absent. The data region is four pages of a non-zero byte pattern:
   two read-write, one EL1-only and one read-only, so loads, stores,
   page straddles and permission and translation faults all occur.
   Compared: GPRs, banked SPs, PC, EL, NZCV, written sysregs, the data
   region and the stop; XZR must also read zero afterwards, so an op
   that writes XZR's read slot fails even when the reference, sharing
   the register accessors, makes the same mistake. A read of CNTVCT,
   PMCCNTR or PMICNTR is masked, because the reference charges no
   cycles. *)

open Aarch64

let pc = Test_properties.pc
let data_base = Bare.data_base
let data_bytes = 4 * 4096
let data_frame = Int64.to_int (Vaddr.page_of (Env.pa_of_va data_base))
let pattern = String.init data_bytes (fun i -> Char.chr (1 + (i * 131 mod 255)))
let cipher = Qarma.Block.create ()

type pauth = On | Sctlr_off | Absent

type case = {
  insn : Insn.t;
  el : El.t;
  pauth : pauth;
  locked : bool;  (* the hypervisor lock on the key registers *)
  regs : int64 array;
  sps : int64 * int64;  (* SP_EL0, SP_EL1 *)
  flags : int;
  elr : int64;
  spsr : int64;
}

let pauth_name = function On -> "on" | Sctlr_off -> "sctlr-off" | Absent -> "absent"

let print_case c =
  Printf.sprintf
    "%s at %s, pauth %s, locked %b, flags %x, sp0 %Lx sp1 %Lx, elr %Lx spsr %Lx, regs [%s]"
    (Insn.to_string c.insn)
    (match c.el with El.El0 -> "EL0" | El.El1 -> "EL1" | El.El2 -> "EL2")
    (pauth_name c.pauth) c.locked c.flags (fst c.sps) (snd c.sps) c.elr c.spsr
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%Lx") c.regs)))

let gen_value =
  QCheck2.Gen.(
    frequency
      [
        ( 4,
          map (fun off -> Int64.add data_base (Int64.of_int off)) (int_range 0 (data_bytes - 1)) );
        (1, map Int64.of_int (int_range 0 255));
        (1, ui64);
      ])

let gen_case =
  QCheck2.Gen.(
    Test_properties.gen_insn >>= fun insn ->
    oneofl [ El.El0; El.El1 ] >>= fun el ->
    oneofl [ On; Sctlr_off; Absent ] >>= fun pauth ->
    bool >>= fun locked ->
    array_size (return 31) gen_value >>= fun regs ->
    pair gen_value gen_value >>= fun sps ->
    int_range 0 15 >>= fun flags ->
    pair gen_value (map Int64.of_int (int_range 0 15)) >>= fun (elr, spsr) ->
    return { insn; el; pauth; locked; regs; sps; flags; elr; spsr })

let map_page cpu va ~el0 ~el1 =
  Mmu.map (Cpu.mmu cpu) ~va_page:(Vaddr.page_of va)
    ~pa_page:(Vaddr.page_of (Env.pa_of_va va)) ~el0 ~el1

(* A fresh core holding the case's state, the instruction at [pc]. *)
let make ~tier c =
  let cpu = Cpu.create ~tier ~cipher ~has_pauth:(c.pauth <> Absent) () in
  map_page cpu pc ~el0:Mmu.rx ~el1:Mmu.rx;
  List.iteri
    (fun i (el0, el1) ->
      map_page cpu (Int64.add data_base (Int64.of_int (i * 4096))) ~el0 ~el1)
    Mmu.[ (rw, rw); (rw, rw); (no_access, rw); (ro, ro) ];
  List.iter
    (fun i ->
      Bytes.blit_string pattern (i * 4096)
        (Mem.frame_bytes (Cpu.mem cpu) (data_frame + i))
        0 4096)
    [ 0; 1; 2; 3 ];
  let rng = Camo_util.Rng.create 0x5e3aL in
  List.iter
    (fun k ->
      let hi, lo = Sysreg.key_halves k in
      Cpu.set_sysreg cpu hi (Camo_util.Rng.next rng);
      Cpu.set_sysreg cpu lo (Camo_util.Rng.next rng))
    Sysreg.[ IA; IB; DA; DB; GA ];
  let enable =
    List.fold_left
      (fun acc k -> acc lor (1 lsl Sysreg.sctlr_enable_bit k))
      0 Sysreg.[ IA; IB; DA; DB ]
  in
  Cpu.set_sysreg cpu Sysreg.SCTLR_EL1
    (Int64.of_int (if c.pauth = Sctlr_off then 0 else enable));
  Cpu.set_sysreg cpu Sysreg.ELR_EL1 c.elr;
  Cpu.set_sysreg cpu Sysreg.SPSR_EL1 c.spsr;
  Cpu.set_sysreg_lock cpu (if c.locked then Sysreg.is_pauth_key else fun _ -> false);
  Array.iteri (fun i v -> Cpu.set_reg cpu (Insn.R i) v) c.regs;
  Cpu.set_sp_of cpu El.El0 (fst c.sps);
  Cpu.set_sp_of cpu El.El1 (snd c.sps);
  Cpu.set_flags_bits cpu c.flags;
  Cpu.set_el cpu c.el;
  Cpu.set_pc cpu pc;
  Mem.write32 (Cpu.mem cpu) (Env.pa_of_va pc) (Encode.encode ~pc c.insn);
  cpu

let counter = function
  | Sysreg.CNTVCT_EL0 | Sysreg.PMCCNTR_EL0 | Sysreg.PMICNTR_EL0 -> true
  | _ -> false

type outcome = {
  o_stop : string;
  o_regs : int64 list;
  o_xzr : int64;
  o_sps : int64 list;
  o_pc : int64;
  o_el : El.t;
  o_flags : int;
  o_sysregs : (Sysreg.t * int64) list;
  o_data : string;
}

let observe c cpu stop =
  (match c.insn with Insn.Mrs (rd, sr) when counter sr -> Cpu.set_reg cpu rd 0L | _ -> ());
  {
    o_stop = Cpu.stop_to_string stop;
    o_regs = List.init 31 (fun i -> Cpu.reg cpu (Insn.R i));
    o_xzr = Cpu.reg cpu Insn.XZR;
    o_sps = List.map (Cpu.sp_of cpu) [ El.El0; El.El1; El.El2 ];
    o_pc = Cpu.pc cpu;
    o_el = Cpu.el cpu;
    o_flags = Cpu.flags_bits cpu;
    o_sysregs = List.rev (Cpu.fold_sysregs cpu (fun acc sr v -> (sr, v) :: acc) []);
    o_data =
      String.concat ""
        (List.map
           (fun i -> Bytes.to_string (Mem.frame_bytes (Cpu.mem cpu) (data_frame + i)))
           [ 0; 1; 2; 3 ]);
  }

(* Two one-instruction runs from the same state; the core and memory
   are left restored to that state. *)
let run_twice ~tier c =
  let cpu = make ~tier c in
  let c0 = Cpu.capture cpu and m0 = Mem.snapshot (Cpu.mem cpu) in
  let run () =
    let o = observe c cpu (Cpu.run ~max_insns:1 cpu) in
    Cpu.restore cpu c0;
    Mem.restore (Cpu.mem cpu) m0;
    o
  in
  let first = run () in
  (cpu, first, run ())

let prop_reference =
  QCheck2.Test.make ~name:"every instruction form: interp and icache ops = Cpu_ref"
    ~count:3000 ~print:print_case gen_case (fun c ->
      let cpu, i1, i2 = run_twice ~tier:Cpu.Interp c in
      let _, c1, c2 = run_twice ~tier:Cpu.Icache c in
      let locked = if c.locked then Sysreg.is_pauth_key else fun _ -> false in
      let expected = observe c cpu (Cpu_ref.step ~locked cpu c.insn) in
      expected.o_xzr = 0L && List.for_all (( = ) expected) [ i1; i2; c1; c2 ])

let suite = [ QCheck_alcotest.to_alcotest prop_reference ]
