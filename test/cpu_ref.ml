(* Reference instruction semantics: one match arm per instruction,
   written against the public [Cpu] accessors, with memory reached
   through [Mmu.translate] and [Mem] directly — no icache, no micro-TLB,
   no page cache, no compiled op. It is slow and obviously shaped like
   the architecture manual's pseudocode, which makes it the oracle that
   [Cpu.op_of] is checked against (test_semantics.ml).

   [execute] neither retires nor charges cycles, so counter reads
   (CNTVCT, PMCCNTR, PMICNTR) see the pre-instruction counters, and it
   takes the hypervisor lock predicate as an argument because a core
   does not expose the one it holds. *)

open Aarch64
module Val64 = Camo_util.Val64

exception Stop of Cpu.stop

let fault t fault = raise (Stop (Cpu.Fault { fault; pc = Cpu.pc t }))

(* NZCV as packed by [Cpu.flags_bits]: N:3 Z:2 C:1 V:0. *)
let flag t bit = Cpu.flags_bits t land bit <> 0
let n_flag t = flag t 8
let z_flag t = flag t 4
let v_flag t = flag t 1

let do_pac t key ptr modifier =
  if Cpu.pauth_enabled t key then
    Pac.compute ~cipher:(Cpu.cipher t) ~key:(Cpu.pac_key t key)
      ~cfg:(Cpu.pointer_cfg t ptr) ~modifier ptr
  else ptr

let do_aut t key ptr modifier =
  if Cpu.pauth_enabled t key then begin
    match
      Pac.auth ~cipher:(Cpu.cipher t) ~key:(Cpu.pac_key t key)
        ~cfg:(Cpu.pointer_cfg t ptr) ~modifier ptr
    with
    | Ok stripped -> stripped
    | Error poisoned ->
        (match Cpu.telemetry t with
        | Some s -> Telemetry.Counters.count_auth_failure (Telemetry.Sink.counters s)
        | None -> ());
        poisoned
  end
  else ptr

(* Addressing-mode evaluation: returns the effective VA and applies any
   base-register writeback. *)
let effective_address t m =
  match m with
  | Insn.Off (base, off) -> Int64.add (Cpu.reg t base) (Int64.of_int off)
  | Insn.Pre (base, off) ->
      let addr = Int64.add (Cpu.reg t base) (Int64.of_int off) in
      Cpu.set_reg t base addr;
      addr
  | Insn.Post (base, off) ->
      let addr = Cpu.reg t base in
      Cpu.set_reg t base (Int64.add addr (Int64.of_int off));
      addr

let set_flags_sub t a b =
  let result = Int64.sub a b in
  let sa = Int64.compare a 0L < 0
  and sb = Int64.compare b 0L < 0
  and sr = Int64.compare result 0L < 0 in
  Cpu.set_flags_bits t
    ((if sr then 8 else 0)
    lor (if result = 0L then 4 else 0)
    lor (if Int64.unsigned_compare a b >= 0 then 2 else 0)
    lor if sa <> sb && sr <> sa then 1 else 0);
  result

let cond_holds t = function
  | Insn.Eq -> z_flag t
  | Insn.Ne -> not (z_flag t)
  | Insn.Lt -> n_flag t <> v_flag t
  | Insn.Ge -> n_flag t = v_flag t
  | Insn.Gt -> (not (z_flag t)) && n_flag t = v_flag t
  | Insn.Le -> z_flag t || n_flag t <> v_flag t

let count_walk t =
  match Cpu.telemetry t with
  | Some s -> Telemetry.Counters.count_mmu_walk (Telemetry.Sink.counters s)
  | None -> ()

let translate t ~access va =
  count_walk t;
  match Mmu.translate (Cpu.mmu t) ~el:(Cpu.el t) ~access va with
  | Ok pa -> pa
  | Error f -> fault t (Cpu.Mmu_fault f)

let load t ~width va =
  let pa = translate t ~access:Mmu.Read va in
  match width with
  | `X -> Mem.read64 (Cpu.mem t) pa
  | `B -> Int64.of_int (Mem.read8 (Cpu.mem t) pa)

let store t ~width va v =
  let pa = translate t ~access:Mmu.Write va in
  match width with
  | `X -> Mem.write64 (Cpu.mem t) pa v
  | `B -> Mem.write8 (Cpu.mem t) pa (Int64.to_int (Int64.logand v 0xffL))

let count_exception t count =
  match Cpu.telemetry t with
  | Some s -> count (Telemetry.Sink.counters s)
  | None -> ()

(* Execute one decoded instruction. The PC has NOT yet been advanced;
   [next] is the fall-through address. *)
let execute ~locked t insn ~next =
  let reg = Cpu.reg t and set_reg = Cpu.set_reg t in
  let branch target = Cpu.set_pc t target in
  let fallthrough () = Cpu.set_pc t next in
  match insn with
  | Insn.Nop | Insn.Isb -> fallthrough ()
  | Insn.Movz (rd, imm, sh) ->
      set_reg rd (Int64.shift_left (Int64.of_int imm) sh);
      fallthrough ()
  | Insn.Movk (rd, imm, sh) ->
      set_reg rd (Val64.insert ~lo:sh ~width:16 ~field:(Int64.of_int imm) (reg rd));
      fallthrough ()
  | Insn.Mov (rd, rn) ->
      set_reg rd (reg rn);
      fallthrough ()
  | Insn.Add_imm (rd, rn, imm) ->
      set_reg rd (Int64.add (reg rn) (Int64.of_int imm));
      fallthrough ()
  | Insn.Sub_imm (rd, rn, imm) ->
      set_reg rd (Int64.sub (reg rn) (Int64.of_int imm));
      fallthrough ()
  | Insn.Add_reg (rd, rn, rm) ->
      set_reg rd (Int64.add (reg rn) (reg rm));
      fallthrough ()
  | Insn.Sub_reg (rd, rn, rm) ->
      set_reg rd (Int64.sub (reg rn) (reg rm));
      fallthrough ()
  | Insn.Subs_reg (rd, rn, rm) ->
      set_reg rd (set_flags_sub t (reg rn) (reg rm));
      fallthrough ()
  | Insn.Subs_imm (rd, rn, imm) ->
      set_reg rd (set_flags_sub t (reg rn) (Int64.of_int imm));
      fallthrough ()
  | Insn.And_reg (rd, rn, rm) ->
      set_reg rd (Int64.logand (reg rn) (reg rm));
      fallthrough ()
  | Insn.Orr_reg (rd, rn, rm) ->
      set_reg rd (Int64.logor (reg rn) (reg rm));
      fallthrough ()
  | Insn.Eor_reg (rd, rn, rm) ->
      set_reg rd (Int64.logxor (reg rn) (reg rm));
      fallthrough ()
  | Insn.Lsl_imm (rd, rn, sh) ->
      set_reg rd (Int64.shift_left (reg rn) sh);
      fallthrough ()
  | Insn.Lsr_imm (rd, rn, sh) ->
      set_reg rd (Int64.shift_right_logical (reg rn) sh);
      fallthrough ()
  | Insn.Bfi (rd, rn, lsb, width) ->
      set_reg rd (Val64.insert ~lo:lsb ~width ~field:(reg rn) (reg rd));
      fallthrough ()
  | Insn.Ubfx (rd, rn, lsb, width) ->
      set_reg rd (Val64.extract ~lo:lsb ~width (reg rn));
      fallthrough ()
  | Insn.Adr (rd, target) ->
      set_reg rd target;
      fallthrough ()
  | Insn.Ldr (rd, m) ->
      let va = effective_address t m in
      set_reg rd (load t ~width:`X va);
      fallthrough ()
  | Insn.Ldrb (rd, m) ->
      let va = effective_address t m in
      set_reg rd (load t ~width:`B va);
      fallthrough ()
  | Insn.Str (rs, m) ->
      let va = effective_address t m in
      store t ~width:`X va (reg rs);
      fallthrough ()
  | Insn.Strb (rs, m) ->
      let va = effective_address t m in
      store t ~width:`B va (reg rs);
      fallthrough ()
  | Insn.Ldp (r1, r2, m) ->
      let va = effective_address t m in
      set_reg r1 (load t ~width:`X va);
      set_reg r2 (load t ~width:`X (Int64.add va 8L));
      fallthrough ()
  | Insn.Stp (r1, r2, m) ->
      let va = effective_address t m in
      store t ~width:`X va (reg r1);
      store t ~width:`X (Int64.add va 8L) (reg r2);
      fallthrough ()
  | Insn.B target -> branch target
  | Insn.Bl target ->
      set_reg Insn.lr next;
      branch target
  | Insn.Br rn -> branch (reg rn)
  | Insn.Blr rn ->
      let target = reg rn in
      set_reg Insn.lr next;
      branch target
  | Insn.Ret -> branch (reg Insn.lr)
  | Insn.Cbz (rn, target) -> if reg rn = 0L then branch target else fallthrough ()
  | Insn.Cbnz (rn, target) -> if reg rn <> 0L then branch target else fallthrough ()
  | Insn.Bcond (c, target) -> if cond_holds t c then branch target else fallthrough ()
  | Insn.Pac (k, rd, rm) ->
      set_reg rd (do_pac t k (reg rd) (reg rm));
      fallthrough ()
  | Insn.Aut (k, rd, rm) ->
      set_reg rd (do_aut t k (reg rd) (reg rm));
      fallthrough ()
  | Insn.Pac1716 k ->
      set_reg Insn.ip1 (do_pac t k (reg Insn.ip1) (reg Insn.ip0));
      fallthrough ()
  | Insn.Aut1716 k ->
      set_reg Insn.ip1 (do_aut t k (reg Insn.ip1) (reg Insn.ip0));
      fallthrough ()
  | Insn.Xpac rd ->
      let v = reg rd in
      set_reg rd (Vaddr.strip_pac (Cpu.pointer_cfg t v) v);
      fallthrough ()
  | Insn.Pacga (rd, rn, rm) ->
      set_reg rd
        (Pac.generic ~cipher:(Cpu.cipher t) ~key:(Cpu.pac_key t Sysreg.GA)
           ~value:(reg rn) ~modifier:(reg rm));
      fallthrough ()
  | Insn.Blra (k, rn, rm) ->
      let target = do_aut t k (reg rn) (reg rm) in
      set_reg Insn.lr next;
      branch target
  | Insn.Bra (k, rn, rm) -> branch (do_aut t k (reg rn) (reg rm))
  | Insn.Reta k -> branch (do_aut t k (reg Insn.lr) (reg Insn.SP))
  | Insn.Mrs (rd, sr) ->
      if Cpu.el t = El.El0 && not (Sysreg.el0_readable sr) then
        fault t (Cpu.El_denied sr);
      set_reg rd (Cpu.sysreg t sr);
      fallthrough ()
  | Insn.Msr (sr, rn) ->
      if Cpu.el t = El.El0 then fault t (Cpu.El_denied sr);
      if Cpu.el t = El.El1 && locked sr then fault t (Cpu.Hyp_denied sr);
      Cpu.set_sysreg t sr (reg rn);
      fallthrough ()
  | Insn.Svc imm ->
      Cpu.set_pc t next;
      count_exception t Telemetry.Counters.count_exception_entry;
      raise (Stop (Cpu.Svc imm))
  | Insn.Eret ->
      let spsr = Cpu.sysreg t Sysreg.SPSR_EL1 in
      Cpu.set_el t (if Val64.extract ~lo:2 ~width:2 spsr = 0L then El.El0 else El.El1);
      Cpu.set_pc t (Cpu.sysreg t Sysreg.ELR_EL1);
      count_exception t Telemetry.Counters.count_exception_return;
      raise (Stop Cpu.Eret_done)
  | Insn.Brk imm ->
      Cpu.set_pc t next;
      raise (Stop (Cpu.Brk imm))
  | Insn.Hlt imm ->
      Cpu.set_pc t next;
      raise (Stop (Cpu.Hlt imm))

(* [step ~locked t insn] — execute [insn] at the core's PC and report
   the stop a one-instruction [Cpu.run] would: [Insn_limit] when the
   instruction completes. *)
let step ~locked t insn =
  match execute ~locked t insn ~next:(Int64.add (Cpu.pc t) 4L) with
  | () -> Cpu.Insn_limit
  | exception Stop s -> s
