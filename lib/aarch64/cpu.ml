module Val64 = Camo_util.Val64

type fault =
  | Mmu_fault of Mmu.fault
  | Undefined_instruction of int32
  | Hyp_denied of Sysreg.t
  | El_denied of Sysreg.t

type stop =
  | Svc of int
  | Brk of int
  | Hlt of int
  | Fault of { fault : fault; pc : int64 }
  | Eret_done
  | Sentinel_return
  | Insn_limit

type flags = { mutable n : bool; mutable z : bool; mutable v : bool; mutable c : bool }

type hook_action = Exec | Skip

(* The three execution tiers. All of them are bit-identical in guest
   terms — the selector only decides how much host-side machinery sits
   between fetch and retire. *)
type tier = Interp | Icache | Traces

let tier_name = function
  | Interp -> "interp"
  | Icache -> "icache"
  | Traces -> "traces"

let tier_of_string = function
  | "interp" -> Some Interp
  | "icache" -> Some Icache
  | "traces" -> Some Traces
  | _ -> None

let all_tiers = [ Interp; Icache; Traces ]

type t = {
  regs : int64 array;
  mutable sp_el0 : int64;
  mutable sp_el1 : int64;
  mutable sp_el2 : int64;
  mutable pc : int64;
  mutable el : El.t;
  flags : flags;
  sysregs : (Sysreg.t, int64) Hashtbl.t;
  mem : Mem.t;
  mmu : Mmu.t;
  (* decoded-instruction cache + micro-TLB over (mem, mmu); possibly
     shared with sibling cores. Purely host-speed: never guest-visible. *)
  icache : Icache.t;
  (* requested execution tier; fixed at creation *)
  tier : tier;
  (* superblock trace cache, present iff [tier = Traces]. Per-core,
     unlike the shared icache: compiled blocks capture this core's
     register file. Invalidation still crosses cores because every
     trace cache hooks the one shared [Mem]. *)
  traces : (unit -> unit) Traces.t option;
  cipher : Qarma.Block.t;
  cost : Cost.profile;
  (* native ints, not Int64: these are bumped once per retired
     instruction on the interpreter hot path and a boxed Int64
     read-modify-write there costs an allocation per step. 63 bits of
     cycles outlast any run by orders of magnitude. *)
  mutable cycles : int;
  mutable insns_retired : int;
  has_pauth : bool;
  user_cfg : Vaddr.config;
  kernel_cfg : Vaddr.config;
  mutable sysreg_locked : Sysreg.t -> bool;
  (* ring buffer of recently retired (pc, insn), newest last; parallel
     arrays so a retire stores two fields instead of allocating a
     [Some (pc, insn)] tuple per instruction. The PC ring is a Bigarray
     so the store is an unboxed write — no allocation, no GC barrier. *)
  trace_pc : (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t;
  trace_insn : Insn.t array;
  mutable trace_pos : int;
  id : int;
  (* pre-execute observation point; see set_step_hook *)
  mutable step_hook : (t -> pc:int64 -> Insn.t -> hook_action) option;
  (* telemetry endpoint; None (the default) must leave execution
     bit-identical to a build without telemetry *)
  mutable sink : Telemetry.Sink.t option;
  (* which tier the last [run] actually executed under: a hooked or
     telemetry-observed run on a traces-tier core drops to the icache
     path, and tests want to assert that *)
  mutable last_run_tier : tier;
}

(* A canonical kernel address that is never mapped: it survives PAC/AUT
   round trips (host-called protected functions sign it as their return
   address) and the fetch path checks for it before translation. *)
let sentinel = 0xffff_ffff_dead_0000L

(* Int64 equality on the step path: generic [=] dispatches through the
   polymorphic comparator (a C call per instruction). Compare the
   63-bit truncations first — an int compare — and confirm the rare
   near-miss with the real Int64 primitive. *)
let sentinel_lo = Int64.to_int sentinel

let[@inline] is_sentinel pc =
  Int64.to_int pc = sentinel_lo && Int64.equal pc sentinel

let[@inline] is_zero64 v = Int64.to_int v = 0 && Int64.equal v 0L

let create ?(cost = Cost.cortex_a53) ?(has_pauth = true) ?(user_cfg = Vaddr.linux_user)
    ?(kernel_cfg = Vaddr.linux_kernel) ?(cipher = Qarma.Block.create ()) ?mem ?mmu
    ?icache ?(tier = Icache) ?(trace_depth = 32) ?(id = 0) () =
  if trace_depth <= 0 then invalid_arg "Cpu.create: trace_depth";
  let mem = match mem with Some m -> m | None -> Mem.create () in
  let mmu = match mmu with Some m -> m | None -> Mmu.create () in
  let icache =
    match icache with
    | Some i -> i
    | None -> Icache.create ~enabled:(tier <> Interp) ~mem ~mmu ()
  in
  let traces =
    match tier with Traces -> Some (Traces.create ~mem ~mmu ()) | _ -> None
  in
  {
    regs = Array.make 31 0L;
    sp_el0 = 0L;
    sp_el1 = 0L;
    sp_el2 = 0L;
    pc = 0L;
    el = El.El1;
    flags = { n = false; z = false; v = false; c = false };
    sysregs = Hashtbl.create 32;
    mem;
    mmu;
    icache;
    tier;
    traces;
    cipher;
    cost;
    cycles = 0;
    insns_retired = 0;
    has_pauth;
    user_cfg;
    kernel_cfg;
    sysreg_locked = (fun _ -> false);
    trace_pc =
      (let a = Bigarray.Array1.create Bigarray.Int64 Bigarray.C_layout trace_depth in
       Bigarray.Array1.fill a 0L;
       a);
    trace_insn = Array.make trace_depth Insn.Nop;
    trace_pos = 0;
    id;
    step_hook = None;
    sink = None;
    last_run_tier = tier;
  }

let mem t = t.mem
let mmu t = t.mmu
let icache t = t.icache
let tier t = t.tier
let trace_stats t = Option.map Traces.stats t.traces
let id t = t.id
let cipher t = t.cipher
let cost_profile t = t.cost
let has_pauth t = t.has_pauth
let user_cfg t = t.user_cfg
let kernel_cfg t = t.kernel_cfg

let pointer_cfg t va =
  match Vaddr.select va with
  | Vaddr.Kernel -> t.kernel_cfg
  | Vaddr.User | Vaddr.Invalid -> t.user_cfg

let sp_of t = function
  | El.El0 -> t.sp_el0
  | El.El1 -> t.sp_el1
  | El.El2 -> t.sp_el2

let set_sp_of t el v =
  match el with
  | El.El0 -> t.sp_el0 <- v
  | El.El1 -> t.sp_el1 <- v
  | El.El2 -> t.sp_el2 <- v

(* [R n] is validated at decode/assembly time (n < 31), so the register
   file skips the bounds check on the hot path. *)
let reg t = function
  | Insn.R n -> Array.unsafe_get t.regs n
  | Insn.XZR -> 0L
  | Insn.SP -> sp_of t t.el

let set_reg t r v =
  match r with
  | Insn.R n -> Array.unsafe_set t.regs n v
  | Insn.XZR -> ()
  | Insn.SP -> set_sp_of t t.el v

let sysreg t sr =
  match sr with
  | Sysreg.CNTVCT_EL0 | Sysreg.PMCCNTR_EL0 -> Int64.of_int t.cycles
  | Sysreg.PMICNTR_EL0 -> Int64.of_int t.insns_retired
  | Sysreg.PMEVCNTR0_EL0 | Sysreg.PMEVCNTR1_EL0 | Sysreg.PMEVCNTR2_EL0 -> (
      (* event counters read 0 unless a telemetry sink is attached *)
      match t.sink with
      | None -> 0L
      | Some s ->
          let c = Telemetry.Sink.counters s in
          (match sr with
          | Sysreg.PMEVCNTR0_EL0 -> Telemetry.Counters.live_pac_ops c
          | Sysreg.PMEVCNTR1_EL0 -> Telemetry.Counters.live_aut_ops c
          | _ -> Telemetry.Counters.live_auth_failures c))
  | _ -> ( match Hashtbl.find_opt t.sysregs sr with Some v -> v | None -> 0L)

(* Writes to the MMU-control registers (TTBR0/TTBR1/SCTLR) or the ASID
   register flush the decoded-instruction cache: an address-space or
   translation-regime change may invalidate every cached decode. PAuth
   key registers are deliberately exempt — keys affect execution, never
   decode or translation, and the XOM setter rewrites them on every
   kernel entry. *)
let set_sysreg t sr v =
  Hashtbl.replace t.sysregs sr v;
  if Sysreg.is_mmu_control sr || sr = Sysreg.CONTEXTIDR_EL1 then begin
    Icache.flush t.icache;
    match t.traces with Some tr -> Traces.flush tr | None -> ()
  end

let flags_bits t =
  (if t.flags.n then 8 else 0)
  lor (if t.flags.z then 4 else 0)
  lor (if t.flags.c then 2 else 0)
  lor if t.flags.v then 1 else 0

let pc t = t.pc
let set_pc t v = t.pc <- v
let el t = t.el
let set_el t e = t.el <- e
let cycles t = Int64.of_int t.cycles
let insns_retired t = Int64.of_int t.insns_retired
let charge t n = t.cycles <- t.cycles + n
let set_sysreg_lock t f = t.sysreg_locked <- f
let set_step_hook t h = t.step_hook <- h
let attach_telemetry t s = t.sink <- Some s
let detach_telemetry t = t.sink <- None
let telemetry t = t.sink

let pac_key t k =
  let hi_reg, lo_reg = Sysreg.key_halves k in
  Pac.{ hi = sysreg t hi_reg; lo = sysreg t lo_reg }

let pauth_enabled t k =
  t.has_pauth
  &&
  match k with
  | Sysreg.GA -> true
  | Sysreg.IA | Sysreg.IB | Sysreg.DA | Sysreg.DB ->
      Val64.bit (Sysreg.sctlr_enable_bit k) (sysreg t Sysreg.SCTLR_EL1)

let cost_of t insn =
  let c = t.cost in
  match insn with
  | Insn.Movz _ | Insn.Movk _ | Insn.Mov _ | Insn.Add_imm _ | Insn.Sub_imm _
  | Insn.Add_reg _ | Insn.Sub_reg _ | Insn.Subs_reg _ | Insn.Subs_imm _ | Insn.And_reg _
  | Insn.Orr_reg _ | Insn.Eor_reg _ | Insn.Lsl_imm _ | Insn.Lsr_imm _ | Insn.Bfi _
  | Insn.Ubfx _ | Insn.Adr _ | Insn.Nop | Insn.Brk _ | Insn.Hlt _ ->
      c.alu
  | Insn.Ldr _ | Insn.Ldrb _ -> c.load
  | Insn.Ldp _ -> c.load + 1
  | Insn.Str _ | Insn.Strb _ -> c.store
  | Insn.Stp _ -> c.store + 1
  | Insn.B _ | Insn.Bl _ | Insn.Br _ | Insn.Blr _ | Insn.Ret | Insn.Cbz _ | Insn.Cbnz _
  | Insn.Bcond _ ->
      c.branch
  | Insn.Pac (k, _, _) | Insn.Aut (k, _, _) ->
      if pauth_enabled t k then c.pauth else c.alu
  | Insn.Pac1716 k | Insn.Aut1716 k -> if pauth_enabled t k then c.pauth else c.alu
  | Insn.Xpac _ -> if t.has_pauth then c.pauth else c.alu
  | Insn.Pacga _ -> if t.has_pauth then c.pauth else c.alu
  | Insn.Blra (k, _, _) | Insn.Bra (k, _, _) | Insn.Reta k ->
      c.branch + if pauth_enabled t k then c.pauth else 0
  | Insn.Mrs _ -> c.mrs
  | Insn.Msr _ -> c.msr
  | Insn.Svc _ -> c.exception_entry
  | Insn.Eret -> c.eret
  | Insn.Isb -> c.isb

(* Telemetry classification. Retirement class mirrors the cost_of
   grouping; the origin distinguishes CFI-added instructions (PAC
   construction, authentication, modifier arithmetic on the reserved
   ip0/ip1 registers — the PR 2 convention) from the baseline
   program. Both only run when a sink is attached. *)

let class_of_insn insn =
  let open Telemetry.Counters in
  match insn with
  | Insn.Movz _ | Insn.Movk _ | Insn.Mov _ | Insn.Add_imm _ | Insn.Sub_imm _
  | Insn.Add_reg _ | Insn.Sub_reg _ | Insn.Subs_reg _ | Insn.Subs_imm _ | Insn.And_reg _
  | Insn.Orr_reg _ | Insn.Eor_reg _ | Insn.Lsl_imm _ | Insn.Lsr_imm _ | Insn.Bfi _
  | Insn.Ubfx _ | Insn.Adr _ | Insn.Nop ->
      Alu
  | Insn.Ldr _ | Insn.Ldrb _ | Insn.Ldp _ -> Load
  | Insn.Str _ | Insn.Strb _ | Insn.Stp _ -> Store
  | Insn.B _ | Insn.Bl _ | Insn.Br _ | Insn.Blr _ | Insn.Ret | Insn.Cbz _ | Insn.Cbnz _
  | Insn.Bcond _ ->
      Branch
  | Insn.Pac _ | Insn.Pac1716 _ -> Pac
  | Insn.Pacga _ -> Pacga
  | Insn.Aut _ | Insn.Aut1716 _ -> Aut
  | Insn.Blra _ | Insn.Bra _ | Insn.Reta _ -> Auth_branch
  | Insn.Xpac _ -> Xpac
  | Insn.Mrs _ | Insn.Msr _ | Insn.Isb -> Sys
  | Insn.Svc _ | Insn.Eret | Insn.Brk _ | Insn.Hlt _ -> Exception

let origin_of_insn insn =
  let open Telemetry.Profile in
  match insn with
  | Insn.Pac _ | Insn.Pac1716 _ | Insn.Pacga _ -> Cfi_sign
  | Insn.Aut _ | Insn.Aut1716 _ | Insn.Xpac _ | Insn.Blra _ | Insn.Bra _
  | Insn.Reta _ ->
      Cfi_auth
  | _ ->
      let defs, uses = Insn.defs_uses insn in
      let reserved r = r = Insn.ip0 || r = Insn.ip1 in
      if List.exists reserved defs || List.exists reserved uses then Cfi_modifier
      else Baseline

(* PAC helpers used by the instruction semantics. *)

let do_pac t key ptr modifier =
  if pauth_enabled t key then
    let cfg = pointer_cfg t ptr in
    Pac.compute ~cipher:t.cipher ~key:(pac_key t key) ~cfg ~modifier ptr
  else ptr

let do_aut t key ptr modifier =
  if pauth_enabled t key then begin
    let cfg = pointer_cfg t ptr in
    match Pac.auth ~cipher:t.cipher ~key:(pac_key t key) ~cfg ~modifier ptr with
    | Ok stripped -> stripped
    | Error poisoned ->
        (match t.sink with
        | Some s -> Telemetry.Counters.count_auth_failure (Telemetry.Sink.counters s)
        | None -> ());
        poisoned
  end
  else ptr

(* Addressing-mode evaluation: returns the effective VA and applies any
   base-register writeback. *)
let effective_address t m =
  match m with
  | Insn.Off (base, off) -> Int64.add (reg t base) (Int64.of_int off)
  | Insn.Pre (base, off) ->
      let addr = Int64.add (reg t base) (Int64.of_int off) in
      set_reg t base addr;
      addr
  | Insn.Post (base, off) ->
      let addr = reg t base in
      set_reg t base (Int64.add addr (Int64.of_int off));
      addr

let set_flags_sub t a b =
  let result = Int64.sub a b in
  t.flags.n <- Int64.compare result 0L < 0;
  t.flags.z <- result = 0L;
  t.flags.c <- Int64.unsigned_compare a b >= 0;
  let sa = Int64.compare a 0L < 0
  and sb = Int64.compare b 0L < 0
  and sr = Int64.compare result 0L < 0 in
  t.flags.v <- (sa <> sb) && (sr <> sa);
  result

let cond_holds t = function
  | Insn.Eq -> t.flags.z
  | Insn.Ne -> not t.flags.z
  | Insn.Lt -> t.flags.n <> t.flags.v
  | Insn.Ge -> t.flags.n = t.flags.v
  | Insn.Gt -> (not t.flags.z) && t.flags.n = t.flags.v
  | Insn.Le -> t.flags.z || t.flags.n <> t.flags.v

exception Stop of stop

(* Data-side accesses. The walk counter counts architectural walks,
   which the micro-TLB does not change: it bumps once per translation
   request whether the result comes from the cache or the tables,
   keeping telemetry bit-identical across cache configurations.
   [Icache.Translate_fault] propagates to the step loops, which convert
   it to a [Stop] with the current PC (unchanged until retirement
   bookkeeping is done, so the faulting PC is exact). *)
let[@inline] count_walk t =
  match t.sink with
  | Some s -> Telemetry.Counters.count_mmu_walk (Telemetry.Sink.counters s)
  | None -> ()

let load t ~access ~width va =
  count_walk t;
  match width with
  | `X -> Icache.read64_exn t.icache ~el:t.el va
  | `B ->
      Int64.of_int
        (Mem.read8 t.mem (Icache.translate_exn t.icache ~el:t.el ~access va))

let store t ~width va v =
  count_walk t;
  match width with
  | `X -> Icache.write64_exn t.icache ~el:t.el va v
  | `B ->
      Mem.write8 t.mem
        (Icache.translate_exn t.icache ~el:t.el ~access:Mmu.Write va)
        (Int64.to_int (Int64.logand v 0xffL))


(* Execute one decoded instruction. The PC has NOT yet been advanced;
   [next] is the fall-through address. *)
let execute t insn ~next =
  let branch target = t.pc <- target in
  let fallthrough () = t.pc <- next in
  match insn with
  | Insn.Nop | Insn.Isb -> fallthrough ()
  | Insn.Movz (rd, imm, sh) ->
      set_reg t rd (Int64.shift_left (Int64.of_int imm) sh);
      fallthrough ()
  | Insn.Movk (rd, imm, sh) ->
      set_reg t rd
        (Val64.insert ~lo:sh ~width:16 ~field:(Int64.of_int imm) (reg t rd));
      fallthrough ()
  | Insn.Mov (rd, rn) ->
      set_reg t rd (reg t rn);
      fallthrough ()
  | Insn.Add_imm (rd, rn, imm) ->
      set_reg t rd (Int64.add (reg t rn) (Int64.of_int imm));
      fallthrough ()
  | Insn.Sub_imm (rd, rn, imm) ->
      set_reg t rd (Int64.sub (reg t rn) (Int64.of_int imm));
      fallthrough ()
  | Insn.Add_reg (rd, rn, rm) ->
      set_reg t rd (Int64.add (reg t rn) (reg t rm));
      fallthrough ()
  | Insn.Sub_reg (rd, rn, rm) ->
      set_reg t rd (Int64.sub (reg t rn) (reg t rm));
      fallthrough ()
  | Insn.Subs_reg (rd, rn, rm) ->
      set_reg t rd (set_flags_sub t (reg t rn) (reg t rm));
      fallthrough ()
  | Insn.Subs_imm (rd, rn, imm) ->
      set_reg t rd (set_flags_sub t (reg t rn) (Int64.of_int imm));
      fallthrough ()
  | Insn.And_reg (rd, rn, rm) ->
      set_reg t rd (Int64.logand (reg t rn) (reg t rm));
      fallthrough ()
  | Insn.Orr_reg (rd, rn, rm) ->
      set_reg t rd (Int64.logor (reg t rn) (reg t rm));
      fallthrough ()
  | Insn.Eor_reg (rd, rn, rm) ->
      set_reg t rd (Int64.logxor (reg t rn) (reg t rm));
      fallthrough ()
  | Insn.Lsl_imm (rd, rn, sh) ->
      set_reg t rd (Int64.shift_left (reg t rn) sh);
      fallthrough ()
  | Insn.Lsr_imm (rd, rn, sh) ->
      set_reg t rd (Int64.shift_right_logical (reg t rn) sh);
      fallthrough ()
  | Insn.Bfi (rd, rn, lsb, width) ->
      set_reg t rd (Val64.insert ~lo:lsb ~width ~field:(reg t rn) (reg t rd));
      fallthrough ()
  | Insn.Ubfx (rd, rn, lsb, width) ->
      set_reg t rd (Val64.extract ~lo:lsb ~width (reg t rn));
      fallthrough ()
  | Insn.Adr (rd, target) ->
      set_reg t rd target;
      fallthrough ()
  | Insn.Ldr (rd, m) ->
      let va = effective_address t m in
      set_reg t rd (load t ~access:Mmu.Read ~width:`X va);
      fallthrough ()
  | Insn.Ldrb (rd, m) ->
      let va = effective_address t m in
      set_reg t rd (load t ~access:Mmu.Read ~width:`B va);
      fallthrough ()
  | Insn.Str (rs, m) ->
      let va = effective_address t m in
      store t ~width:`X va (reg t rs);
      fallthrough ()
  | Insn.Strb (rs, m) ->
      let va = effective_address t m in
      store t ~width:`B va (reg t rs);
      fallthrough ()
  | Insn.Ldp (r1, r2, m) ->
      let va = effective_address t m in
      set_reg t r1 (load t ~access:Mmu.Read ~width:`X va);
      set_reg t r2 (load t ~access:Mmu.Read ~width:`X (Int64.add va 8L));
      fallthrough ()
  | Insn.Stp (r1, r2, m) ->
      let va = effective_address t m in
      store t ~width:`X va (reg t r1);
      store t ~width:`X (Int64.add va 8L) (reg t r2);
      fallthrough ()
  | Insn.B target -> branch target
  | Insn.Bl target ->
      set_reg t Insn.lr next;
      branch target
  | Insn.Br rn -> branch (reg t rn)
  | Insn.Blr rn ->
      let target = reg t rn in
      set_reg t Insn.lr next;
      branch target
  | Insn.Ret -> branch (reg t Insn.lr)
  | Insn.Cbz (rn, target) -> if is_zero64 (reg t rn) then branch target else fallthrough ()
  | Insn.Cbnz (rn, target) ->
      if not (is_zero64 (reg t rn)) then branch target else fallthrough ()
  | Insn.Bcond (c, target) -> if cond_holds t c then branch target else fallthrough ()
  | Insn.Pac (k, rd, rm) ->
      set_reg t rd (do_pac t k (reg t rd) (reg t rm));
      fallthrough ()
  | Insn.Aut (k, rd, rm) ->
      set_reg t rd (do_aut t k (reg t rd) (reg t rm));
      fallthrough ()
  | Insn.Pac1716 k ->
      set_reg t Insn.ip1 (do_pac t k (reg t Insn.ip1) (reg t Insn.ip0));
      fallthrough ()
  | Insn.Aut1716 k ->
      set_reg t Insn.ip1 (do_aut t k (reg t Insn.ip1) (reg t Insn.ip0));
      fallthrough ()
  | Insn.Xpac rd ->
      let v = reg t rd in
      set_reg t rd (Vaddr.strip_pac (pointer_cfg t v) v);
      fallthrough ()
  | Insn.Pacga (rd, rn, rm) ->
      set_reg t rd
        (Pac.generic ~cipher:t.cipher ~key:(pac_key t Sysreg.GA) ~value:(reg t rn)
           ~modifier:(reg t rm));
      fallthrough ()
  | Insn.Blra (k, rn, rm) ->
      let target = do_aut t k (reg t rn) (reg t rm) in
      set_reg t Insn.lr next;
      branch target
  | Insn.Bra (k, rn, rm) -> branch (do_aut t k (reg t rn) (reg t rm))
  | Insn.Reta k -> branch (do_aut t k (reg t Insn.lr) (reg t Insn.SP))
  | Insn.Mrs (rd, sr) ->
      if t.el = El.El0 && not (Sysreg.el0_readable sr) then
        raise (Stop (Fault { fault = El_denied sr; pc = t.pc }));
      set_reg t rd (sysreg t sr);
      fallthrough ()
  | Insn.Msr (sr, rn) ->
      if t.el = El.El0 then raise (Stop (Fault { fault = El_denied sr; pc = t.pc }));
      if t.el = El.El1 && t.sysreg_locked sr then
        raise (Stop (Fault { fault = Hyp_denied sr; pc = t.pc }));
      set_sysreg t sr (reg t rn);
      fallthrough ()
  | Insn.Svc imm ->
      t.pc <- next;
      (match t.sink with
      | Some s -> Telemetry.Counters.count_exception_entry (Telemetry.Sink.counters s)
      | None -> ());
      raise (Stop (Svc imm))
  | Insn.Eret ->
      let spsr = sysreg t Sysreg.SPSR_EL1 in
      let target_el = if Val64.extract ~lo:2 ~width:2 spsr = 0L then El.El0 else El.El1 in
      t.el <- target_el;
      t.pc <- sysreg t Sysreg.ELR_EL1;
      (match t.sink with
      | Some s -> Telemetry.Counters.count_exception_return (Telemetry.Sink.counters s)
      | None -> ());
      raise (Stop Eret_done)
  | Insn.Brk imm ->
      t.pc <- next;
      raise (Stop (Brk imm))
  | Insn.Hlt imm ->
      t.pc <- next;
      raise (Stop (Hlt imm))

(* Fetch one instruction through the decoded-instruction cache,
   mapping cache-level errors to machine stops. The instruction-side
   walk counter bumps once per fetch regardless of a hit or miss. *)
let fetch t =
  (match t.sink with
  | Some s -> Telemetry.Counters.count_mmu_walk (Telemetry.Sink.counters s)
  | None -> ());
  match Icache.fetch t.icache ~el:t.el t.pc with
  | Ok insn -> Ok insn
  | Error (Icache.Fetch_fault f) -> Error (Fault { fault = Mmu_fault f; pc = t.pc })
  | Error (Icache.Fetch_undefined word) ->
      Error (Fault { fault = Undefined_instruction word; pc = t.pc })

(* Retirement bookkeeping common to both step paths. Allocation-free:
   the trace ring keeps pc and insn in parallel arrays, and the number
   of valid entries is [min insns_retired depth] since every retire
   writes one. *)
let retire t insn cost =
  t.cycles <- t.cycles + cost;
  t.insns_retired <- t.insns_retired + 1;
  Bigarray.Array1.unsafe_set t.trace_pc t.trace_pos t.pc;
  Array.unsafe_set t.trace_insn t.trace_pos insn;
  (* compare-and-wrap instead of [mod]: the ring advance sits on every
     retired instruction and an integer divide is the single most
     expensive ALU op in the loop *)
  let p = t.trace_pos + 1 in
  t.trace_pos <- (if p = Array.length t.trace_insn then 0 else p)

let step t =
  if is_sentinel t.pc then Some Sentinel_return
  else begin
    match fetch t with
    | Error s -> Some s
    | Ok insn -> (
        let action =
          match t.step_hook with
          | None -> Exec
          | Some h -> h t ~pc:t.pc insn
        in
        let cost = cost_of t insn in
        retire t insn cost;
        (match t.sink with
        | None -> ()
        | Some s ->
            Telemetry.Sink.retire s ~pc:t.pc ~cls:(class_of_insn insn)
              ~origin:(origin_of_insn insn) ~cycles:cost);
        let next = Int64.add t.pc 4L in
        match action with
        | Skip ->
            (* the instruction issues (is fetched, charged and traced)
               but its effects are suppressed: the PC just advances *)
            t.pc <- next;
            None
        | Exec -> (
            try
              execute t insn ~next;
              None
            with
            | Stop s -> Some s
            | Icache.Translate_fault f ->
                Some (Fault { fault = Mmu_fault f; pc = t.pc })))
  end

(* --- The traces tier: superblock compilation and dispatch. ---

   Hot straight-line regions are compiled into arrays of pre-bound
   closures ("ops") and driven by a tight loop — fetch, decode, the
   cost match and the dispatch match all disappear from the hot path.
   The contract is the same as the icache's, only stronger: guest
   state, cycles, retirement counts, the trace ring, fault kinds and
   stop reasons must be bit-identical to the interpreter.

   Invariants that make that hold:
   - at every op's start, [t.pc] is that op's instruction address (the
     previous op's epilogue set it, and the dispatcher only enters a
     block when [t.pc] equals its entry), so [retire]'s ring write and
     a faulting access both see the exact PC;
   - every op retires first and executes second, like [step], so a
     faulting instruction is still retired and charged;
   - blocks are cut at branches (compiled as terminators), PAC/AUT
     boundaries and exception-raising instructions, so every compiled
     instruction has a statically known cost and can never change EL;
   - the driver re-checks [Traces.live] between ops: a store that lands
     in the block's own code pages (the Bloom-screened [Mem] hook) kills
     the block mid-flight and the remaining ops are abandoned, exactly
     as the interpreter would re-fetch the patched word. *)

(* Instructions that end a block *before* themselves: dynamic cost
   (PAC family), EL/sysreg traffic, or a raise. They execute via the
   single-step path. *)
let is_cut = function
  | Insn.Pac _ | Insn.Aut _ | Insn.Pac1716 _ | Insn.Aut1716 _ | Insn.Xpac _
  | Insn.Pacga _ | Insn.Blra _ | Insn.Bra _ | Insn.Reta _ | Insn.Mrs _
  | Insn.Msr _ | Insn.Svc _ | Insn.Eret | Insn.Brk _ | Insn.Hlt _ ->
      true
  | _ -> false

(* Branches compile (as a block's last op) and seed chaining. *)
let is_terminator = function
  | Insn.B _ | Insn.Bl _ | Insn.Br _ | Insn.Blr _ | Insn.Ret | Insn.Cbz _
  | Insn.Cbnz _ | Insn.Bcond _ ->
      true
  | _ -> false

(* Compiled blocks are continuation-threaded: each op ends with a tail
   call to the next op's closure, so a full block run is one indirect
   call from the driver and a chain of tail calls — no per-op array
   indexing, bounds check or loop counter. An op that must abandon the
   block (a mispredicted inlined return, or a store that invalidated
   the block under its own feet) simply returns without calling its
   continuation; the driver recovers the retired count from the
   [insns_retired] delta. [block_end] terminates every chain. *)
let block_end () = ()

(* Only compiled stores can flip [bk_live] mid-block (the [Mem] write
   hook: self-modifying code, or data sharing a frame with block code);
   everything else that invalidates — MSR flush matrix, MMU generation,
   slot eviction — runs at block boundaries. So stores re-check
   liveness before tail-calling the rest of the chain, and other ops
   skip the check entirely. [self] is back-patched right after
   [Traces.install]. *)
let[@inline] block_alive self =
  match !self with Some b -> b.Traces.bk_live | None -> true

(* Compile-time operand accessors. A block executes entirely at its
   compile-time EL (the cut set excludes every EL-changing instruction
   and the dispatcher guards [bk_el] at entry), so the SP bank can be
   selected when the closure is built instead of on every execution. *)
let op_get t el = function
  | Insn.R n ->
      let regs = t.regs in
      fun () -> Array.unsafe_get regs n
  | Insn.XZR -> fun () -> 0L
  | Insn.SP -> fun () -> sp_of t el

let op_set t el = function
  | Insn.R n ->
      let regs = t.regs in
      fun v -> Array.unsafe_set regs n v
  | Insn.XZR -> fun _ -> ()
  | Insn.SP -> fun v -> set_sp_of t el v

(* Addressing-mode compiler: the mode dispatch and the offset boxing
   happen once, the writeback order matches [effective_address]
   exactly (writeback before the access, like the interpreter). The
   common base kinds get flat single-closure arms — no inner accessor
   call on the hot path. *)
let op_addr t el m =
  let regs = t.regs in
  match m with
  | Insn.Off (Insn.R b, off) ->
      let o = Int64.of_int off in
      fun () -> Int64.add (Array.unsafe_get regs b) o
  | Insn.Pre (Insn.R b, off) ->
      let o = Int64.of_int off in
      fun () ->
        let a = Int64.add (Array.unsafe_get regs b) o in
        Array.unsafe_set regs b a;
        a
  | Insn.Post (Insn.R b, off) ->
      let o = Int64.of_int off in
      fun () ->
        let a = Array.unsafe_get regs b in
        Array.unsafe_set regs b (Int64.add a o);
        a
  | Insn.Off (Insn.SP, off) ->
      let o = Int64.of_int off in
      fun () -> Int64.add (sp_of t el) o
  | Insn.Pre (Insn.SP, off) ->
      let o = Int64.of_int off in
      fun () ->
        let a = Int64.add (sp_of t el) o in
        set_sp_of t el a;
        a
  | Insn.Post (Insn.SP, off) ->
      let o = Int64.of_int off in
      fun () ->
        let a = sp_of t el in
        set_sp_of t el (Int64.add a o);
        a
  | Insn.Off (base, off) ->
      let g = op_get t el base and o = Int64.of_int off in
      fun () -> Int64.add (g ()) o
  | Insn.Pre (base, off) ->
      let g = op_get t el base
      and s = op_set t el base
      and o = Int64.of_int off in
      fun () ->
        let a = Int64.add (g ()) o in
        s a;
        a
  | Insn.Post (base, off) ->
      let g = op_get t el base
      and s = op_set t el base
      and o = Int64.of_int off in
      fun () ->
        let a = g () in
        s (Int64.add a o);
        a

(* Per-op single-entry data TLB for compiled memory ops: caches the
   frame bytes backing the last page the op touched, so the steady
   state is an int compare plus a direct [Bytes] access — no hash, no
   slot probe, no permission re-check. Sound because frame byte
   buffers are stable for the life of a [Mem], the fill checks the
   op's access kind against the page permissions, and any translation
   or permission change advances the MMU generation, which kills the
   owning block before its next dispatch. Stores still fire
   [Mem.notify_store], so icache/trace invalidation and snapshot dirty
   tracking observe them exactly as a [Mem.write64]. *)
type page_cache = {
  mutable pg_page : int;  (* VA page (63-bit), -1 when empty *)
  mutable pg_bytes : Bytes.t;
  mutable pg_frame : int;
}

let no_bytes = Bytes.create 0
let fresh_page_cache () = { pg_page = -1; pg_bytes = no_bytes; pg_frame = 0 }

let fill_page_cache t el access (c : page_cache) page va =
  match Icache.data_page t.icache ~el ~access va with
  | Some (fb, fi) ->
      c.pg_page <- page;
      c.pg_bytes <- fb;
      c.pg_frame <- fi
  | None -> ()

(* Compile one instruction into an op that tail-calls [k]. The common
   cases are specialized down to unsafe register-array accesses with
   every immediate pre-bound (captured boxed int64 constants cost
   nothing to reuse); everything else falls back to [execute], which
   still skips fetch/decode/cost on re-execution. [cost_of] is constant
   for every compilable class — the dynamic-cost instructions are all
   in [is_cut]. *)
let compile_op t insn ~next ~self k =
  let cost = cost_of t insn in
  let regs = t.regs in
  let el = t.el in
  match insn with
  | Insn.Nop | Insn.Isb ->
      fun () ->
        retire t insn cost;
        t.pc <- next;
        k ()
  | Insn.Movz (Insn.R d, imm, sh) ->
      let v = Int64.shift_left (Int64.of_int imm) sh in
      fun () ->
        retire t insn cost;
        Array.unsafe_set regs d v;
        t.pc <- next;
        k ()
  | Insn.Mov (Insn.R d, Insn.R n) ->
      fun () ->
        retire t insn cost;
        Array.unsafe_set regs d (Array.unsafe_get regs n);
        t.pc <- next;
        k ()
  | Insn.Add_imm (Insn.R d, Insn.R n, imm) ->
      let i = Int64.of_int imm in
      fun () ->
        retire t insn cost;
        Array.unsafe_set regs d (Int64.add (Array.unsafe_get regs n) i);
        t.pc <- next;
        k ()
  | Insn.Sub_imm (Insn.R d, Insn.R n, imm) ->
      let i = Int64.of_int imm in
      fun () ->
        retire t insn cost;
        Array.unsafe_set regs d (Int64.sub (Array.unsafe_get regs n) i);
        t.pc <- next;
        k ()
  | Insn.Add_reg (Insn.R d, Insn.R n, Insn.R m) ->
      fun () ->
        retire t insn cost;
        Array.unsafe_set regs d
          (Int64.add (Array.unsafe_get regs n) (Array.unsafe_get regs m));
        t.pc <- next;
        k ()
  | Insn.Sub_reg (Insn.R d, Insn.R n, Insn.R m) ->
      fun () ->
        retire t insn cost;
        Array.unsafe_set regs d
          (Int64.sub (Array.unsafe_get regs n) (Array.unsafe_get regs m));
        t.pc <- next;
        k ()
  | Insn.And_reg (Insn.R d, Insn.R n, Insn.R m) ->
      fun () ->
        retire t insn cost;
        Array.unsafe_set regs d
          (Int64.logand (Array.unsafe_get regs n) (Array.unsafe_get regs m));
        t.pc <- next;
        k ()
  | Insn.Orr_reg (Insn.R d, Insn.R n, Insn.R m) ->
      fun () ->
        retire t insn cost;
        Array.unsafe_set regs d
          (Int64.logor (Array.unsafe_get regs n) (Array.unsafe_get regs m));
        t.pc <- next;
        k ()
  | Insn.Eor_reg (Insn.R d, Insn.R n, Insn.R m) ->
      fun () ->
        retire t insn cost;
        Array.unsafe_set regs d
          (Int64.logxor (Array.unsafe_get regs n) (Array.unsafe_get regs m));
        t.pc <- next;
        k ()
  | Insn.Subs_reg (Insn.R d, Insn.R n, Insn.R m) ->
      fun () ->
        retire t insn cost;
        Array.unsafe_set regs d
          (set_flags_sub t (Array.unsafe_get regs n) (Array.unsafe_get regs m));
        t.pc <- next;
        k ()
  | Insn.Subs_imm (Insn.R d, Insn.R n, imm) ->
      let i = Int64.of_int imm in
      fun () ->
        retire t insn cost;
        Array.unsafe_set regs d (set_flags_sub t (Array.unsafe_get regs n) i);
        t.pc <- next;
        k ()
  | Insn.Lsl_imm (Insn.R d, Insn.R n, sh) ->
      fun () ->
        retire t insn cost;
        Array.unsafe_set regs d (Int64.shift_left (Array.unsafe_get regs n) sh);
        t.pc <- next;
        k ()
  | Insn.Lsr_imm (Insn.R d, Insn.R n, sh) ->
      fun () ->
        retire t insn cost;
        Array.unsafe_set regs d
          (Int64.shift_right_logical (Array.unsafe_get regs n) sh);
        t.pc <- next;
        k ()
  | Insn.Adr (Insn.R d, target) ->
      fun () ->
        retire t insn cost;
        Array.unsafe_set regs d target;
        t.pc <- next;
        k ()
  | Insn.Movk (Insn.R d, imm, sh) ->
      let field = Int64.of_int imm in
      fun () ->
        retire t insn cost;
        Array.unsafe_set regs d
          (Val64.insert ~lo:sh ~width:16 ~field (Array.unsafe_get regs d));
        t.pc <- next;
        k ()
  | Insn.Ldr (rd, m) ->
      let addr = op_addr t el m and set_d = op_set t el rd in
      let icache = t.icache in
      let c = fresh_page_cache () in
      fun () ->
        retire t insn cost;
        let a = addr () in
        let ai = Int64.to_int a in
        let page = ai lsr 12 and off = ai land 0xfff in
        if page = c.pg_page && off <= 4088 then
          set_d (Bytes.get_int64_le c.pg_bytes off)
        else begin
          set_d (Icache.read64_exn icache ~el a);
          fill_page_cache t el Mmu.Read c page a
        end;
        t.pc <- next;
        k ()
  | Insn.Str (rs, m) ->
      let addr = op_addr t el m and get_s = op_get t el rs in
      let icache = t.icache and mem = t.mem in
      let c = fresh_page_cache () in
      fun () ->
        retire t insn cost;
        let a = addr () in
        let ai = Int64.to_int a in
        let page = ai lsr 12 and off = ai land 0xfff in
        if page = c.pg_page && off <= 4088 then begin
          Bytes.set_int64_le c.pg_bytes off (get_s ());
          Mem.notify_store mem c.pg_frame
        end
        else begin
          Icache.write64_exn icache ~el a (get_s ());
          fill_page_cache t el Mmu.Write c page a
        end;
        t.pc <- next;
        if block_alive self then k ()
  | Insn.Ldrb (rd, m) ->
      let addr = op_addr t el m and set_d = op_set t el rd in
      let c = fresh_page_cache () in
      fun () ->
        retire t insn cost;
        let a = addr () in
        let ai = Int64.to_int a in
        let page = ai lsr 12 and off = ai land 0xfff in
        if page = c.pg_page then
          set_d (Int64.of_int (Char.code (Bytes.get c.pg_bytes off)))
        else begin
          set_d
            (Int64.of_int
               (Mem.read8 t.mem
                  (Icache.translate_exn t.icache ~el ~access:Mmu.Read a)));
          fill_page_cache t el Mmu.Read c page a
        end;
        t.pc <- next;
        k ()
  | Insn.Strb (rs, m) ->
      let addr = op_addr t el m and get_s = op_get t el rs in
      let mem = t.mem in
      let c = fresh_page_cache () in
      fun () ->
        retire t insn cost;
        let a = addr () in
        let ai = Int64.to_int a in
        let page = ai lsr 12 and off = ai land 0xfff in
        if page = c.pg_page then begin
          Bytes.set c.pg_bytes off
            (Char.chr (Int64.to_int (Int64.logand (get_s ()) 0xffL)));
          Mem.notify_store mem c.pg_frame
        end
        else begin
          Mem.write8 mem
            (Icache.translate_exn t.icache ~el ~access:Mmu.Write a)
            (Int64.to_int (Int64.logand (get_s ()) 0xffL));
          fill_page_cache t el Mmu.Write c page a
        end;
        t.pc <- next;
        if block_alive self then k ()
  | Insn.Ldp (r1, r2, m) ->
      let addr = op_addr t el m
      and set_1 = op_set t el r1
      and set_2 = op_set t el r2 in
      let icache = t.icache in
      let c = fresh_page_cache () in
      fun () ->
        retire t insn cost;
        let a = addr () in
        let ai = Int64.to_int a in
        let page = ai lsr 12 and off = ai land 0xfff in
        if page = c.pg_page && off <= 4080 then begin
          let fb = c.pg_bytes in
          set_1 (Bytes.get_int64_le fb off);
          set_2 (Bytes.get_int64_le fb (off + 8))
        end
        else begin
          set_1 (Icache.read64_exn icache ~el a);
          set_2 (Icache.read64_exn icache ~el (Int64.add a 8L));
          fill_page_cache t el Mmu.Read c page a
        end;
        t.pc <- next;
        k ()
  | Insn.Stp (r1, r2, m) ->
      let addr = op_addr t el m
      and get_1 = op_get t el r1
      and get_2 = op_get t el r2 in
      let icache = t.icache and mem = t.mem in
      let c = fresh_page_cache () in
      fun () ->
        retire t insn cost;
        let a = addr () in
        let ai = Int64.to_int a in
        let page = ai lsr 12 and off = ai land 0xfff in
        if page = c.pg_page && off <= 4080 then begin
          let fb = c.pg_bytes in
          Bytes.set_int64_le fb off (get_1 ());
          Bytes.set_int64_le fb (off + 8) (get_2 ());
          Mem.notify_store mem c.pg_frame
        end
        else begin
          Icache.write64_exn icache ~el a (get_1 ());
          Icache.write64_exn icache ~el (Int64.add a 8L) (get_2 ());
          fill_page_cache t el Mmu.Write c page a
        end;
        t.pc <- next;
        if block_alive self then k ()
  | Insn.B target ->
      fun () ->
        retire t insn cost;
        t.pc <- target;
        k ()
  | Insn.Bl target ->
      fun () ->
        retire t insn cost;
        Array.unsafe_set regs 30 next;
        t.pc <- target;
        k ()
  | Insn.Br (Insn.R n) ->
      fun () ->
        retire t insn cost;
        t.pc <- Array.unsafe_get regs n;
        k ()
  | Insn.Blr (Insn.R n) ->
      fun () ->
        retire t insn cost;
        (* read the target before writing lr: Blr x30 must branch to
           the old link register, like [execute] *)
        let target = Array.unsafe_get regs n in
        Array.unsafe_set regs 30 next;
        t.pc <- target;
        k ()
  | Insn.Ret ->
      fun () ->
        retire t insn cost;
        t.pc <- Array.unsafe_get regs 30;
        k ()
  | Insn.Cbz (Insn.R n, target) ->
      fun () ->
        retire t insn cost;
        (if is_zero64 (Array.unsafe_get regs n) then t.pc <- target
         else t.pc <- next);
        k ()
  | Insn.Cbnz (Insn.R n, target) ->
      fun () ->
        retire t insn cost;
        (if is_zero64 (Array.unsafe_get regs n) then t.pc <- next
         else t.pc <- target);
        k ()
  | Insn.Bcond (c, target) ->
      fun () ->
        retire t insn cost;
        (if cond_holds t c then t.pc <- target else t.pc <- next);
        k ()
  | _ ->
      (* XZR/SP operands, bitfield ops: rare enough to share the
         interpreter's executor. Liveness-checked like a store out of
         caution — nothing unspecialized writes memory today, but the
         check keeps that a local property of this match. *)
      fun () ->
        retire t insn cost;
        execute t insn ~next;
        if block_alive self then k ()

let max_block_len = 256

(* Walk forward from the current PC through the icache's (result-
   returning, architecturally pure) fetch, compiling until a cut point,
   a stopping terminator, a fetch failure or the length cap. The walk
   follows unconditional direct control flow instead of stopping at it —
   this is what makes the blocks superblocks:

   - [B]/[Bl] compile as ordinary ops (their epilogue sets the PC to
     the target, preserving the per-op PC invariant) and the walk
     continues at the target, inlining the callee straight into the
     block; [Bl] pushes its static return address on a compile-time
     stack;
   - a plain [Ret] reached with a pending return address compiles as a
     {e guarded} op: it predicts LR still holds the matching [Bl]'s
     return address (always true unless the callee clobbered LR), falls
     through in-block when the guard holds and drops its continuation —
     PC already set from the real LR — when it does not. The walk then
     continues at the predicted return site, so a call-heavy loop body
     becomes one block instead of three;
   Conditional and indirect branches still terminate the block (an
   unrolling variant that followed predicted conditional edges measured
   {e slower}: the unrolled copies defeat the cache residency of a
   short block's closures re-run every iteration). The physical frames
   the code was fetched from (callee pages included) become the block's
   store-invalidation key set. An entry whose first instruction is
   already a cut point is blacklisted so its hotness counter never
   fires again. *)
let compile_block t tr =
  let el = t.el in
  let entry = t.pc in
  (* back-patched with the installed block so store ops can check
     [bk_live] mid-chain *)
  let self = ref None in
  (* The walk accumulates continuation builders ([k -> op], head =
     last instruction) because an op's closure captures the *next*
     op, which does not exist yet on a forward walk; the final fold
     threads [block_end] backwards through the list. *)
  let rec walk pc rstack mks len frames =
    if len >= max_block_len then (mks, len, frames)
    else
      match Icache.fetch t.icache ~el pc with
      | Error _ -> (mks, len, frames)
      | Ok insn ->
          if is_cut insn then (mks, len, frames)
          else begin
            let frames =
              match Mmu.translate t.mmu ~el ~access:Mmu.Exec pc with
              | Ok pa ->
                  let f = Int64.to_int (Int64.shift_right_logical pa 12) in
                  if List.mem f frames then frames else f :: frames
              | Error _ -> frames
            in
            let next = Int64.add pc 4L in
            match insn with
            | Insn.B target ->
                walk target rstack
                  (compile_op t insn ~next ~self :: mks)
                  (len + 1) frames
            | Insn.Bl target ->
                walk target (next :: rstack)
                  (compile_op t insn ~next ~self :: mks)
                  (len + 1) frames
            | Insn.Ret when rstack <> [] ->
                let expected = List.hd rstack in
                let cost = cost_of t insn in
                let regs = t.regs in
                (* mispredicted return: PC is already set from the
                   real LR, so ending the chain here re-dispatches
                   from the right place *)
                let mk k () =
                  retire t insn cost;
                  let dest = Array.unsafe_get regs 30 in
                  t.pc <- dest;
                  if Int64.equal dest expected then k ()
                in
                walk expected (List.tl rstack) (mk :: mks) (len + 1) frames
            | _ ->
                let mks = compile_op t insn ~next ~self :: mks in
                if is_terminator insn then (mks, len + 1, frames)
                else walk next rstack mks (len + 1) frames
          end
  in
  match walk entry [] [] 0 [] with
  | [], _, _ ->
      Traces.blacklist tr ~el entry;
      None
  | mks, len, frames ->
      let code = List.fold_left (fun k mk -> mk k) block_end mks in
      let b = Traces.install tr ~el ~entry ~len ~frames code in
      self := Some b;
      Some b

(* Lookup-or-compile at a control-flow boundary. [sync] first: any
   map/unmap/stage-2 flip or snapshot restore moved the MMU generation
   and must flush before a stale block can be found. *)
let find_block t tr =
  Traces.sync tr;
  match Traces.lookup tr ~el:t.el t.pc with
  | Some _ as found -> found
  | None -> if Traces.bump tr ~el:t.el t.pc then compile_block t tr else None

(* The traces-tier driver. Guard checks at block entry are the
   conjunction the ISSUE names: liveness (store hooks + MSR flush
   matrix), the MMU generation (via [find_block]'s sync), EL and exact
   entry PC. [prev] carries the last completed block so the next lookup
   result can be linked as its chained successor; a valid chain skips
   both the sync and the slot probe, which is sound because every
   in-run invalidation source (stores, executed MSRs) kills blocks in
   place and the liveness check still runs. *)
let run_traces t tr max_insns =
  let tc = Traces.counters tr in
  (* Three mutually tail-recursive states instead of one [prev] option:
     no [Some] allocation per dispatch, and the chain-follow guard and
     stat accounting are direct field accesses. *)
  let rec go_boundary budget boundary =
    if budget <= 0 then Insn_limit
    else if is_sentinel t.pc then Sentinel_return
    else
      match if boundary then find_block t tr else None with
      | Some b when b.Traces.bk_len <= budget -> dispatch budget b
      | _ -> step_once budget
  (* after a fully completed block: try its chained successor first *)
  and go_chained budget pb =
    if budget <= 0 then Insn_limit
    else if is_sentinel t.pc then Sentinel_return
    else
      let blk =
        match pb.Traces.bk_next with
        | Some nb
          when nb.Traces.bk_live
               && nb.Traces.bk_el = t.el
               && Int64.equal nb.Traces.bk_entry t.pc ->
            tc.Traces.c_chain_follows <- tc.Traces.c_chain_follows + 1;
            Some nb
        | _ -> (
            match find_block t tr with
            | Some nb ->
                Traces.link tr pb nb;
                Some nb
            | None -> None)
      in
      match blk with
      | Some b when b.Traces.bk_len <= budget -> dispatch budget b
      | _ -> step_once budget
  and dispatch budget b =
    (* one indirect call runs the whole continuation-threaded chain;
       an op that aborts (mispredicted inlined return, store that
       invalidated the block) just drops its continuation. Every op
       retires exactly one instruction, so the retired count is the
       [insns_retired] delta — no loop counter at all. *)
    let r0 = t.insns_retired in
    b.Traces.bk_code ();
    let ran = t.insns_retired - r0 in
    tc.Traces.c_executed <- tc.Traces.c_executed + 1;
    tc.Traces.c_block_insns <- tc.Traces.c_block_insns + ran;
    (* an aborted block left the PC just past the last retired
       instruction; re-dispatch from there without chaining. A full
       run is fine to chain through even if its last op was a guard:
       [go_chained] re-guards on the entry PC. *)
    if ran = b.Traces.bk_len then go_chained (budget - ran) b
    else go_boundary (budget - ran) true
  and step_once budget =
    (* cold or cut code: one icache-tier step. The next PC is a
       compilation candidate when control transferred or when we
       just crossed a cut instruction (so the region after a PAC/
       AUT boundary still becomes a block). *)
    let insn = Icache.fetch_exn t.icache ~el:t.el t.pc in
    let cost = cost_of t insn in
    retire t insn cost;
    let fall = Int64.add t.pc 4L in
    execute t insn ~next:fall;
    go_boundary (budget - 1) (is_cut insn || not (Int64.equal t.pc fall))
  in
  try go_boundary max_insns true with
  | Stop s -> s
  | Icache.Translate_fault f -> Fault { fault = Mmu_fault f; pc = t.pc }
  | Icache.Fetch_stop (Icache.Fetch_fault f) ->
      Fault { fault = Mmu_fault f; pc = t.pc }
  | Icache.Fetch_stop (Icache.Fetch_undefined word) ->
      Fault { fault = Undefined_instruction word; pc = t.pc }

let run_stepped ~max_insns t fast =
  if fast then begin
    (* one exception frame for the whole run, not one per step *)
    let rec go budget =
      if budget <= 0 then Insn_limit
      else if is_sentinel t.pc then Sentinel_return
      else begin
        let insn = Icache.fetch_exn t.icache ~el:t.el t.pc in
        let cost = cost_of t insn in
        retire t insn cost;
        execute t insn ~next:(Int64.add t.pc 4L);
        go (budget - 1)
      end
    in
    try go max_insns with
    | Stop s -> s
    | Icache.Translate_fault f -> Fault { fault = Mmu_fault f; pc = t.pc }
    | Icache.Fetch_stop (Icache.Fetch_fault f) ->
        Fault { fault = Mmu_fault f; pc = t.pc }
    | Icache.Fetch_stop (Icache.Fetch_undefined word) ->
        Fault { fault = Undefined_instruction word; pc = t.pc }
  end
  else begin
    let rec go budget =
      if budget <= 0 then Insn_limit
      else
        match step t with
        | Some s -> s
        | None -> go (budget - 1)
    in
    go max_insns
  end

let run ?(max_insns = 10_000_000) t =
  let fast = Option.is_none t.step_hook && Option.is_none t.sink in
  t.last_run_tier <-
    (match t.tier with Traces -> if fast then Traces else Icache | tr -> tr);
  match t.traces with
  | Some tr when fast -> run_traces t tr max_insns
  | _ -> run_stepped ~max_insns t fast

let last_run_tier t = t.last_run_tier

let call ?max_insns t addr =
  set_reg t Insn.lr sentinel;
  t.pc <- addr;
  run ?max_insns t

let recent_trace ?(limit = 16) t =
  let n = Array.length t.trace_insn in
  let valid = min t.insns_retired n in
  let rec collect acc idx remaining =
    if remaining = 0 then acc
    else
      let i = (idx + n) mod n in
      collect
        ((Bigarray.Array1.get t.trace_pc i, t.trace_insn.(i)) :: acc)
        (idx - 1) (remaining - 1)
  in
  collect [] (t.trace_pos - 1) (min limit valid)

let fold_sysregs t f acc =
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) t.sysregs [] in
  let keys = List.sort compare keys in
  List.fold_left (fun acc k -> f acc k (Hashtbl.find t.sysregs k)) acc keys

(* Per-core state capture for machine snapshots. Everything mutable is
   copied, including host-side attachment state (step hook, sysreg lock,
   telemetry sink binding): a restore must drop hooks installed after
   the capture — fault injectors armed for one trial must not leak into
   the next. The sysreg table is written back directly rather than
   through [set_sysreg]; {!Machine.restore} performs one icache flush at
   the end instead of one per MMU-control register. *)
type captured = {
  c_regs : int64 array;
  c_sp_el0 : int64;
  c_sp_el1 : int64;
  c_sp_el2 : int64;
  c_pc : int64;
  c_el : El.t;
  c_n : bool;
  c_z : bool;
  c_v : bool;
  c_c : bool;
  c_sysregs : (Sysreg.t, int64) Hashtbl.t;
  c_cycles : int;
  c_insns_retired : int;
  c_sysreg_locked : Sysreg.t -> bool;
  c_trace_pc : int64 array;
  c_trace_insn : Insn.t array;
  c_trace_pos : int;
  c_step_hook : (t -> pc:int64 -> Insn.t -> hook_action) option;
  c_last_run_tier : tier;
}

let capture t =
  {
    c_regs = Array.copy t.regs;
    c_sp_el0 = t.sp_el0;
    c_sp_el1 = t.sp_el1;
    c_sp_el2 = t.sp_el2;
    c_pc = t.pc;
    c_el = t.el;
    c_n = t.flags.n;
    c_z = t.flags.z;
    c_v = t.flags.v;
    c_c = t.flags.c;
    c_sysregs = Hashtbl.copy t.sysregs;
    c_cycles = t.cycles;
    c_insns_retired = t.insns_retired;
    c_sysreg_locked = t.sysreg_locked;
    c_trace_pc =
      Array.init (Bigarray.Array1.dim t.trace_pc) (Bigarray.Array1.get t.trace_pc);
    c_trace_insn = Array.copy t.trace_insn;
    c_trace_pos = t.trace_pos;
    c_step_hook = t.step_hook;
    c_last_run_tier = t.last_run_tier;
  }

let restore t c =
  Array.blit c.c_regs 0 t.regs 0 (Array.length t.regs);
  t.sp_el0 <- c.c_sp_el0;
  t.sp_el1 <- c.c_sp_el1;
  t.sp_el2 <- c.c_sp_el2;
  t.pc <- c.c_pc;
  t.el <- c.c_el;
  t.flags.n <- c.c_n;
  t.flags.z <- c.c_z;
  t.flags.v <- c.c_v;
  t.flags.c <- c.c_c;
  Hashtbl.reset t.sysregs;
  Hashtbl.iter (fun k v -> Hashtbl.replace t.sysregs k v) c.c_sysregs;
  t.cycles <- c.c_cycles;
  t.insns_retired <- c.c_insns_retired;
  t.sysreg_locked <- c.c_sysreg_locked;
  Array.iteri (fun i v -> Bigarray.Array1.set t.trace_pc i v) c.c_trace_pc;
  Array.blit c.c_trace_insn 0 t.trace_insn 0 (Array.length t.trace_insn);
  t.trace_pos <- c.c_trace_pos;
  t.step_hook <- c.c_step_hook;
  t.last_run_tier <- c.c_last_run_tier;
  (* compiled blocks may shadow state the restore just rewrote; the
     Mem-hook and generation channels catch most of it, but a flush
     here makes restore unconditional, mirroring Machine.restore's
     icache flush *)
  match t.traces with Some tr -> Traces.flush tr | None -> ()

let fault_to_string = function
  | Mmu_fault f -> Mmu.fault_to_string f
  | Undefined_instruction w -> Printf.sprintf "undefined instruction 0x%08lx" w
  | Hyp_denied sr -> Printf.sprintf "hypervisor denied write to %s" (Sysreg.name sr)
  | El_denied sr -> Printf.sprintf "EL0 access to %s denied" (Sysreg.name sr)

let dump_state ?trace_limit t =
  (* default to the full configured trace depth: deep oops traces used
     to truncate silently at the old default of 8 *)
  let trace_limit =
    match trace_limit with Some l -> l | None -> Array.length t.trace_insn
  in
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "cpu%d: pc=0x%Lx el=%s cycles=%d insns=%d\n" t.id t.pc
       (match t.el with El.El0 -> "EL0" | El.El1 -> "EL1" | El.El2 -> "EL2")
       t.cycles t.insns_retired);
  for row = 0 to 7 do
    Buffer.add_string b " ";
    for col = 0 to 3 do
      let n = (row * 4) + col in
      if n < 31 then
        Buffer.add_string b (Printf.sprintf " x%-2d=%016Lx" n t.regs.(n))
    done;
    Buffer.add_char b '\n'
  done;
  Buffer.add_string b
    (Printf.sprintf "  sp_el0=%016Lx sp_el1=%016Lx\n" t.sp_el0 t.sp_el1);
  Buffer.add_string b
    (Printf.sprintf "  flags: n=%b z=%b c=%b v=%b\n" t.flags.n t.flags.z
       t.flags.c t.flags.v);
  (match t.sink with
  | None -> ()
  | Some s ->
      let snap = Telemetry.Counters.snapshot (Telemetry.Sink.counters s) in
      Buffer.add_string b
        (Printf.sprintf "  counters: %s\n" (Telemetry.Counters.to_string snap));
      (* span latency over whatever the event ring still holds — one
         summary line next to the counter file, empty kinds elided *)
      let hists =
        Telemetry.Span.histograms
          (Telemetry.Ring.to_list (Telemetry.Sink.ring s))
      in
      let cells =
        List.filter_map
          (fun (kind, h) ->
            if Telemetry.Hist.is_empty h then None
            else
              Some
                (Printf.sprintf "%s n=%Ld p50=%Ld p99=%Ld"
                   (Telemetry.Span.kind_name kind) (Telemetry.Hist.count h)
                   (Telemetry.Hist.p50 h) (Telemetry.Hist.p99 h)))
          hists
      in
      if cells <> [] then
        Buffer.add_string b
          (Printf.sprintf "  latency: %s\n" (String.concat " | " cells)));
  (match recent_trace ~limit:trace_limit t with
  | [] -> Buffer.add_string b "  trace: (empty)\n"
  | entries ->
      Buffer.add_string b "  trace (oldest first):\n";
      List.iter
        (fun (pc, insn) ->
          Buffer.add_string b
            (Printf.sprintf "    %Lx: %s\n" pc (Insn.to_string insn)))
        entries);
  Buffer.contents b

let stop_to_string = function
  | Svc imm -> Printf.sprintf "svc #%d" imm
  | Brk imm -> Printf.sprintf "brk #%d" imm
  | Hlt imm -> Printf.sprintf "hlt #%d" imm
  | Fault { fault; pc } -> Printf.sprintf "fault at pc=0x%Lx: %s" pc (fault_to_string fault)
  | Eret_done -> "eret"
  | Sentinel_return -> "sentinel return"
  | Insn_limit -> "instruction limit reached"
