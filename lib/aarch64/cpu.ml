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

module A = Bigarray.Array1

type words = (int64, Bigarray.int64_elt, Bigarray.c_layout) A.t

let zeroed n =
  let a = A.create Bigarray.Int64 Bigarray.C_layout n in
  A.fill a 0L;
  a

type t = {
  (* every register an operand can name, the PC and the system
     registers, one unboxed slot each (see [pc_slot]): a read is a
     load and a write a store, with no box and no write barrier *)
  st : words;
  (* bit [Sysreg.to_id sr] is set once [sr] has been written: the
     registers [fold_sysregs], and so a fingerprint, lists *)
  mutable written : int;
  mutable el : El.t;
  flags : flags;
  mem : Mem.t;
  mmu : Mmu.t;
  (* decoded-instruction cache over (mem, mmu), possibly shared with
     sibling cores, and the one owner of code-cache coherence. Its lines
     hold this module's ops, which take the core as an argument. Purely
     host-speed: never guest-visible. *)
  icache : op Icache.t;
  (* requested execution tier; fixed at creation *)
  tier : tier;
  (* superblock trace cache, present iff [tier = Traces]. Per-core,
     unlike the shared icache: a block's chain captures this core. Its
     [flush] is one of the icache's stale hooks, so a store to code,
     a moved MMU generation or a flushing MSR on any core kills every
     core's blocks. *)
  traces : (unit -> unit) Traces.t option;
  cipher : Qarma.Block.t;
  (* the MAC source this core's PAC-family ops run: a caching memo on
     the cached tiers, an uncached one on [Interp] (see [create]) *)
  memo : Pac.memo;
  cost : Cost.profile;
  (* native ints, not Int64: these are bumped once per retired
     instruction on the interpreter hot path and a boxed Int64
     read-modify-write there costs an allocation per step. 63 bits of
     cycles outlast any run by orders of magnitude. *)
  mutable cycles : int;
  mutable insns_retired : int;
  has_pauth : bool;
  mutable sysreg_locked : Sysreg.t -> bool;
  (* ring buffer of recently retired (pc, insn), newest last; parallel
     arrays so a retire stores two fields instead of allocating a
     [Some (pc, insn)] tuple per instruction. The PC ring is a Bigarray
     so the store is an unboxed write — no allocation, no GC barrier. *)
  trace_pc : words;
  trace_insn : Insn.t array;
  mutable trace_pos : int;
  id : int;
  (* pre-execute observation point; see set_step_hook *)
  mutable step_hook : (t -> pc:int64 -> Insn.t -> hook_action) option;
  (* the hook acts on no instruction that starts below this cycle
     count, so a traces core runs blocks until then (see
     [horizon_loop]); 0 when the hook acts from the first one *)
  mutable horizon : int;
  (* telemetry endpoint; None (the default) must leave execution
     bit-identical to a build without telemetry *)
  mutable sink : Telemetry.Sink.t option;
  (* which tier the last [run] actually executed under: a hooked or
     telemetry-observed run on a traces-tier core runs no compiled
     blocks, and tests want to assert that *)
  mutable last_run_tier : tier;
}

(* An instruction compiled for one EL and one address, applied to
   whichever core executes it; see [op_of]. *)
and op = t -> unit

type pac_memo_stats = { lookups : int; hits : int }

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

let mem t = t.mem
let mmu t = t.mmu
let icache t = t.icache
let tier t = t.tier
let trace_stats t = Option.map Traces.stats t.traces
let id t = t.id
let cipher t = t.cipher
let cost_profile t = t.cost
let has_pauth t = t.has_pauth
let user_cfg (_ : t) = Vaddr.linux_user
let kernel_cfg (_ : t) = Vaddr.linux_kernel

let pointer_cfg (_ : t) va =
  match Vaddr.select va with
  | Vaddr.Kernel -> Vaddr.linux_kernel
  | Vaddr.User | Vaddr.Invalid -> Vaddr.linux_user

(* The core's state is one flat array of int64 slots:
   - 0-30: x0..x30;
   - 31-33: the stack pointers of EL0, EL1 and EL2;
   - 34: the slot reads of XZR hit (never written, so always 0);
   - 35: the slot writes to XZR land in (never read);
   - 36: the PC;
   - 37-62: the system registers, at their [Sysreg.to_id] offsets.
   Every operand, SP and XZR included, is then a slot fixed once its EL
   is known, and every system register a slot fixed by its name, so an
   op binds its slots when it is compiled and reads and writes them by
   plain index whatever their kind. [R n] is validated at
   decode/assembly time (n < 31), so accesses skip the bounds check. *)
let sp_slot = function El.El0 -> 31 | El.El1 -> 32 | El.El2 -> 33
let zero_slot = 34
let sink_slot = 35
let pc_slot = 36
let sysreg_base = 37
let sysreg_slot sr = sysreg_base + Sysreg.to_id sr
let written_bit sr = 1 lsl Sysreg.to_id sr
let sctlr_slot = sysreg_slot Sysreg.SCTLR_EL1
let elr_slot = sysreg_slot Sysreg.ELR_EL1
let spsr_slot = sysreg_slot Sysreg.SPSR_EL1

let read_slot el = function
  | Insn.R n -> n
  | Insn.SP -> sp_slot el
  | Insn.XZR -> zero_slot

let write_slot el = function
  | Insn.R n -> n
  | Insn.SP -> sp_slot el
  | Insn.XZR -> sink_slot

let sp_of t el = A.unsafe_get t.st (sp_slot el)
let set_sp_of t el v = A.unsafe_set t.st (sp_slot el) v
let reg t r = A.unsafe_get t.st (read_slot t.el r)
let set_reg t r v = A.unsafe_set t.st (write_slot t.el r) v
let[@inline] pc t = A.unsafe_get t.st pc_slot
let[@inline] set_pc t v = A.unsafe_set t.st pc_slot v

(* The counters read live values, never their slot. *)
let is_counter = function
  | Sysreg.CNTVCT_EL0 | Sysreg.PMCCNTR_EL0 | Sysreg.PMICNTR_EL0 | Sysreg.PMEVCNTR0_EL0
  | Sysreg.PMEVCNTR1_EL0 | Sysreg.PMEVCNTR2_EL0 ->
      true
  | _ -> false

let counter t sr =
  match sr with
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
  | _ (* CNTVCT_EL0, PMCCNTR_EL0 *) -> Int64.of_int t.cycles

(* A register never written reads 0: its slot starts at 0 and a
   restore puts the captured 0 back. *)
let sysreg t sr =
  if is_counter sr then counter t sr else A.unsafe_get t.st (sysreg_slot sr)

(* Writes to the MMU-control registers (TTBR0/TTBR1/SCTLR) or the ASID
   register flush the decoded-instruction cache: an address-space or
   translation-regime change may invalidate every cached decode. PAuth
   key registers are deliberately exempt — keys affect execution, never
   decode or translation, and the XOM setter rewrites them on every
   kernel entry. *)
let flushes_on_write sr = Sysreg.is_mmu_control sr || sr = Sysreg.CONTEXTIDR_EL1

(* The icache's stale hooks flush every trace cache built from it. *)
let flush_caches t = Icache.flush t.icache

let set_sysreg t sr v =
  A.unsafe_set t.st (sysreg_slot sr) v;
  t.written <- t.written lor written_bit sr;
  if flushes_on_write sr then flush_caches t

let flags_bits t =
  (if t.flags.n then 8 else 0)
  lor (if t.flags.z then 4 else 0)
  lor (if t.flags.c then 2 else 0)
  lor if t.flags.v then 1 else 0

let set_flags_bits t bits =
  t.flags.n <- bits land 8 <> 0;
  t.flags.z <- bits land 4 <> 0;
  t.flags.c <- bits land 2 <> 0;
  t.flags.v <- bits land 1 <> 0

let el t = t.el
let set_el t e = t.el <- e
let cycles t = Int64.of_int t.cycles
let insns_retired t = Int64.of_int t.insns_retired
let charge t n = t.cycles <- t.cycles + n
let set_sysreg_lock t f = t.sysreg_locked <- f

let set_step_hook t h =
  t.step_hook <- h;
  t.horizon <- 0

(* [Int64.to_int] keeps the low 63 bits, so a horizon past 2^62 cycles
   reads as an earlier one (or a negative one, which no cycle count is
   below): the hook is then called sooner than it asked, never later. *)
let set_step_horizon t c = t.horizon <- Int64.to_int c

let attach_telemetry t s = t.sink <- Some s
let detach_telemetry t = t.sink <- None
let telemetry t = t.sink

let pac_key t k =
  let hi_reg, lo_reg = Sysreg.key_halves k in
  Pac.{
    hi = A.unsafe_get t.st (sysreg_slot hi_reg);
    lo = A.unsafe_get t.st (sysreg_slot lo_reg);
  }

let pauth_enabled t k =
  t.has_pauth
  &&
  match k with
  | Sysreg.GA -> true
  | Sysreg.IA | Sysreg.IB | Sysreg.DA | Sysreg.DB ->
      let enable = Int64.shift_left 1L (Sysreg.sctlr_enable_bit k) in
      not (Int64.equal (Int64.logand (A.unsafe_get t.st sctlr_slot) enable) 0L)

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

(* The most cycles [cost_of] charges an instruction that lets the run
   go on: SVC and ERET end it (BRK and HLT too, at [alu]), so they are
   left out. 5 on cortex-a53, for BLRA, BRA and RETA. *)
let max_cost (c : Cost.profile) =
  max (max (max c.alu (c.load + 1)) (max (c.store + 1) (c.branch + c.pauth)))
    (max (max c.pauth c.mrs) (max c.msr (max c.isb 1)))

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

let pac_memo_stats t = { lookups = Pac.lookups t.memo; hits = Pac.hits t.memo }

(* The slots of key [k]'s two halves. *)
let key_slots k =
  let hi, lo = Sysreg.key_halves k in
  (sysreg_slot hi, sysreg_slot lo)

(* AUT from slot [ptr] into slot [dst], and a failure counted in the
   sink. *)
let aut t ~hi ~lo ~ptr ~modifier ~dst =
  if not (Pac.aut t.memo t.st ~hi ~lo ~ptr ~modifier ~dst) then
    match t.sink with
    | Some s -> Telemetry.Counters.count_auth_failure (Telemetry.Sink.counters s)
    | None -> ()

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

(* The walk counter counts architectural walks, which neither the
   micro-TLB nor a page cache changes: it bumps once per translation
   request whether the result comes from a cache or the tables, keeping
   telemetry bit-identical across tiers. *)
let[@inline] count_walk t =
  match t.sink with
  | Some s -> Telemetry.Counters.count_mmu_walk (Telemetry.Sink.counters s)
  | None -> ()

(* --- Instruction semantics: the one op compiler. ---

   [op_of insn ~el ~next] is the only place that says what an
   instruction does. Its op is applied to whichever core executes it
   and reads and writes only that core. Icache lines hold ops compiled
   at fill, the single-step path runs them, the interp tier and EL2
   compile a fresh one per step, and trace blocks chain line ops.

   Compile time binds the operands, immediates, [next] (the fall-
   through address), branch targets and the SP bank of [el], the EL the
   line was decoded under: icache entries and blocks are keyed by EL,
   and no op runs at another one. Keys, SCTLR, the sysreg lock and the
   telemetry sink are read at run time, so one op serves every core
   sharing the icache. An op sets the PC after everything that can fault
   (BLRA writes LR after it): a faulting access still sees the
   instruction's own address, and [Icache.Translate_fault]
   propagates to the run loop, which turns it into a [Stop]. *)

(* Every addressing mode is one formula over four compile-time
   bindings: the base slot [b], the write-back slot [w], the offset
   [pre] added for the access and the offset [wb] added for the
   write-back. [Off] writes back to XZR's sink slot, which nothing
   reads, so all three modes run the same code, and an op computes its
   address with no closure call and no box. Write-back happens before
   the access. *)
let addr_mode el = function
  | Insn.Off (base, off) -> (read_slot el base, sink_slot, Int64.of_int off, 0L)
  | Insn.Pre (base, off) ->
      let o = Int64.of_int off in
      (read_slot el base, write_slot el base, o, o)
  | Insn.Post (base, off) -> (read_slot el base, write_slot el base, 0L, Int64.of_int off)

let[@inline] op_addr t b w pre wb =
  let v = A.unsafe_get t.st b in
  A.unsafe_set t.st w (Int64.add v wb);
  Int64.add v pre

(* Per-op single-entry data TLB for memory ops: the frame bytes backing
   the last page the op touched, so the steady state is an int compare
   plus a direct [Bytes] access. Sound because frame byte buffers are
   stable for the life of a [Mem], the fill checks the op's access kind
   against the page permissions, and any translation or permission
   change advances the MMU generation, which flushes the icache lines
   and kills the trace blocks holding the op before it runs again. The
   page number is shifted before it is truncated to a native int, so
   addresses differing only in bit 63 never share it. Stores still
   fire [Mem.notify_store], so invalidation and snapshot dirty tracking
   observe them exactly as a [Mem.write64]. *)
type page_cache = {
  mutable pg_page : int;  (* VA page, -1 when empty *)
  mutable pg_bytes : Bytes.t;
  mutable pg_frame : int;
}

let no_bytes = Bytes.create 0
let fresh_page_cache () = { pg_page = -1; pg_bytes = no_bytes; pg_frame = 0 }
let[@inline] page_of va = Int64.to_int (Int64.shift_right_logical va 12)

let fill_page_cache t el access (c : page_cache) page va =
  match Icache.data_page t.icache ~el ~access va with
  | Some (fb, fi) ->
      c.pg_page <- page;
      c.pg_bytes <- fb;
      c.pg_frame <- fi;
      true
  | None -> false

(* [cached t el access c va] — whether [c] holds [va]'s page, refilled
   on a miss. [false] sends the op to the exact path through the
   icache, which raises the fault kind or handles a page straddle. *)
let[@inline] cached t el access c va =
  let page = page_of va in
  page = c.pg_page || fill_page_cache t el access c page va

let el_denied sr t = raise (Stop (Fault { fault = El_denied sr; pc = pc t }))

let stop_after ~next stop =
  let e = Stop stop in
  fun t ->
    set_pc t next;
    raise e

let rec op_of insn ~el ~next : op =
  let src = read_slot el and dst = write_slot el in
  match insn with
  | Insn.Nop | Insn.Isb -> fun t -> set_pc t next
  | Insn.Movz (rd, imm, sh) ->
      let d = dst rd and v = Int64.shift_left (Int64.of_int imm) sh in
      fun t ->
        A.unsafe_set t.st d v;
        set_pc t next
  | Insn.Movk (rd, imm, sh) ->
      (* decoded, so [imm] fits 16 bits and [sh] is 0, 16, 32 or 48 *)
      let d = dst rd and s = src rd in
      let keep = Int64.lognot (Int64.shift_left 0xffffL sh)
      and field = Int64.shift_left (Int64.of_int imm) sh in
      fun t ->
        let r = t.st in
        A.unsafe_set r d (Int64.logor (Int64.logand (A.unsafe_get r s) keep) field);
        set_pc t next
  | Insn.Mov (rd, rn) ->
      let d = dst rd and n = src rn in
      fun t ->
        let r = t.st in
        A.unsafe_set r d (A.unsafe_get r n);
        set_pc t next
  | Insn.Add_imm (rd, rn, imm) ->
      let d = dst rd and n = src rn and i = Int64.of_int imm in
      fun t ->
        let r = t.st in
        A.unsafe_set r d (Int64.add (A.unsafe_get r n) i);
        set_pc t next
  | Insn.Sub_imm (rd, rn, imm) ->
      let d = dst rd and n = src rn and i = Int64.of_int imm in
      fun t ->
        let r = t.st in
        A.unsafe_set r d (Int64.sub (A.unsafe_get r n) i);
        set_pc t next
  | Insn.Add_reg (rd, rn, rm) ->
      let d = dst rd and n = src rn and m = src rm in
      fun t ->
        let r = t.st in
        A.unsafe_set r d (Int64.add (A.unsafe_get r n) (A.unsafe_get r m));
        set_pc t next
  | Insn.Sub_reg (rd, rn, rm) ->
      let d = dst rd and n = src rn and m = src rm in
      fun t ->
        let r = t.st in
        A.unsafe_set r d (Int64.sub (A.unsafe_get r n) (A.unsafe_get r m));
        set_pc t next
  | Insn.And_reg (rd, rn, rm) ->
      let d = dst rd and n = src rn and m = src rm in
      fun t ->
        let r = t.st in
        A.unsafe_set r d (Int64.logand (A.unsafe_get r n) (A.unsafe_get r m));
        set_pc t next
  | Insn.Orr_reg (rd, rn, rm) ->
      let d = dst rd and n = src rn and m = src rm in
      fun t ->
        let r = t.st in
        A.unsafe_set r d (Int64.logor (A.unsafe_get r n) (A.unsafe_get r m));
        set_pc t next
  | Insn.Eor_reg (rd, rn, rm) ->
      let d = dst rd and n = src rn and m = src rm in
      fun t ->
        let r = t.st in
        A.unsafe_set r d (Int64.logxor (A.unsafe_get r n) (A.unsafe_get r m));
        set_pc t next
  | Insn.Subs_reg (rd, rn, rm) ->
      let d = dst rd and n = src rn and m = src rm in
      fun t ->
        let r = t.st in
        A.unsafe_set r d (set_flags_sub t (A.unsafe_get r n) (A.unsafe_get r m));
        set_pc t next
  | Insn.Subs_imm (rd, rn, imm) ->
      let d = dst rd and n = src rn and i = Int64.of_int imm in
      fun t ->
        let r = t.st in
        A.unsafe_set r d (set_flags_sub t (A.unsafe_get r n) i);
        set_pc t next
  | Insn.Lsl_imm (rd, rn, sh) ->
      let d = dst rd and n = src rn in
      fun t ->
        let r = t.st in
        A.unsafe_set r d (Int64.shift_left (A.unsafe_get r n) sh);
        set_pc t next
  | Insn.Lsr_imm (rd, rn, sh) ->
      let d = dst rd and n = src rn in
      fun t ->
        let r = t.st in
        A.unsafe_set r d (Int64.shift_right_logical (A.unsafe_get r n) sh);
        set_pc t next
  | Insn.Bfi (rd, rn, lo, width) -> (
      (* the field's bits, from [Val64]; a field out of range raises the
         error [Val64.insert] raised when it runs *)
      let d = dst rd and s = src rd and n = src rn in
      match Val64.insert ~lo ~width ~field:(-1L) 0L with
      | m ->
          let keep = Int64.lognot m in
          fun t ->
            let r = t.st in
            A.unsafe_set r d
              (Int64.logor
                 (Int64.logand (A.unsafe_get r s) keep)
                 (Int64.logand (Int64.shift_left (A.unsafe_get r n) lo) m));
            set_pc t next
      | exception (Invalid_argument _ as e) -> fun _ -> raise e)
  | Insn.Ubfx (rd, rn, lo, width) -> (
      let d = dst rd and n = src rn in
      match Val64.extract ~lo ~width (-1L) with
      | m ->
          fun t ->
            let r = t.st in
            A.unsafe_set r d (Int64.logand (Int64.shift_right_logical (A.unsafe_get r n) lo) m);
            set_pc t next
      | exception (Invalid_argument _ as e) -> fun _ -> raise e)
  | Insn.Adr (rd, target) ->
      let d = dst rd in
      fun t ->
        A.unsafe_set t.st d target;
        set_pc t next
  | Insn.Ldr (rd, m) ->
      let b, w, pre, wb = addr_mode el m and d = dst rd and c = fresh_page_cache () in
      fun t ->
        let a = op_addr t b w pre wb in
        count_walk t;
        let off = Int64.to_int a land 0xfff in
        A.unsafe_set t.st d
          (if cached t el Mmu.Read c a && off <= 4088 then Bytes.get_int64_le c.pg_bytes off
           else Mem.read64 t.mem (Icache.translate_exn t.icache ~el ~access:Mmu.Read a));
        set_pc t next
  | Insn.Str (rs, m) ->
      let b, w, pre, wb = addr_mode el m and s = src rs and c = fresh_page_cache () in
      fun t ->
        let a = op_addr t b w pre wb in
        count_walk t;
        let off = Int64.to_int a land 0xfff and v = A.unsafe_get t.st s in
        if cached t el Mmu.Write c a && off <= 4088 then begin
          Bytes.set_int64_le c.pg_bytes off v;
          Mem.notify_store t.mem c.pg_frame
        end
        else Mem.write64 t.mem (Icache.translate_exn t.icache ~el ~access:Mmu.Write a) v;
        set_pc t next
  | Insn.Ldrb (rd, m) ->
      let b, w, pre, wb = addr_mode el m and d = dst rd and c = fresh_page_cache () in
      fun t ->
        let a = op_addr t b w pre wb in
        count_walk t;
        A.unsafe_set t.st d
          (Int64.of_int
             (if cached t el Mmu.Read c a then
                Char.code (Bytes.get c.pg_bytes (Int64.to_int a land 0xfff))
              else Mem.read8 t.mem (Icache.translate_exn t.icache ~el ~access:Mmu.Read a)));
        set_pc t next
  | Insn.Strb (rs, m) ->
      let b, w, pre, wb = addr_mode el m and s = src rs and c = fresh_page_cache () in
      fun t ->
        let a = op_addr t b w pre wb in
        count_walk t;
        let byte = Int64.to_int (Int64.logand (A.unsafe_get t.st s) 0xffL) in
        if cached t el Mmu.Write c a then begin
          Bytes.set c.pg_bytes (Int64.to_int a land 0xfff) (Char.chr byte);
          Mem.notify_store t.mem c.pg_frame
        end
        else Mem.write8 t.mem (Icache.translate_exn t.icache ~el ~access:Mmu.Write a) byte;
        set_pc t next
  | Insn.Ldp (r1, r2, m) ->
      let b, w, pre, wb = addr_mode el m and d1 = dst r1 and d2 = dst r2 in
      let c = fresh_page_cache () in
      fun t ->
        let a = op_addr t b w pre wb in
        let off = Int64.to_int a land 0xfff and r = t.st in
        if cached t el Mmu.Read c a && off <= 4080 then begin
          count_walk t;
          count_walk t;
          A.unsafe_set r d1 (Bytes.get_int64_le c.pg_bytes off);
          A.unsafe_set r d2 (Bytes.get_int64_le c.pg_bytes (off + 8))
        end
        else begin
          count_walk t;
          A.unsafe_set r d1
            (Mem.read64 t.mem (Icache.translate_exn t.icache ~el ~access:Mmu.Read a));
          count_walk t;
          let a = Int64.add a 8L in
          A.unsafe_set r d2
            (Mem.read64 t.mem (Icache.translate_exn t.icache ~el ~access:Mmu.Read a))
        end;
        set_pc t next
  | Insn.Stp (r1, r2, m) ->
      let b, w, pre, wb = addr_mode el m and s1 = src r1 and s2 = src r2 in
      let c = fresh_page_cache () in
      fun t ->
        let a = op_addr t b w pre wb in
        let off = Int64.to_int a land 0xfff and r = t.st in
        if cached t el Mmu.Write c a && off <= 4080 then begin
          count_walk t;
          count_walk t;
          Bytes.set_int64_le c.pg_bytes off (A.unsafe_get r s1);
          Bytes.set_int64_le c.pg_bytes (off + 8) (A.unsafe_get r s2);
          Mem.notify_store t.mem c.pg_frame
        end
        else begin
          count_walk t;
          Mem.write64 t.mem (Icache.translate_exn t.icache ~el ~access:Mmu.Write a)
            (A.unsafe_get r s1);
          count_walk t;
          let a = Int64.add a 8L in
          Mem.write64 t.mem (Icache.translate_exn t.icache ~el ~access:Mmu.Write a)
            (A.unsafe_get r s2)
        end;
        set_pc t next
  | Insn.B target -> fun t -> set_pc t target
  | Insn.Bl target ->
      fun t ->
        A.unsafe_set t.st 30 next;
        set_pc t target
  | Insn.Br rn ->
      let n = src rn in
      fun t -> set_pc t (A.unsafe_get t.st n)
  | Insn.Blr rn ->
      let n = src rn in
      fun t ->
        (* read the target before writing lr: Blr x30 branches to the
           old link register *)
        let target = A.unsafe_get t.st n in
        A.unsafe_set t.st 30 next;
        set_pc t target
  | Insn.Ret -> fun t -> set_pc t (A.unsafe_get t.st 30)
  | Insn.Cbz (rn, target) ->
      let n = src rn in
      fun t -> set_pc t (if is_zero64 (A.unsafe_get t.st n) then target else next)
  | Insn.Cbnz (rn, target) ->
      let n = src rn in
      fun t -> set_pc t (if is_zero64 (A.unsafe_get t.st n) then next else target)
  | Insn.Bcond (c, target) -> fun t -> set_pc t (if cond_holds t c then target else next)
  (* The PAC family runs [Pac]'s slot-addressed entry points on the
     core's state array, with the key's slots bound here; a disabled key
     leaves the pointer as it is. *)
  | Insn.Pac (k, rd, rm) ->
      let d = dst rd and s = src rd and m = src rm and hi, lo = key_slots k in
      fun t ->
        let r = t.st in
        if pauth_enabled t k then Pac.pac t.memo r ~hi ~lo ~ptr:s ~modifier:m ~dst:d
        else A.unsafe_set r d (A.unsafe_get r s);
        set_pc t next
  | Insn.Aut (k, rd, rm) ->
      let d = dst rd and s = src rd and m = src rm and hi, lo = key_slots k in
      fun t ->
        let r = t.st in
        if pauth_enabled t k then aut t ~hi ~lo ~ptr:s ~modifier:m ~dst:d
        else A.unsafe_set r d (A.unsafe_get r s);
        set_pc t next
  | Insn.Pac1716 k -> op_of (Insn.Pac (k, Insn.ip1, Insn.ip0)) ~el ~next
  | Insn.Aut1716 k -> op_of (Insn.Aut (k, Insn.ip1, Insn.ip0)) ~el ~next
  | Insn.Xpac rd ->
      let d = dst rd and s = src rd in
      fun t ->
        Pac.xpac t.memo t.st ~src:s ~dst:d;
        set_pc t next
  | Insn.Pacga (rd, rn, rm) ->
      let d = dst rd and n = src rn and m = src rm and hi, lo = key_slots Sysreg.GA in
      fun t ->
        Pac.pacga t.memo t.st ~hi ~lo ~value:n ~modifier:m ~dst:d;
        set_pc t next
  (* The authenticated branches AUT straight into the PC: both operands
     are read first, so BLRA x30 branches to the old LR, and nothing
     after the PC write can fault. *)
  | Insn.Blra (k, rn, rm) ->
      let n = src rn and m = src rm and hi, lo = key_slots k in
      fun t ->
        if pauth_enabled t k then aut t ~hi ~lo ~ptr:n ~modifier:m ~dst:pc_slot
        else set_pc t (A.unsafe_get t.st n);
        A.unsafe_set t.st 30 next
  | Insn.Bra (k, rn, rm) ->
      let n = src rn and m = src rm and hi, lo = key_slots k in
      fun t ->
        if pauth_enabled t k then aut t ~hi ~lo ~ptr:n ~modifier:m ~dst:pc_slot
        else set_pc t (A.unsafe_get t.st n)
  | Insn.Reta k ->
      let sp = sp_slot el and hi, lo = key_slots k in
      fun t ->
        if pauth_enabled t k then aut t ~hi ~lo ~ptr:30 ~modifier:sp ~dst:pc_slot
        else set_pc t (A.unsafe_get t.st 30)
  | Insn.Mrs (_, sr) when el = El.El0 && not (Sysreg.el0_readable sr) -> el_denied sr
  | Insn.Mrs (rd, sr) when is_counter sr ->
      let d = dst rd in
      fun t ->
        A.unsafe_set t.st d (counter t sr);
        set_pc t next
  | Insn.Mrs (rd, sr) ->
      let d = dst rd and s = sysreg_slot sr in
      fun t ->
        let r = t.st in
        A.unsafe_set r d (A.unsafe_get r s);
        set_pc t next
  | Insn.Msr (sr, _) when el = El.El0 -> el_denied sr
  | Insn.Msr (sr, rn) ->
      (* [set_sysreg] with the slot, mask bit and flush bound here *)
      let n = src rn and s = sysreg_slot sr and bit = written_bit sr
      and flushes = flushes_on_write sr in
      fun t ->
        if el = El.El1 && t.sysreg_locked sr then
          raise (Stop (Fault { fault = Hyp_denied sr; pc = pc t }));
        let r = t.st in
        A.unsafe_set r s (A.unsafe_get r n);
        t.written <- t.written lor bit;
        if flushes then flush_caches t;
        set_pc t next
  | Insn.Svc imm ->
      let stop = Stop (Svc imm) in
      fun t ->
        set_pc t next;
        (match t.sink with
        | Some s -> Telemetry.Counters.count_exception_entry (Telemetry.Sink.counters s)
        | None -> ());
        raise stop
  | Insn.Eret ->
      fun t ->
        let r = t.st in
        let spsr = A.unsafe_get r spsr_slot in
        t.el <- (if Val64.extract ~lo:2 ~width:2 spsr = 0L then El.El0 else El.El1);
        set_pc t (A.unsafe_get r elr_slot);
        (match t.sink with
        | Some s -> Telemetry.Counters.count_exception_return (Telemetry.Sink.counters s)
        | None -> ());
        raise (Stop Eret_done)
  | Insn.Brk imm -> stop_after ~next (Brk imm)
  | Insn.Hlt imm -> stop_after ~next (Hlt imm)

let copy_words a =
  let b = A.create Bigarray.Int64 Bigarray.C_layout (A.dim a) in
  A.blit a b;
  b

(* Retired instructions the trace ring keeps for oops dumps. *)
let trace_depth = 32

let create ?(cost = Cost.cortex_a53) ?(has_pauth = true)
    ?(cipher = Qarma.Block.create ()) ?mem ?mmu ?icache ?(tier = Icache)
    ?(id = 0) () =
  let mem = match mem with Some m -> m | None -> Mem.create () in
  let mmu = match mmu with Some m -> m | None -> Mmu.create () in
  let icache =
    match icache with
    | Some i -> i
    | None -> Icache.create ~enabled:(tier <> Interp) ~compile:op_of ~mem ~mmu ()
  in
  let traces =
    match tier with
    | Traces ->
        (* a disabled icache registers no frame, so it could not tell
           the blocks of a store to their code *)
        if not (Icache.enabled icache) then invalid_arg "Cpu.create: disabled icache";
        let tr = Traces.create () in
        Icache.on_stale icache (fun () -> Traces.flush tr);
        Some tr
    | _ -> None
  in
  {
    st = zeroed (sysreg_base + List.length Sysreg.all);
    written = 0;
    el = El.El1;
    flags = { n = false; z = false; v = false; c = false };
    mem;
    mmu;
    icache;
    tier;
    traces;
    cipher;
    memo =
      Pac.memo ~cached:(tier <> Interp) ~user:Vaddr.linux_user ~kernel:Vaddr.linux_kernel
        cipher;
    cost;
    cycles = 0;
    insns_retired = 0;
    has_pauth;
    sysreg_locked = (fun _ -> false);
    trace_pc = zeroed trace_depth;
    trace_insn = Array.make trace_depth Insn.Nop;
    trace_pos = 0;
    id;
    step_hook = None;
    horizon = 0;
    sink = None;
    last_run_tier = tier;
  }

(* Retirement bookkeeping common to the single-step path and trace
   blocks. Allocation-free: the trace ring keeps pc and insn in parallel
   arrays, and the number of valid entries is [min insns_retired depth]
   since every retire writes one. *)
let retire t insn cost =
  t.cycles <- t.cycles + cost;
  t.insns_retired <- t.insns_retired + 1;
  A.unsafe_set t.trace_pc t.trace_pos (pc t);
  Array.unsafe_set t.trace_insn t.trace_pos insn;
  (* compare-and-wrap instead of [mod]: the ring advance sits on every
     retired instruction and an integer divide is the single most
     expensive ALU op in the loop *)
  let p = t.trace_pos + 1 in
  t.trace_pos <- (if p = Array.length t.trace_insn then 0 else p)

let skip_op t = set_pc t (Int64.add (pc t) 4L)

(* The single-step path: the one place an instruction is fetched,
   hooked, costed, retired, shown to a sink and executed outside a
   trace block. The walk is counted before the fetch (a faulting fetch
   still walked) and the hook runs before the charge, so state it
   changes prices the instruction as it executes it. A skipped
   instruction still issues; only the PC advances. The fetched line's
   op may hold a page cache that a hook outdates by moving the MMU
   generation; the next fetch would flush it, but this instruction is
   already fetched, so it runs a freshly compiled op instead. [observed]
   (a hook or sink may be attached) is a constant at every call site,
   so the unobserved inlined copy tests neither. The PC is boxed once
   ([opaque_identity]) and the box shared by the fetch, the hook and the
   sink; left unboxed, each of them would box it again. *)
let[@inline] step_insn t ~observed =
  if observed then count_walk t;
  let pc = Sys.opaque_identity (pc t) in
  let line = Icache.fetch_exn t.icache ~el:t.el pc in
  let insn = line.Icache.insn in
  let op =
    if not observed then line.Icache.op
    else
      match t.step_hook with
      | None -> line.Icache.op
      | Some h -> (
          let gen = Mmu.generation t.mmu in
          match h t ~pc insn with
          | Skip -> skip_op
          | Exec when Mmu.generation t.mmu = gen -> line.Icache.op
          | Exec -> op_of insn ~el:t.el ~next:(Int64.add pc 4L))
  in
  let cost = cost_of t insn in
  retire t insn cost;
  (if observed then
     match t.sink with
     | None -> ()
     | Some s ->
         Telemetry.Sink.retire s ~pc ~cls:(class_of_insn insn)
           ~origin:(origin_of_insn insn) ~cycles:cost);
  op t;
  insn

(* --- The traces tier: superblocks of chained line ops. ---

   Hot straight-line regions become continuation-threaded chains of the
   icache lines' ops, driven by a tight loop: fetch, decode and the
   cost match disappear from the hot path. The contract is the same as
   the icache's, only stronger: guest state, cycles, retirement counts,
   the trace ring, fault kinds and stop reasons must be bit-identical
   to the interpreter.

   Invariants that make that hold:
   - at every op's start, [pc t] is that op's instruction address (the
     previous op set it, and the dispatcher only enters a block when
     [pc t] equals its entry), so [retire]'s ring write and a faulting
     access both see the exact PC;
   - every link retires first and runs its op second, like
     [step_insn], so a faulting instruction is still retired and
     charged, and an MRS of a cycle or instruction counter reads the
     totals the step path would;
   - blocks end at branches (compiled as terminators) and before the
     instructions in [is_cut], so no chained instruction changes EL or
     flushes the caches; a chained instruction's cost is a constant,
     except the PAC family's, which its link reads when it runs;
   - the driver re-checks [bk_live] after stores: a store to a frame
     holding decoded lines runs the icache's stale hooks, which kill
     every block, the running one included, and the remaining links are
     abandoned, exactly as the interpreter would re-fetch the patched
     word. *)

(* Instructions that end a block *before* themselves and execute via
   the single-step path: the exception instructions, which change EL
   or end the run, and an MSR whose write flushes the caches, the
   running block among them. PAC, AUT, MRS and the other MSRs chain:
   their ops read keys, SCTLR and system registers when they run. *)
let is_cut = function
  | Insn.Svc _ | Insn.Eret | Insn.Brk _ | Insn.Hlt _ -> true
  | Insn.Msr (sr, _) -> flushes_on_write sr
  | _ -> false

(* Branches, the authenticated ones included, compile (as a block's
   last op) and seed chaining; on the step path, the PC after one,
   taken or not, is a block boundary. *)
let is_terminator = function
  | Insn.B _ | Insn.Bl _ | Insn.Br _ | Insn.Blr _ | Insn.Ret | Insn.Cbz _
  | Insn.Cbnz _ | Insn.Bcond _ | Insn.Blra _ | Insn.Bra _ | Insn.Reta _ ->
      true
  | _ -> false

(* Blocks are continuation-threaded: each link ends with a tail call to
   the next link's closure, so a full block run is one indirect call
   from the driver and a chain of tail calls — no per-op array
   indexing, bounds check or loop counter. A link that must abandon the
   block (a mispredicted inlined return, or a store that invalidated
   the block under its own feet) simply returns without calling its
   continuation; the driver recovers the retired count from the
   [insns_retired] delta. [block_end] terminates every chain. *)
let block_end () = ()

(* Only stores can flip [bk_live] mid-block (the icache's stale hooks:
   self-modifying code, or data sharing a frame with decoded code);
   everything else that invalidates — the MSR flush matrix, the MMU
   generation, the trace table's size bound — runs at block boundaries.
   So stores re-check liveness before tail-calling the rest of the
   chain, and other links skip the check entirely. [self] is
   back-patched right after [Traces.install]. *)
let[@inline] block_alive self =
  match !self with Some b -> b.Traces.bk_live | None -> true

(* One block link: retire, run the line op, continue. The cost is
   bound when the block is built, except for the PAC family: an SCTLR
   enable bit prices it, and [restore] puts back a captured SCTLR
   without flushing, so its link reads the cost when it runs. *)
let link t insn (op : op) ~self k =
  match insn with
  | Insn.Str _ | Insn.Strb _ | Insn.Stp _ ->
      let cost = cost_of t insn in
      fun () ->
        retire t insn cost;
        op t;
        if block_alive self then k ()
  | Insn.Pac _ | Insn.Aut _ | Insn.Pac1716 _ | Insn.Aut1716 _ | Insn.Blra _
  | Insn.Bra _ | Insn.Reta _ ->
      fun () ->
        retire t insn (cost_of t insn);
        op t;
        k ()
  | _ ->
      let cost = cost_of t insn in
      fun () ->
        retire t insn cost;
        op t;
        k ()

let max_block_len = 256

(* Walk forward from the current PC through the icache's (result-
   returning, architecturally pure) fetch, linking line ops until a cut
   point, a stopping terminator, a fetch failure or the length cap. The
   walk follows unconditional direct control flow instead of stopping
   at it — this is what makes the blocks superblocks:

   - [B]/[Bl] link as ordinary ops (they set the PC to the target,
     preserving the per-op PC invariant) and the walk continues at the
     target, inlining the callee straight into the block; [Bl] pushes
     its static return address on a compile-time stack;
   - a plain [Ret] reached with a pending return address becomes a
     {e guarded} link: it predicts LR still holds the matching [Bl]'s
     return address (always true unless the callee clobbered LR), falls
     through in-block when the guard holds and drops its continuation —
     PC already set from the real LR — when it does not. The walk then
     continues at the predicted return site, so a call-heavy loop body
     becomes one block instead of three;
   Conditional and indirect branches, authenticated ones included,
   still terminate the block (an unrolling variant that followed
   predicted conditional edges measured {e slower}: the unrolled copies
   defeat the cache residency of a short block's closures re-run every
   iteration). Every instruction comes from an icache line, so the
   icache registered every frame the block was built from (callee
   pages included), and a store to any of them flushes the block. An
   entry whose first instruction is already a cut point is blacklisted
   so its hotness counter never fires again; compiling it raises
   [Not_found]. *)
let compile_block t tr =
  let el = t.el in
  let entry = pc t in
  (* back-patched with the installed block so store links can check
     [bk_live] mid-chain *)
  let self = ref None in
  (* The walk accumulates continuation builders ([k -> link], head =
     last instruction) because a link captures the *next* one, which
     does not exist yet on a forward walk; the final fold threads
     [block_end] backwards through the list. *)
  let rec walk pc rstack mks len =
    if len >= max_block_len then (mks, len)
    else
      match Icache.fetch t.icache ~el pc with
      | Error _ -> (mks, len)
      | Ok { Icache.insn; op } ->
          if is_cut insn then (mks, len)
          else begin
            let next = Int64.add pc 4L in
            match insn with
            | Insn.B target -> walk target rstack (link t insn op ~self :: mks) (len + 1)
            | Insn.Bl target ->
                walk target (next :: rstack) (link t insn op ~self :: mks) (len + 1)
            | Insn.Ret when rstack <> [] ->
                let expected = List.hd rstack in
                let cost = cost_of t insn in
                let st = t.st in
                (* mispredicted return: PC is already set from the
                   real LR, so ending the chain here re-dispatches
                   from the right place *)
                let mk k () =
                  retire t insn cost;
                  let dest = A.unsafe_get st 30 in
                  A.unsafe_set st pc_slot dest;
                  if Int64.equal dest expected then k ()
                in
                walk expected (List.tl rstack) (mk :: mks) (len + 1)
            | _ ->
                let mks = link t insn op ~self :: mks in
                if is_terminator insn then (mks, len + 1)
                else walk next rstack mks (len + 1)
          end
  in
  match walk entry [] [] 0 with
  | [], _ ->
      Traces.blacklist tr ~el entry;
      raise Not_found
  | mks, len ->
      let code = List.fold_left (fun k mk -> mk k) block_end mks in
      let b = Traces.install tr ~el ~entry ~len code in
      self := Some b;
      b

(* Lookup-or-compile at a control-flow boundary: the block entered at
   the PC, or [Not_found]. Sync the icache first: any map/unmap/stage-2
   flip, or a snapshot restore that refilled the tables, moved the MMU
   generation, and the icache's flush must kill the blocks before a
   stale one can be found. Every block in the trace table is live, so a
   hit needs no liveness check. *)
let find_block t tr =
  Icache.sync t.icache;
  let pc = pc t in
  match Traces.find tr ~el:t.el pc with
  | b -> b
  | exception Not_found ->
      if Traces.bump tr ~el:t.el pc then compile_block t tr else raise Not_found

(* Without a trace cache: one test of [observed] per step picks an
   inlined copy of [step_insn]. *)
let rec step_loop t ~observed budget =
  if budget <= 0 then Insn_limit
  else if is_sentinel (pc t) then Sentinel_return
  else begin
    if observed then ignore (step_insn t ~observed:true : Insn.t)
    else ignore (step_insn t ~observed:false : Insn.t);
    step_loop t ~observed (budget - 1)
  end

(* With a trace cache: hot code runs as compiled blocks, cold and cut
   code through [step_insn]. Guard checks at block entry are liveness
   (the icache's stale hooks), the MMU generation (via [find_block]'s
   icache sync), EL and exact entry PC. A completed block is
   linked to the next lookup result as its chained successor; a valid
   chain skips both the sync and the table lookup, which is sound because
   every in-run invalidation source (stores, executed MSRs) kills blocks
   in place and the liveness check still runs. When the budget runs out
   the loop hands [limit] whether the PC is a block boundary, so a
   caller that ran it under a shorter budget can go on from there. *)
let block_loop t tr ~limit ~boundary max_insns =
  let tc = Traces.counters tr in
  (* Mutually tail-recursive states instead of one [prev] option, and
     blocks dispatched as they are found: no [Some] allocation per
     dispatch, and the chain-follow guard and stat accounting are
     direct field accesses. *)
  let rec go_boundary budget boundary =
    if budget <= 0 then limit boundary
    else if is_sentinel (pc t) then Sentinel_return
    else if not boundary then step_once budget
    else
      match find_block t tr with
      | b -> enter budget b
      | exception Not_found -> step_once budget
  (* after a fully completed block: try its chained successor first *)
  and go_chained budget pb =
    if budget <= 0 then limit true
    else if is_sentinel (pc t) then Sentinel_return
    else
      match pb.Traces.bk_next with
      | Some nb
        when nb.Traces.bk_live
             && nb.Traces.bk_el = t.el
             && Int64.equal nb.Traces.bk_entry (pc t) ->
          tc.Traces.chain_follows <- tc.Traces.chain_follows + 1;
          enter budget nb
      | _ -> (
          match find_block t tr with
          | nb ->
              Traces.link tr pb nb;
              enter budget nb
          | exception Not_found -> step_once budget)
  and enter budget b = if b.Traces.bk_len <= budget then dispatch budget b else step_once budget
  and dispatch budget b =
    (* one indirect call runs the whole continuation-threaded chain;
       an op that aborts (mispredicted inlined return, store that
       invalidated the block) just drops its continuation. Every op
       retires exactly one instruction, so the retired count is the
       [insns_retired] delta — no loop counter at all. *)
    let r0 = t.insns_retired in
    b.Traces.bk_code ();
    let ran = t.insns_retired - r0 in
    tc.Traces.executed <- tc.Traces.executed + 1;
    tc.Traces.block_insns <- tc.Traces.block_insns + ran;
    (* an aborted block left the PC just past the last retired
       instruction; re-dispatch from there without chaining. A full
       run is fine to chain through even if its last op was a guard:
       [go_chained] re-guards on the entry PC. *)
    if ran = b.Traces.bk_len then go_chained (budget - ran) b
    else go_boundary (budget - ran) true
  and step_once budget =
    (* cold or cut code: one [step_insn]. The next PC is a
       compilation candidate after every instruction that ends a
       block, a branch whether taken or not and a cut (so the region
       after a flushing MSR or a not-taken branch becomes a block at
       once). The flag only decides where blocks are looked up, never
       what executes. *)
    let insn = step_insn t ~observed:false in
    go_boundary (budget - 1) (is_cut insn || is_terminator insn)
  in
  go_boundary max_insns boundary

let insn_limit (_ : bool) = Insn_limit

(* A hooked [Traces] core with no sink. Its hook acts on no instruction
   that starts below [t.horizon] cycles, and no instruction that lets
   the run go on charges more than [max_cost], so a block loop under
   a budget of ceil((horizon - cycles) / max_cost) instructions starts
   every one of them below the horizon. From the horizon on the core
   single-steps with the hook; it goes back to blocks once the hook is
   gone or its horizon moves ahead. A run that reaches the block loop
   reports [Traces]. *)
let horizon_loop t tr max_insns =
  let c_max = max_cost t.cost in
  let rec go budget boundary =
    if budget <= 0 then Insn_limit
    else
      match t.step_hook with
      | None ->
          t.last_run_tier <- Traces;
          block_loop t tr ~limit:insn_limit ~boundary budget
      | Some _ when t.cycles < t.horizon ->
          t.last_run_tier <- Traces;
          let n = min budget (((t.horizon - t.cycles - 1) / c_max) + 1) in
          block_loop t tr ~limit:(go (budget - n)) ~boundary n
      | Some _ ->
          if is_sentinel (pc t) then Sentinel_return
          else
            let insn = step_insn t ~observed:true in
            go (budget - 1) (is_cut insn || is_terminator insn)
  in
  go max_insns true

(* The run loop, and the only one: every tier, hooked, observed or
   neither, runs here under one exception frame. Compiled blocks call
   no hook and report to no sink, so a [Traces] core runs them only
   with no sink, and with a hook only below its horizon. *)
let run ?(max_insns = 10_000_000) t =
  let observed = Option.is_some t.step_hook || Option.is_some t.sink in
  t.last_run_tier <- (if observed && t.tier = Traces then Icache else t.tier);
  try
    match t.traces with
    | Some tr when not observed ->
        block_loop t tr ~limit:insn_limit ~boundary:true max_insns
    | Some tr when Option.is_none t.sink -> horizon_loop t tr max_insns
    | _ -> step_loop t ~observed max_insns
  with
  | Stop s -> s
  | Icache.Translate_fault f -> Fault { fault = Mmu_fault f; pc = pc t }
  | Icache.Fetch_stop (Icache.Fetch_fault f) ->
      Fault { fault = Mmu_fault f; pc = pc t }
  | Icache.Fetch_stop (Icache.Fetch_undefined word) ->
      Fault { fault = Undefined_instruction word; pc = pc t }

let last_run_tier t = t.last_run_tier

let call ?max_insns t addr =
  set_reg t Insn.lr sentinel;
  set_pc t addr;
  run ?max_insns t

let recent_trace ?(limit = 16) t =
  let n = Array.length t.trace_insn in
  let valid = min t.insns_retired n in
  let rec collect acc idx remaining =
    if remaining = 0 then acc
    else
      let i = (idx + n) mod n in
      collect
        ((A.get t.trace_pc i, t.trace_insn.(i)) :: acc)
        (idx - 1) (remaining - 1)
  in
  collect [] (t.trace_pos - 1) (min limit valid)

(* [Sysreg.all] is in declaration order, the order a sort of the
   written registers gives. *)
let fold_sysregs t f acc =
  List.fold_left
    (fun acc sr ->
      if t.written land written_bit sr = 0 then acc
      else f acc sr (A.unsafe_get t.st (sysreg_slot sr)))
    acc Sysreg.all

(* Per-core state capture for machine snapshots. Everything mutable is
   copied, including host-side attachment state (step hook, sysreg lock,
   telemetry sink binding): a restore must drop hooks installed after
   the capture — fault injectors armed for one trial must not leak into
   the next. Registers, PC and system registers come back as one blit
   of the state array plus the written mask, so a register first
   written after the capture reads 0 and leaves [fold_sysregs] again.
   The blit bypasses [set_sysreg], so restoring the MMU-control
   registers flushes nothing: ops read sysregs only at run time, a
   block binds no cost that depends on one (the PAC family's links,
   whose cost an SCTLR enable bit sets, read it when they run), and
   {!Machine.restore} relies on the [Mem] and generation channels for
   the rest. *)
type captured = {
  c_st : words;
  c_written : int;
  c_el : El.t;
  c_n : bool;
  c_z : bool;
  c_v : bool;
  c_c : bool;
  c_cycles : int;
  c_insns_retired : int;
  c_sysreg_locked : Sysreg.t -> bool;
  c_trace_pc : words;
  c_trace_insn : Insn.t array;
  c_trace_pos : int;
  c_step_hook : (t -> pc:int64 -> Insn.t -> hook_action) option;
  c_horizon : int;
  c_last_run_tier : tier;
}

let capture t =
  {
    c_st = copy_words t.st;
    c_written = t.written;
    c_el = t.el;
    c_n = t.flags.n;
    c_z = t.flags.z;
    c_v = t.flags.v;
    c_c = t.flags.c;
    c_cycles = t.cycles;
    c_insns_retired = t.insns_retired;
    c_sysreg_locked = t.sysreg_locked;
    c_trace_pc = copy_words t.trace_pc;
    c_trace_insn = Array.copy t.trace_insn;
    c_trace_pos = t.trace_pos;
    c_step_hook = t.step_hook;
    c_horizon = t.horizon;
    c_last_run_tier = t.last_run_tier;
  }

let restore t c =
  A.blit c.c_st t.st;
  t.written <- c.c_written;
  t.el <- c.c_el;
  t.flags.n <- c.c_n;
  t.flags.z <- c.c_z;
  t.flags.v <- c.c_v;
  t.flags.c <- c.c_c;
  t.cycles <- c.c_cycles;
  t.insns_retired <- c.c_insns_retired;
  t.sysreg_locked <- c.c_sysreg_locked;
  A.blit c.c_trace_pc t.trace_pc;
  Array.blit c.c_trace_insn 0 t.trace_insn 0 (Array.length t.trace_insn);
  t.trace_pos <- c.c_trace_pos;
  t.step_hook <- c.c_step_hook;
  t.horizon <- c.c_horizon;
  t.last_run_tier <- c.c_last_run_tier

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
    (Printf.sprintf "cpu%d: pc=0x%Lx el=%s cycles=%d insns=%d\n" t.id (pc t)
       (El.name t.el) t.cycles t.insns_retired);
  for row = 0 to 7 do
    Buffer.add_string b " ";
    for col = 0 to 3 do
      let n = (row * 4) + col in
      if n < 31 then
        Buffer.add_string b (Printf.sprintf " x%-2d=%016Lx" n (A.get t.st n))
    done;
    Buffer.add_char b '\n'
  done;
  Buffer.add_string b
    (Printf.sprintf "  sp_el0=%016Lx sp_el1=%016Lx\n" (sp_of t El.El0) (sp_of t El.El1));
  Buffer.add_string b
    (Printf.sprintf "  flags: n=%b z=%b c=%b v=%b\n" t.flags.n t.flags.z
       t.flags.c t.flags.v);
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
