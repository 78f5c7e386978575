(* Syscall-sequence fuzzing.

   Random sequences of benign syscalls drive two strong properties:

   - transparency: the fully protected kernel returns exactly the same
     values as the unprotected kernel for every benign sequence (the
     protection must never change semantics, R3/R5);
   - determinism: the same seed yields the same cycle count;
   - resilience: no benign sequence can panic the kernel, and the
     system survives garbage arguments with error returns or process
     kills, never host exceptions. *)

module C = Camouflage
module K = Kernel

type op =
  | Getpid
  | Getuid
  | Open
  | Close of int
  | Read of int * int
  | Write of int * int
  | Stat
  | Fstat of int
  | Notifier_register of int * int
  | Notifier_call of int
  | Pipe_write of int
  | Pipe_read of int
  | Socketpair
  | Poll of int
  | Timer_set of int * int
  | Run_timers
  | Run_static_work

let gen_op =
  QCheck2.Gen.(
    let fd = int_range 0 17 in
    oneof
      [
        return Getpid;
        return Getuid;
        return Open;
        map (fun v -> Close v) fd;
        map2 (fun a b -> Read (a, b)) fd (int_range 0 256);
        map2 (fun a b -> Write (a, b)) fd (int_range 0 256);
        return Stat;
        map (fun v -> Fstat v) fd;
        map2 (fun a b -> Notifier_register (a, b)) (int_range 0 9) (int_range 0 5);
        map (fun v -> Notifier_call v) (int_range 0 9);
        map (fun v -> Pipe_write v) (int_range 0 200);
        map (fun v -> Pipe_read v) (int_range 0 200);
        return Socketpair;
        map (fun v -> Poll v) (int_range 0 4);
        map2 (fun a b -> Timer_set (a, b)) (int_range 0 9) (int_range 0 3);
        return Run_timers;
        return Run_static_work;
      ])

let gen_sequence = QCheck2.Gen.(list_size (int_range 1 40) gen_op)

(* Execute one op; the observable is (tag, return value or outcome). *)
let execute sys op =
  let buf = K.Layout.user_data_base in
  let sc nr args =
    match K.System.syscall sys ~nr ~args with
    | K.System.Ok v -> ("ok", v)
    | K.System.Killed m -> ("killed:" ^ m, 0L)
    | K.System.Panicked m -> ("panicked:" ^ m, 0L)
  in
  match op with
  | Getpid -> sc K.Kbuild.sys_getpid []
  | Getuid -> sc K.Kbuild.sys_getuid []
  | Open -> sc K.Kbuild.sys_open [ 1L ]
  | Close fd -> sc K.Kbuild.sys_close [ Int64.of_int fd ]
  | Read (fd, len) -> sc K.Kbuild.sys_read [ Int64.of_int fd; buf; Int64.of_int len ]
  | Write (fd, len) -> sc K.Kbuild.sys_write [ Int64.of_int fd; buf; Int64.of_int len ]
  | Stat -> sc K.Kbuild.sys_stat [ 3L; buf ]
  | Fstat fd -> sc K.Kbuild.sys_fstat [ Int64.of_int fd; buf ]
  | Notifier_register (slot, id) ->
      sc K.Kbuild.sys_notifier_register [ Int64.of_int slot; Int64.of_int id ]
  | Notifier_call slot -> sc K.Kbuild.sys_notifier_call [ Int64.of_int slot ]
  | Pipe_write len -> sc K.Kbuild.sys_pipe_write [ buf; Int64.of_int len ]
  | Pipe_read len -> sc K.Kbuild.sys_pipe_read [ buf; Int64.of_int len ]
  | Socketpair -> sc K.Kbuild.sys_socketpair []
  | Poll n ->
      (* descriptor array: fds 3..3+n-1 *)
      List.iteri
        (fun idx fd ->
          K.Kmem.write64 (K.System.cpu sys)
            (Int64.add (Int64.add buf 2048L) (Int64.of_int (8 * idx)))
            (Int64.of_int fd))
        (List.init n (fun i -> 3 + i));
      sc K.Kbuild.sys_poll [ Int64.add buf 2048L; Int64.of_int n ]
  | Timer_set (slot, id) ->
      sc K.Kbuild.sys_timer_set [ Int64.of_int slot; 0L; Int64.of_int id ]
  | Run_timers -> (
      match K.System.run_timers sys with
      | K.System.Ok v -> ("ok", v)
      | K.System.Killed m -> ("killed:" ^ m, 0L)
      | K.System.Panicked m -> ("panicked:" ^ m, 0L))
  | Run_static_work -> (
      match K.System.run_work sys ~work_va:(K.System.kernel_symbol sys "static_work") with
      | K.System.Ok v -> ("ok", v)
      | K.System.Killed m -> ("killed:" ^ m, 0L)
      | K.System.Panicked m -> ("panicked:" ^ m, 0L))

let run_sequence config seq =
  let sys = K.System.boot ~config ~seed:99L () in
  K.Kmem.map_user_region (K.System.cpu sys) ~base:K.Layout.user_data_base ~bytes:0x4000
    Aarch64.Mmu.rw;
  let observations = List.map (execute sys) seq in
  (observations, K.System.panicked sys, Aarch64.Cpu.cycles (K.System.cpu sys))

let prop_transparency =
  QCheck2.Test.make ~name:"full protection is semantically transparent" ~count:40
    gen_sequence (fun seq ->
      let obs_full, panicked_full, _ = run_sequence C.Config.full seq in
      let obs_none, panicked_none, _ = run_sequence C.Config.none seq in
      obs_full = obs_none && (not panicked_full) && not panicked_none)

let prop_determinism =
  QCheck2.Test.make ~name:"same sequence, same cycle count" ~count:20 gen_sequence
    (fun seq ->
      let _, _, c1 = run_sequence C.Config.full seq in
      let _, _, c2 = run_sequence C.Config.full seq in
      c1 = c2)

let prop_no_benign_panic =
  QCheck2.Test.make ~name:"benign sequences never panic any build" ~count:30 gen_sequence
    (fun seq ->
      List.for_all
        (fun config ->
          let _, panicked, _ = run_sequence config seq in
          not panicked)
        [ C.Config.full; C.Config.backward_only; C.Config.compat; C.Config.none ])

(* ---------- three-tier differential conformance fuzzer ----------

   Random bare-metal programs — arithmetic, bounded loads/stores,
   forward conditional skips, PAC/AUT round trips, stack push/pop pairs
   and (optionally) a self-patching store — wrapped in a loop hot
   enough to cross the trace compiler's threshold, executed under all
   three tiers. A self-patching program either re-patches its victim
   pair on every trip, after the victim has run, or patches it once,
   just after the first trip ran the victim from the loop head. The
   observable is the stop reason plus the whole-machine
   state fingerprint ({!Snapshot.Fingerprint.of_machine}: registers,
   flags, cycle and retirement totals, system registers, every non-zero
   memory frame, both translation stages), so any divergence the trace
   compiler could introduce — wrong retirement count, stale code after
   a self-patch, a mis-costed instruction — fails the property.

   System-register and PAuth items cover what trace blocks chain and
   what still ends one: MSR/MRS round trips to a key half, TPIDR_EL1,
   CONTEXTIDR_EL1, the TTBRs and the exception registers; MRS of the
   cycle, instruction and virtual counters;
   an SCTLR enable-bit flip (MRS, EOR, MSR); XPAC of a pointer signed
   under an instruction or a data key (the model's one XPAC form is
   XPACI and XPACD); the PAC/AUT 1716 pair; and BRAA and BLRAA to a
   label signed inside the program.

   Register discipline keeps random programs well-defined: R0-R5 are
   arithmetic scratch, R6 accumulates the victim's immediate (7
   unpatched, 9 patched), R8/R9 carry the self-patch word and victim
   address, R10 points at the data region, R11 is the loop counter,
   R12/R13 are PAC scratch, R14 saves LR across a BLRAA and R16/R17 are
   the 1716 pair's modifier and pointer. *)

open Aarch64

type fitem =
  | Arith of Insn.t
  | Store_load of int * int * int  (* rs, rd, 8-byte slot in the data page *)
  | Byte_store_load of int * int * int  (* rs, rd, byte offset in the data page *)
  | Push_pop of int * int * int * int
  | Skip_z of int * Insn.t list  (* cbz R(n) over the protected run *)
  | Skip_nz of int * Insn.t list
  | Skip_cond of Insn.cond * Insn.t list
  | Pac_pair of Sysreg.pauth_key  (* sign + authenticate, result folded in *)
  | Pacga_mix
  | Sysreg_roundtrip of Sysreg.t * int * int  (* msr sr, R(a); mrs R(b), sr *)
  | Counter_read of Sysreg.t  (* an MRS of a live counter, folded into R2 *)
  | Sctlr_flip of Sysreg.pauth_key  (* toggle the key's SCTLR enable bit *)
  | Xpac_strip of Sysreg.pauth_key  (* sign under the key, strip, fold in *)
  | Pac1716_pair of Sysreg.pauth_key
  | Auth_branch of bool  (* BRAA over a skipped add, or (true) BLRAA to a ret *)
  | Bad_auth_branch
      (* BRAA under the wrong modifier: the branch faults (never drawn
         by [gen_fitem]; [prop_failed_auth_branch] ends a body with it) *)
  | Patch
      (* store R8 over the victim pair (selfmod programs only); a
         [victim_first] program then points R9 at the data region, so
         later trips store there *)

type fprog = {
  seeds : int list;  (* initial R0..R5 *)
  iters : int;  (* loop trips: past the hot threshold of 16 *)
  body : fitem list;
  selfmod : bool;
  victim_first : bool;  (* selfmod: victim at the loop head, patched once *)
}

(* Sources may also be XZR or SP (read, never written) and
   destinations XZR, so ops address the SP and zero-register slots hot
   inside blocks too, not only x0..x30. *)
let gen_arith =
  QCheck2.Gen.(
    let scratch = map (fun n -> Insn.R n) (int_range 0 5) in
    let reg = frequency [ (8, scratch); (1, return Insn.XZR); (1, return Insn.SP) ] in
    let dst = frequency [ (9, scratch); (1, return Insn.XZR) ] in
    let imm12 = int_range 0 4095 in
    let bitfield =
      map2 (fun lsb w -> (lsb, max 1 (min w (64 - lsb)))) (int_range 0 63) (int_range 1 64)
    in
    oneof
      [
        map2 (fun r v -> Insn.Movz (r, v, 0)) dst (int_range 0 0xffff);
        map3 (fun r v s -> Insn.Movk (r, v, 16 * s)) dst (int_range 0 0xffff) (int_range 0 3);
        map3 (fun d n v -> Insn.Add_imm (d, n, v)) dst reg imm12;
        map3 (fun d n v -> Insn.Sub_imm (d, n, v)) dst reg imm12;
        map3 (fun d n m -> Insn.Add_reg (d, n, m)) dst reg reg;
        map3 (fun d n m -> Insn.Sub_reg (d, n, m)) dst reg reg;
        map3 (fun d n m -> Insn.And_reg (d, n, m)) dst reg reg;
        map3 (fun d n m -> Insn.Orr_reg (d, n, m)) dst reg reg;
        map3 (fun d n m -> Insn.Eor_reg (d, n, m)) dst reg reg;
        map3 (fun d n m -> Insn.Subs_reg (d, n, m)) dst reg reg;
        map3 (fun d n v -> Insn.Subs_imm (d, n, v)) dst reg imm12;
        map3 (fun d n s -> Insn.Lsl_imm (d, n, s)) dst reg (int_range 0 15);
        map3 (fun d n s -> Insn.Lsr_imm (d, n, s)) dst reg (int_range 0 15);
        map3 (fun d n (lsb, w) -> Insn.Bfi (d, n, lsb, w)) dst reg bitfield;
        map3 (fun d n (lsb, w) -> Insn.Ubfx (d, n, lsb, w)) dst reg bitfield;
        map2 (fun d n -> Insn.Mov (d, n)) dst reg;
        return Insn.Nop;
      ])

(* The system registers a round trip draws besides the key halves.
   [Mmu] never reads a TTBR, so writing one remaps nothing; like a
   CONTEXTIDR_EL1 write it only flushes the icache and the trace
   cache, and is one of the MSRs that still end a block. *)
let plain_sysregs =
  Sysreg.
    [
      TPIDR_EL1; CONTEXTIDR_EL1; TTBR0_EL1; TTBR1_EL1; VBAR_EL1; ELR_EL1; SPSR_EL1;
      ESR_EL1; FAR_EL1;
    ]

(* The counters an MRS reads live. The event counters read the
   attached sink's counts, and 0 with none attached. *)
let event_counters = Sysreg.[ PMEVCNTR0_EL0; PMEVCNTR1_EL0; PMEVCNTR2_EL0 ]
let counter_regs = Sysreg.[ PMCCNTR_EL0; PMICNTR_EL0; CNTVCT_EL0 ] @ event_counters

let gen_fitem =
  QCheck2.Gen.(
    let r5 = int_range 0 5 in
    let protected_run = list_size (int_range 1 3) gen_arith in
    frequency
      [
        (5, map (fun i -> Arith i) gen_arith);
        (2, map3 (fun s d k -> Store_load (s, d, k)) r5 r5 (int_range 0 7));
        (1, map3 (fun s d b -> Byte_store_load (s, d, b)) r5 r5 (int_range 0 2047));
        ( 1,
          map3 (fun a b c -> (a, b, c)) r5 r5 r5 >>= fun (a, b, c) ->
          map (fun d -> Push_pop (a, b, c, d)) r5 );
        (1, map2 (fun r is -> Skip_z (r, is)) r5 protected_run);
        (1, map2 (fun r is -> Skip_nz (r, is)) r5 protected_run);
        ( 1,
          map2
            (fun c is -> Skip_cond (c, is))
            (oneofl Insn.[ Eq; Ne; Lt; Ge; Gt; Le ])
            protected_run );
        (1, map (fun k -> Pac_pair k) (oneofl Sysreg.[ IA; IB; DA; DB ]));
        (1, return Pacga_mix);
        ( 1,
          map3
            (fun sr a b -> Sysreg_roundtrip (sr, a, b))
            (oneofl (List.filter Sysreg.is_pauth_key Sysreg.all @ plain_sysregs))
            r5 r5 );
        ( 1,
          map
            (fun sr -> Counter_read sr)
            (oneofl counter_regs) );
        (1, map (fun k -> Sctlr_flip k) (oneofl Sysreg.[ IA; IB; DA; DB ]));
        (1, map (fun k -> Xpac_strip k) (oneofl Sysreg.[ IA; IB; DA; DB ]));
        (1, map (fun k -> Pac1716_pair k) (oneofl Sysreg.[ IA; IB ]));
        (1, map (fun link -> Auth_branch link) bool);
      ])

let gen_fprog =
  QCheck2.Gen.(
    list_size (return 6) (int_range 0 0xffff) >>= fun seeds ->
    int_range 20 60 >>= fun iters ->
    list_size (int_range 2 12) gen_fitem >>= fun body ->
    bool >>= fun selfmod ->
    (if selfmod then
       int_range 0 (List.length body) >>= fun at ->
       let rec ins i = function
         | rest when i = 0 -> Patch :: rest
         | [] -> [ Patch ]
         | x :: rest -> x :: ins (i - 1) rest
       in
       return (ins at body)
     else return body)
    >>= fun body ->
    (if selfmod then bool else return false) >>= fun victim_first ->
    return { seeds; iters; body; selfmod; victim_first })

let fitem_to_string = function
  | Arith i -> Insn.to_string i
  | Store_load (s, d, k) -> Printf.sprintf "st/ld r%d->r%d @%d" s d k
  | Byte_store_load (s, d, b) -> Printf.sprintf "stb/ldb r%d->r%d @+%d" s d b
  | Push_pop (a, b, c, d) -> Printf.sprintf "push/pop %d,%d->%d,%d" a b c d
  | Skip_z (r, is) ->
      Printf.sprintf "skip-z r%d [%s]" r
        (String.concat "; " (List.map Insn.to_string is))
  | Skip_nz (r, is) ->
      Printf.sprintf "skip-nz r%d [%s]" r
        (String.concat "; " (List.map Insn.to_string is))
  | Skip_cond (_, is) ->
      Printf.sprintf "skip-cond [%s]"
        (String.concat "; " (List.map Insn.to_string is))
  | Pac_pair k -> "pac/aut " ^ Sysreg.name (fst (Sysreg.key_halves k))
  | Pacga_mix -> "pacga"
  | Sysreg_roundtrip (sr, a, b) ->
      Printf.sprintf "msr/mrs %s r%d->r%d" (Sysreg.name sr) a b
  | Counter_read sr -> "mrs " ^ Sysreg.name sr
  | Sctlr_flip k -> "sctlr flip " ^ Sysreg.name (fst (Sysreg.key_halves k))
  | Xpac_strip k -> "xpac " ^ Sysreg.name (fst (Sysreg.key_halves k))
  | Pac1716_pair k -> "pac/aut 1716 " ^ Sysreg.name (fst (Sysreg.key_halves k))
  | Auth_branch link -> if link then "blraa" else "braa"
  | Bad_auth_branch -> "braa (wrong modifier)"
  | Patch -> "self-patch"

let print_fprog p =
  Printf.sprintf "iters=%d selfmod=%b victim_first=%b seeds=[%s] body=[%s]"
    p.iters p.selfmod p.victim_first
    (String.concat "," (List.map string_of_int p.seeds))
    (String.concat " | " (List.map fitem_to_string p.body))

(* Emit one body item; returns the Asm items and the instruction count
   (labels are free), so the victim pair can be 8-aligned. *)
let emit_fitem ~victim_first fresh = function
  | Arith i -> ([ Asm.ins i ], 1)
  | Store_load (s, d, k) ->
      ( [
          Asm.ins (Insn.Str (Insn.R s, Insn.Off (Insn.R 10, 8 * k)));
          Asm.ins (Insn.Ldr (Insn.R d, Insn.Off (Insn.R 10, 8 * k)));
        ],
        2 )
  | Byte_store_load (s, d, b) ->
      ( [
          Asm.ins (Insn.Strb (Insn.R s, Insn.Off (Insn.R 10, b)));
          Asm.ins (Insn.Ldrb (Insn.R d, Insn.Off (Insn.R 10, b)));
        ],
        2 )
  | Push_pop (a, b, c, d) ->
      ( [
          Asm.ins (Insn.Stp (Insn.R a, Insn.R b, Insn.Pre (Insn.SP, -16)));
          Asm.ins (Insn.Ldp (Insn.R c, Insn.R d, Insn.Post (Insn.SP, 16)));
        ],
        2 )
  | Skip_z (r, is) ->
      let l = fresh () in
      ( (Asm.cbz_to (Insn.R r) l :: List.map Asm.ins is) @ [ Asm.label l ],
        1 + List.length is )
  | Skip_nz (r, is) ->
      let l = fresh () in
      ( (Asm.cbnz_to (Insn.R r) l :: List.map Asm.ins is) @ [ Asm.label l ],
        1 + List.length is )
  | Skip_cond (c, is) ->
      let l = fresh () in
      ( (Asm.bcond_to c l :: List.map Asm.ins is) @ [ Asm.label l ],
        1 + List.length is )
  | Pac_pair k ->
      (* sign the data pointer under the loop counter, authenticate it
         back (guaranteed to succeed) and fold the result into R1 *)
      ( [
          Asm.ins (Insn.Mov (Insn.R 12, Insn.R 10));
          Asm.ins (Insn.Mov (Insn.R 13, Insn.R 11));
          Asm.ins (Insn.Pac (k, Insn.R 12, Insn.R 13));
          Asm.ins (Insn.Aut (k, Insn.R 12, Insn.R 13));
          Asm.ins (Insn.Add_reg (Insn.R 1, Insn.R 1, Insn.R 12));
        ],
        5 )
  | Pacga_mix ->
      ( [
          Asm.ins (Insn.Pacga (Insn.R 13, Insn.R 0, Insn.R 1));
          Asm.ins (Insn.Eor_reg (Insn.R 2, Insn.R 2, Insn.R 13));
        ],
        2 )
  | Sysreg_roundtrip (sr, a, b) ->
      ([ Asm.ins (Insn.Msr (sr, Insn.R a)); Asm.ins (Insn.Mrs (Insn.R b, sr)) ], 2)
  | Counter_read sr ->
      ( [
          Asm.ins (Insn.Mrs (Insn.R 13, sr));
          Asm.ins (Insn.Eor_reg (Insn.R 2, Insn.R 2, Insn.R 13));
        ],
        2 )
  | Sctlr_flip k ->
      let bit = Sysreg.sctlr_enable_bit k in
      ( [
          Asm.ins (Insn.Mrs (Insn.R 13, Sysreg.SCTLR_EL1));
          Asm.ins (Insn.Movz (Insn.R 12, 1 lsl (bit mod 16), 16 * (bit / 16)));
          Asm.ins (Insn.Eor_reg (Insn.R 13, Insn.R 13, Insn.R 12));
          Asm.ins (Insn.Msr (Sysreg.SCTLR_EL1, Insn.R 13));
        ],
        4 )
  | Xpac_strip k ->
      ( [
          Asm.ins (Insn.Mov (Insn.R 12, Insn.R 10));
          Asm.ins (Insn.Mov (Insn.R 13, Insn.R 11));
          Asm.ins (Insn.Pac (k, Insn.R 12, Insn.R 13));
          Asm.ins (Insn.Xpac (Insn.R 12));
          Asm.ins (Insn.Add_reg (Insn.R 1, Insn.R 1, Insn.R 12));
        ],
        5 )
  | Pac1716_pair k ->
      ( [
          Asm.ins (Insn.Mov (Insn.ip1, Insn.R 10));
          Asm.ins (Insn.Mov (Insn.ip0, Insn.R 11));
          Asm.ins (Insn.Pac1716 k);
          Asm.ins (Insn.Aut1716 k);
          Asm.ins (Insn.Add_reg (Insn.R 1, Insn.R 1, Insn.ip1));
        ],
        5 )
  | Auth_branch false ->
      let l = fresh () in
      ( [
          Asm.adr_of (Insn.R 12) l;
          Asm.ins (Insn.Mov (Insn.R 13, Insn.R 11));
          Asm.ins (Insn.Pac (Sysreg.IA, Insn.R 12, Insn.R 13));
          Asm.ins (Insn.Bra (Sysreg.IA, Insn.R 12, Insn.R 13));
          Asm.ins (Insn.Add_imm (Insn.R 1, Insn.R 1, 5));
          Asm.label l;
        ],
        5 )
  | Auth_branch true ->
      let callee = fresh () and after = fresh () in
      ( [
          Asm.adr_of (Insn.R 12) callee;
          Asm.ins (Insn.Mov (Insn.R 13, Insn.R 11));
          Asm.ins (Insn.Pac (Sysreg.IA, Insn.R 12, Insn.R 13));
          Asm.ins (Insn.Mov (Insn.R 14, Insn.lr));
          Asm.ins (Insn.Blra (Sysreg.IA, Insn.R 12, Insn.R 13));
          Asm.ins (Insn.Mov (Insn.lr, Insn.R 14));
          Asm.b_to after;
          Asm.label callee;
          Asm.ins (Insn.Add_imm (Insn.R 1, Insn.R 1, 3));
          Asm.ins Insn.Ret;
          Asm.label after;
        ],
        9 )
  | Bad_auth_branch ->
      (* the modifier goes wrong on the last trip only, once the loop is
         hot enough to run as compiled blocks on the traces tier *)
      let ok = fresh () and l = fresh () in
      ( [
          Asm.adr_of (Insn.R 12) l;
          Asm.ins (Insn.Mov (Insn.R 13, Insn.R 11));
          Asm.ins (Insn.Pac (Sysreg.IA, Insn.R 12, Insn.R 13));
          Asm.ins (Insn.Subs_imm (Insn.XZR, Insn.R 11, 1));
          Asm.bcond_to Insn.Ne ok;
          Asm.ins (Insn.Add_imm (Insn.R 13, Insn.R 13, 1));
          Asm.label ok;
          Asm.ins (Insn.Bra (Sysreg.IA, Insn.R 12, Insn.R 13));
          Asm.label l;
        ],
        7 )
  | Patch when victim_first ->
      ( [
          Asm.ins (Insn.Str (Insn.R 8, Insn.Off (Insn.R 9, 0)));
          Asm.ins (Insn.Mov (Insn.R 9, Insn.R 10));
        ],
        2 )
  | Patch -> ([ Asm.ins (Insn.Str (Insn.R 8, Insn.Off (Insn.R 9, 0))) ], 1)

let emit_fprog p =
  let fresh =
    let c = ref 0 in
    fun () ->
      incr c;
      Printf.sprintf "skip%d" !c
  in
  let body_items, body_insns =
    List.fold_left
      (fun (items, n) it ->
        let is, k = emit_fitem ~victim_first:p.victim_first fresh it in
        (items @ is, n + k))
      ([], 0) p.body
  in
  (* The self-patch replacement word: both halves are PC-independent
     encodings, so they can be computed before assembly. *)
  let enc insn =
    Int64.logand (Int64.of_int32 (Encode.encode ~pc:0L insn)) 0xffffffffL
  in
  let word =
    Int64.logor
      (enc (Insn.Add_imm (Insn.R 6, Insn.R 6, 9)))
      (Int64.shift_left (enc Insn.Nop) 32)
  in
  let mov_abs r v =
    let chunk i =
      Int64.to_int (Int64.logand (Int64.shift_right_logical v (16 * i)) 0xffffL)
    in
    Asm.ins (Insn.Movz (r, chunk 0, 0))
    :: List.map (fun i -> Asm.ins (Insn.Movk (r, chunk i, 16 * i))) [ 1; 2; 3 ]
  in
  let prologue =
    mov_abs (Insn.R 10) Bare.data_base
    @ (if p.selfmod then Asm.mov_addr (Insn.R 9) "victim" @ mov_abs (Insn.R 8) word
       else [])
    @ List.mapi (fun i v -> Asm.ins (Insn.Movz (Insn.R i, v, 0))) p.seeds
    @ [ Asm.ins (Insn.Movz (Insn.R 11, p.iters, 0)) ]
  in
  let prologue_insns = 4 + (if p.selfmod then 8 else 0) + 6 + 1 in
  (* keep the 8-byte victim pair aligned for the single patching store *)
  let pad_after n = if n mod 2 = 1 then [ Asm.ins Insn.Nop ] else [] in
  let victim =
    if p.selfmod then
      [
        Asm.label "victim";
        Asm.ins (Insn.Add_imm (Insn.R 6, Insn.R 6, 7));
        Asm.ins Insn.Nop;
      ]
    else []
  in
  let loop =
    if p.victim_first then
      pad_after prologue_insns @ [ Asm.label "loop" ] @ victim @ body_items
    else
      [ Asm.label "loop" ] @ body_items
      @ pad_after (prologue_insns + body_insns)
      @ victim
  in
  let prog = Asm.create () in
  Asm.add_function prog ~name:"fuzz"
    (prologue @ loop
    @ [
        Asm.ins (Insn.Sub_imm (Insn.R 11, Insn.R 11, 1));
        Asm.cbnz_to (Insn.R 11) "loop";
        Asm.ins Insn.Ret;
      ]);
  prog

let load_fprog ~tier p =
  let m = Bare.smp ~seed:11L ~tier () in
  let cpu = Machine.boot_core m in
  if p.selfmod then
    Env.map_region cpu ~base:Env.code_base ~pages:16 Mmu.rwx;
  (m, cpu, Bare.load cpu (emit_fprog p))

(* [attach] runs on the boot core once the program is loaded, just
   before the call: it arms an injector or attaches a sink. *)
let call_fprog ?(attach = ignore) (m, cpu, layout) =
  attach cpu;
  let stop = Bare.call ~max_insns:200_000 cpu layout "fuzz" in
  (Cpu.stop_to_string stop, Snapshot.Fingerprint.of_machine m)

let run_fprog ?attach ~tier p = call_fprog ?attach (load_fprog ~tier p)

let prop_three_tier =
  QCheck2.Test.make
    ~name:"random programs: interp = icache = traces (stop + fingerprint)"
    ~count:200 ~print:print_fprog gen_fprog (fun p ->
      let stop_i, fp_i = run_fprog ~tier:Cpu.Interp p in
      let stop_c, fp_c = run_fprog ~tier:Cpu.Icache p in
      let stop_t, fp_t = run_fprog ~tier:Cpu.Traces p in
      stop_i = stop_c && stop_c = stop_t && fp_i = fp_c && fp_c = fp_t)

(* The tier x observed x armed matrix. Every run enters the one run
   loop, but a hooked or observed run takes its single-step path on
   every tier while a plain traces run executes compiled blocks, so the
   matrix pins what each way in must preserve:

   - an armed injector that never fires and an attached sink are pure
     observation: each gives the plain interp run's stop and
     fingerprint, on every tier, except that under a sink an MRS of an
     event counter reads the sink's count (the observed runs then equal
     the observed interp run);
   - an injector that does fire changes the run identically on every
     tier: an instruction skip after a random number of steps, or a
     fault in a cycle window whose [lo] falls inside the program's
     cycle span, a transient GPR flip or a stuck key flip. A window
     sets the armed core's horizon, so a traces core runs blocks up to
     it; a transient strike unhooks the core and a stuck one hooks
     every later instruction;
   - observed runs count the same counter file on every tier. *)
let arm spec cpu = Faultinj.Injector.arm (Faultinj.Injector.create spec) cpu

let never =
  Faultinj.Injector.
    { trigger = After_steps max_int; model = Skip_insn; persistence = Transient }

(* The faults [prop_observed_armed] draws. A window's [lo] is drawn in
   thousandths of the program's cycle span, from the cycle count at
   the call. *)
type fault =
  | Skip_after of int
  | Window_gpr of { permille : int; reg : int; bit : int }  (* transient *)
  | Window_key of { permille : int; key : Sysreg.pauth_key; high : bool; bit : int }
      (* stuck *)

let gen_fault =
  QCheck2.Gen.(
    let permille = int_range 0 999 and bit = int_range 0 63 in
    frequency
      [
        (2, map (fun n -> Skip_after n) (int_range 0 2000));
        ( 1,
          map3
            (fun permille reg bit -> Window_gpr { permille; reg; bit })
            permille (int_range 0 5) bit );
        ( 1,
          map3
            (fun permille (key, high) bit -> Window_key { permille; key; high; bit })
            permille
            (pair (oneofl Sysreg.[ IA; IB; DA; DB ]) bool)
            bit );
      ])

let fault_to_string = function
  | Skip_after n -> Printf.sprintf "skip-after=%d" n
  | Window_gpr { permille; reg; bit } ->
      Printf.sprintf "window@%d/1000 gpr-flip x%d bit %d (transient)" permille reg bit
  | Window_key { permille; key; high; bit } ->
      Printf.sprintf "window@%d/1000 key-flip %s bit %d (stuck)" permille
        (Sysreg.name ((if high then fst else snd) (Sysreg.key_halves key)))
        bit

(* [arm_fault f ~span] arms [f] on the core it is attached to, a window
   starting [span * permille / 1000] cycles after the core's count. *)
let arm_fault f ~span cpu =
  let window permille =
    let lo =
      Int64.add (Cpu.cycles cpu) (Int64.div (Int64.mul span (Int64.of_int permille)) 1000L)
    in
    Faultinj.Injector.At_cycle_window { lo; hi = Int64.max_int }
  in
  arm
    (match f with
    | Skip_after n ->
        Faultinj.Injector.
          { trigger = After_steps n; model = Skip_insn; persistence = Transient }
    | Window_gpr { permille; reg; bit } ->
        Faultinj.Injector.
          {
            trigger = window permille;
            model = Gpr_flip { reg; bits = [ bit ] };
            persistence = Transient;
          }
    | Window_key { permille; key; high; bit } ->
        Faultinj.Injector.
          {
            trigger = window permille;
            model = Key_flip { key; high_half = high; bit };
            persistence = Stuck;
          })
    cpu

let counters_json sink =
  Telemetry.Counters.to_json
    (Telemetry.Counters.snapshot (Telemetry.Sink.counters sink))

let observed ~tier p =
  let sink = Telemetry.Sink.create ~cpu:0 () in
  let result = run_fprog ~attach:(fun cpu -> Cpu.attach_telemetry cpu sink) ~tier p in
  (result, counters_json sink)

let prop_observed_armed =
  QCheck2.Test.make
    ~name:"random programs: armed and observed runs agree on every tier"
    ~count:150
    ~print:(fun (p, f) -> Printf.sprintf "%s %s" (print_fprog p) (fault_to_string f))
    QCheck2.Gen.(pair gen_fprog gen_fault)
    (fun (p, f) ->
      let ((_, cpu, _) as loaded) = load_fprog ~tier:Cpu.Interp p in
      let c0 = Cpu.cycles cpu in
      let plain = call_fprog loaded in
      let span = Int64.sub (Cpu.cycles cpu) c0 in
      let faulted = run_fprog ~attach:(arm_fault f ~span) ~tier:Cpu.Interp p in
      let observed_interp = observed ~tier:Cpu.Interp p in
      let reads_event_counter =
        List.exists
          (function Counter_read sr -> List.mem sr event_counters | _ -> false)
          p.body
      in
      (reads_event_counter || fst observed_interp = plain)
      && List.for_all
           (fun tier ->
             run_fprog ~attach:(arm never) ~tier p = plain
             && observed ~tier p = observed_interp
             && run_fprog ~attach:(arm_fault f ~span) ~tier p = faulted)
           Cpu.all_tiers)

(* Snapshot/restore joins the matrix. The snapshot is taken after the
   load, or mid-run after a random instruction budget; the program runs
   on from there, the machine is restored, and it runs on again over
   the icache and trace caches the first run left warm. Restore keeps
   those caches, so only [Mem.restore]'s notifications drop what the
   first run patched: a victim-first program snapshotted before its
   patch ends its first run with the patched victim decoded (and, on
   traces, compiled into the loop's block), yet its second run must
   start from the unpatched victim again. For plain runs, armed runs
   whose injector never fires, and observed runs (counter files
   included), the second run must equal the first on every tier. *)
let rerun_after_restore ~attach ~tier ~at p =
  let m, cpu, layout = load_fprog ~tier p in
  (* enters [fuzz] and retires [at] instructions (none for [at = 0]); a
     program that ends sooner leaves the PC at the sentinel, and the
     runs below return at once *)
  ignore (Bare.call ~max_insns:at cpu layout "fuzz" : Cpu.stop);
  let snap = Machine.snapshot m in
  let run_on () =
    attach cpu;
    let stop = Cpu.run ~max_insns:200_000 cpu in
    (Cpu.stop_to_string stop, Snapshot.Fingerprint.of_machine m)
  in
  let first = run_on () in
  Machine.restore m snap;
  first = run_on ()

let prop_restore_rerun =
  QCheck2.Test.make
    ~name:"random programs: a restored rerun repeats the first run on every tier"
    ~count:100
    ~print:(fun (p, mid) ->
      Printf.sprintf "%s snapshots after load and at insn %d" (print_fprog p) mid)
    QCheck2.Gen.(pair gen_fprog (int_range 1 2000))
    (fun (p, mid) ->
      List.for_all
        (fun (tier, at) ->
          let sinks = ref [] in
          let observe cpu =
            let sink = Telemetry.Sink.create ~cpu:0 () in
            sinks := sink :: !sinks;
            Cpu.attach_telemetry cpu sink
          in
          rerun_after_restore ~attach:ignore ~tier ~at p
          && rerun_after_restore ~attach:(arm never) ~tier ~at p
          && rerun_after_restore ~attach:observe ~tier ~at p
          &&
          match List.map counters_json !sinks with
          | [ second; first ] -> first = second
          | _ -> false)
        (List.concat_map (fun tier -> [ (tier, 0); (tier, mid) ]) Cpu.all_tiers))

(* Telemetry is pure observation in every tier: booting the kernel with
   counters on and running a random syscall sequence must produce the
   identical counter file whichever tier executes it. *)
let run_sequence_tier config ~tier seq =
  let sys = K.System.boot ~config ~seed:99L ~telemetry:true ~tier () in
  K.Kmem.map_user_region (K.System.cpu sys) ~base:K.Layout.user_data_base
    ~bytes:0x4000 Aarch64.Mmu.rw;
  let observations = List.map (execute sys) seq in
  let counters =
    match K.System.telemetry sys with
    | Some hub -> Telemetry.Counters.to_json (Telemetry.Hub.counters hub)
    | None -> Alcotest.fail "telemetry boot carries no hub"
  in
  (observations, counters, Aarch64.Cpu.cycles (K.System.cpu sys))

let prop_tier_telemetry =
  QCheck2.Test.make
    ~name:"syscall sequences: telemetry counters identical across tiers"
    ~count:15 gen_sequence (fun seq ->
      let base = run_sequence_tier C.Config.full ~tier:Cpu.Interp seq in
      List.for_all
        (fun tier -> run_sequence_tier C.Config.full ~tier seq = base)
        [ Cpu.Icache; Cpu.Traces ])

(* Restore across different SCTLR enable bits: capture the loaded
   machine, flip one key's enable bit host-side, run, restore (which
   writes the captured SCTLR back) and run again. On every tier the
   first run must equal a fresh interp run under the flipped SCTLR and
   the second a fresh interp run under the original one: nothing cached
   while one SCTLR was live may leak into a run under the other. *)
let toggle_enable k cpu =
  let bit = Int64.shift_left 1L (Sysreg.sctlr_enable_bit k) in
  Cpu.set_sysreg cpu Sysreg.SCTLR_EL1
    (Int64.logxor (Cpu.sysreg cpu Sysreg.SCTLR_EL1) bit)

let prop_sctlr_restore =
  QCheck2.Test.make
    ~name:"random programs: a restore across an SCTLR flip reruns clean on every tier"
    ~count:60
    ~print:(fun (p, k) ->
      Printf.sprintf "%s flip %s" (print_fprog p) (Sysreg.name (fst (Sysreg.key_halves k))))
    QCheck2.Gen.(pair gen_fprog (oneofl Sysreg.[ IA; IB; DA; DB ]))
    (fun (p, k) ->
      let plain = run_fprog ~tier:Cpu.Interp p in
      let flipped = run_fprog ~attach:(toggle_enable k) ~tier:Cpu.Interp p in
      List.for_all
        (fun tier ->
          let ((m, _, _) as loaded) = load_fprog ~tier p in
          let snap = Machine.snapshot m in
          let first = call_fprog ~attach:(toggle_enable k) loaded in
          Machine.restore m snap;
          let second = call_fprog loaded in
          first = flipped && second = plain)
        Cpu.all_tiers)

(* An authenticated branch that fails: the stop and the machine state
   it leaves must match on every tier. *)
let prop_failed_auth_branch =
  QCheck2.Test.make
    ~name:"random programs ending in a failed BRAA stop alike on every tier"
    ~count:60 ~print:print_fprog
    QCheck2.Gen.(map (fun p -> { p with body = p.body @ [ Bad_auth_branch ] }) gen_fprog)
    (fun p ->
      let base = run_fprog ~tier:Cpu.Interp p in
      List.for_all (fun tier -> run_fprog ~tier p = base) [ Cpu.Icache; Cpu.Traces ])

(* The generator must keep drawing every system-register and PAuth
   item, or the properties above stop covering them. *)
let test_generator_coverage () =
  let rand = Random.State.make [| 21 |] in
  let drawn = List.init 2000 (fun _ -> QCheck2.Gen.generate1 ~rand gen_fitem) in
  let roundtrip sr = function
    | Sysreg_roundtrip (r, _, _) -> r = sr
    | _ -> false
  in
  List.iter
    (fun (what, drawn_as) ->
      Alcotest.(check bool) (what ^ " is drawn") true (List.exists drawn_as drawn))
    ([
       ( "MSR/MRS of a key half",
         function Sysreg_roundtrip (r, _, _) -> Sysreg.is_pauth_key r | _ -> false );
       ("XPAC under an instruction key", ( = ) (Xpac_strip Sysreg.IA));
       ("XPAC under a data key", ( = ) (Xpac_strip Sysreg.DA));
       ("PACIA1716/AUTIA1716", ( = ) (Pac1716_pair Sysreg.IA));
       ("BRAA", ( = ) (Auth_branch false));
       ("BLRAA", ( = ) (Auth_branch true));
     ]
    @ List.map (fun sr -> ("MSR/MRS of " ^ Sysreg.name sr, roundtrip sr)) plain_sysregs
    @ List.map
        (fun sr -> ("MRS of " ^ Sysreg.name sr, ( = ) (Counter_read sr)))
        counter_regs
    @ List.map
        (fun k ->
          ("SCTLR flip of " ^ Sysreg.name (fst (Sysreg.key_halves k)), ( = ) (Sctlr_flip k)))
        Sysreg.[ IA; IB; DA; DB ]);
  let faults = List.init 200 (fun _ -> QCheck2.Gen.generate1 ~rand gen_fault) in
  List.iter
    (fun (what, drawn_as) ->
      Alcotest.(check bool) (what ^ " is drawn") true (List.exists drawn_as faults))
    [
      ("an instruction skip after n steps", function Skip_after _ -> true | _ -> false);
      ("a transient GPR flip in a cycle window", function Window_gpr _ -> true | _ -> false);
      ("a stuck key flip in a cycle window", function Window_key _ -> true | _ -> false);
    ]

let suite =
  [
    QCheck_alcotest.to_alcotest prop_transparency;
    QCheck_alcotest.to_alcotest prop_determinism;
    QCheck_alcotest.to_alcotest prop_no_benign_panic;
    QCheck_alcotest.to_alcotest prop_three_tier;
    QCheck_alcotest.to_alcotest prop_tier_telemetry;
    QCheck_alcotest.to_alcotest prop_observed_armed;
    QCheck_alcotest.to_alcotest prop_restore_rerun;
    QCheck_alcotest.to_alcotest prop_sctlr_restore;
    QCheck_alcotest.to_alcotest prop_failed_auth_branch;
    Alcotest.test_case "the generator draws every sysreg and PAuth item" `Quick
      test_generator_coverage;
  ]
