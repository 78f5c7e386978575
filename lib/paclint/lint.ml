open Aarch64

type policy = {
  protect_return : bool;
  protect_pointers : bool;
  sp_modifier : bool;
  allowed_key_writer : int64 -> bool;
}

let reserved_registers = [ Insn.R 15; Insn.ip0; Insn.ip1 ]

(* Parallel-map capability. paclint sits below lib/fleet in the library
   order, so it cannot name Fleet.Pool; callers that want parallelism
   plug Fleet.Pool.map in through this record. Results must land at
   their job index (byte-stable merges rely on it). *)
type par = { pmap : 'a. jobs:int -> (int -> 'a) -> 'a array }

let seq_par = { pmap = (fun ~jobs f -> Array.init jobs f) }

(* ----- flow-insensitive key-access rule (§4.1, §6.2.2) ----- *)

let key_access ~allowed va insn =
  match Insn.reads_sysreg insn with
  | Some sr when Sysreg.is_pauth_key sr ->
      Some { Diag.va; insn; kind = Diag.Key_register_read sr }
  | Some _ | None -> (
      match Insn.writes_sysreg insn with
      | Some sr when Sysreg.is_pauth_key sr && not (allowed va) ->
          Some { Diag.va; insn; kind = Diag.Key_register_write sr }
      | Some Sysreg.SCTLR_EL1 when not (allowed va) ->
          Some { Diag.va; insn; kind = Diag.Sctlr_write }
      | Some _ | None -> None)

(* ----- abstract domain ----- *)

(* Provenance of a register value. The join order is by attacker reach:
   [Raw] (loaded from writable memory, never authenticated) dominates
   [Stripped] (had its PAC removed) dominates [Signed] (carries a PAC
   that was never checked) dominates everything code-controlled
   ([Const], [Sp_snap], [Authenticated], [Top]); unequal code-controlled
   values join to [Top]. *)
type pv =
  | Const  (** immediate, address materialization, or trusted load *)
  | Sp_snap of int  (** SP + delta snapshot, for modifier tracking *)
  | Raw
  | Signed of Sysreg.pauth_key
  | Authenticated
  | Stripped
  | Top

type state = { regs : pv array; (* x0..x30 *) mutable delta : int option }

let entry_state () =
  (* Everything unknown at entry, LR included: an untouched LR is
     neither provably attacker-reachable (so a leaf's bare RET passes)
     nor freshly authenticated (so the standard callee-save spill of LR
     is not a TOCTOU finding — only AUT-produced values are). *)
  { regs = Array.make 31 Top; delta = Some 0 }

let copy st = { regs = Array.copy st.regs; delta = st.delta }

(* Structural equality without the polymorphic compare: the fixpoint
   and the summary merge test states for equality on every join. *)
let equal_pv a b =
  a == b
  ||
  match (a, b) with
  | Sp_snap x, Sp_snap y -> x = y
  | Signed k, Signed l -> k == l
  | _ -> false

let equal_state a b =
  a.delta = b.delta
  &&
  let rec go i = i > 30 || (equal_pv a.regs.(i) b.regs.(i) && go (i + 1)) in
  go 0

let join_pv a b =
  if equal_pv a b then a
  else
    match (a, b) with
    | Raw, _ | _, Raw -> Raw
    | Stripped, _ | _, Stripped -> Stripped
    | (Signed _ as s), _ | _, (Signed _ as s) -> s
    | _ -> Top

let join_state a b =
  {
    regs = Array.init 31 (fun i -> join_pv a.regs.(i) b.regs.(i));
    delta =
      (match (a.delta, b.delta) with
      | Some x, Some y when x = y -> Some x
      | _ -> None);
  }

let get st = function
  | Insn.R n -> st.regs.(n)
  | Insn.XZR -> Const
  | Insn.SP -> ( match st.delta with Some d -> Sp_snap d | None -> Top)

let set st r v = match r with Insn.R n -> st.regs.(n) <- v | Insn.SP | Insn.XZR -> ()

(* ----- transfer function ----- *)

let base_of = function Insn.Off (r, _) | Insn.Pre (r, _) | Insn.Post (r, _) -> r

(* Arithmetic keeps attacker taint, keeps constants, and destroys PACs
   and SP snapshots (the result is some other code-controlled value). *)
let alu1 = function Raw | Stripped -> Raw | Const -> Const | _ -> Top

let alu2 a b =
  match (a, b) with
  | (Raw | Stripped), _ | _, (Raw | Stripped) -> Raw
  | Signed _, _ | _, Signed _ -> Top
  | Const, _ | _, Const -> Const (* indexed access into a code-chosen table *)
  | _ -> Top

(* A load is trusted when its address is: authenticated base (the
   paper's signed ops-table chain) or code-materialized constant
   (rodata). Anything else — stack included — is writable or replayable,
   so the result is attacker-reachable. *)
let load_result = function Authenticated | Const -> Const | _ -> Raw

let writeback st = function
  | Insn.Off _ -> ()
  | Insn.Pre (r, off) | Insn.Post (r, off) -> (
      match r with
      | Insn.SP -> st.delta <- Option.map (fun d -> d + off) st.delta
      | r -> (
          match get st r with
          | Sp_snap d -> set st r (Sp_snap (d + off))
          | _ -> () (* constant offset does not change provenance *)))

let modifier_delta st rm = match get st rm with Sp_snap d -> Some d | _ -> None

let clobber_call st =
  for i = 0 to 18 do
    st.regs.(i) <- Top
  done

(* What one pass of [step] reports to: the fixpoint pass drops
   diagnostics and PAC sites, the reporting pass collects them; both
   apply the caller's [call] and [indirect_resolved]. *)
type hooks = {
  emit : Diag.t -> unit;
  sign_site : int64 -> Insn.t -> int option -> unit;
  auth_site : int64 -> Insn.t -> int option -> unit;
  call : int64 -> Insn.t -> state -> bool;
  indirect_resolved : int64 -> bool;
}

let step policy hooks st (va, insn) =
  let emit kind = hooks.emit { Diag.va; insn; kind } in
  (match key_access ~allowed:policy.allowed_key_writer va insn with
  | Some d -> hooks.emit d
  | None -> ());
  match insn with
  | Insn.Movz (rd, _, _) -> set st rd Const
  | Insn.Movk (rd, _, _) ->
      set st rd (match get st rd with Raw | Stripped -> Raw | _ -> Const)
  | Insn.Mov (Insn.SP, rn) ->
      st.delta <- (match get st rn with Sp_snap d -> Some d | _ -> None)
  | Insn.Mov (rd, rn) -> set st rd (get st rn)
  | Insn.Add_imm (Insn.SP, rn, imm) ->
      st.delta <- (match get st rn with Sp_snap d -> Some (d + imm) | _ -> None)
  | Insn.Sub_imm (Insn.SP, rn, imm) ->
      st.delta <- (match get st rn with Sp_snap d -> Some (d - imm) | _ -> None)
  | Insn.Add_imm (rd, rn, imm) ->
      set st rd (match get st rn with Sp_snap d -> Sp_snap (d + imm) | v -> alu1 v)
  | Insn.Sub_imm (rd, rn, imm) ->
      set st rd (match get st rn with Sp_snap d -> Sp_snap (d - imm) | v -> alu1 v)
  | Insn.Subs_imm (rd, rn, _)
  | Insn.Lsl_imm (rd, rn, _)
  | Insn.Lsr_imm (rd, rn, _)
  | Insn.Ubfx (rd, rn, _, _) ->
      set st rd (alu1 (get st rn))
  | Insn.Add_reg (rd, rn, rm)
  | Insn.Sub_reg (rd, rn, rm)
  | Insn.Subs_reg (rd, rn, rm)
  | Insn.And_reg (rd, rn, rm)
  | Insn.Orr_reg (rd, rn, rm)
  | Insn.Eor_reg (rd, rn, rm) ->
      set st rd (alu2 (get st rn) (get st rm))
  | Insn.Bfi (rd, rn, _, _) ->
      (* The modifier idiom: BFI of an SP snapshot into a constant tag
         yields a value that still pins the SP delta. *)
      set st rd
        (match get st rn with Sp_snap d -> Sp_snap d | v -> alu2 (get st rd) v)
  | Insn.Adr (rd, _) -> set st rd Const
  | Insn.Ldr (rd, m) | Insn.Ldrb (rd, m) ->
      let v = load_result (get st (base_of m)) in
      writeback st m;
      set st rd v
  | Insn.Ldp (r1, r2, m) ->
      let v = load_result (get st (base_of m)) in
      writeback st m;
      set st r1 v;
      set st r2 v
  | Insn.Str (rs, m) ->
      if get st rs = Authenticated then emit (Diag.Toctou_spill rs);
      writeback st m
  | Insn.Strb (_, m) -> writeback st m
  | Insn.Stp (r1, r2, m) ->
      List.iter
        (fun r -> if get st r = Authenticated then emit (Diag.Toctou_spill r))
        [ r1; r2 ];
      writeback st m
  | Insn.B _ | Insn.Bcond _ | Insn.Cbz _ | Insn.Cbnz _ -> ()
  | Insn.Bl _ ->
      if not (hooks.call va insn st) then begin
        clobber_call st;
        st.regs.(30) <- Top
      end
  | Insn.Br rn ->
      (if policy.protect_pointers then
         match get st rn with
         | Raw | Stripped -> emit (Diag.Unauthenticated_branch rn)
         | _ -> ());
      if not (hooks.indirect_resolved va) then emit (Diag.Unresolved_indirect rn)
  | Insn.Blr rn ->
      (if policy.protect_pointers then
         match get st rn with
         | Raw | Stripped -> emit (Diag.Unauthenticated_branch rn)
         | _ -> ());
      if not (hooks.call va insn st) then begin
        clobber_call st;
        st.regs.(30) <- Top
      end
  | Insn.Ret -> (
      if policy.protect_return then
        match get st Insn.lr with
        | Raw | Stripped | Signed _ -> emit Diag.Unprotected_return
        | _ -> ())
  | Insn.Pac (k, rd, rm) ->
      (match get st rd with
      | Raw | Stripped -> emit (Diag.Signing_oracle rd)
      | _ -> ());
      if policy.sp_modifier then hooks.sign_site va insn (modifier_delta st rm);
      set st rd (Signed k)
  | Insn.Aut (_, rd, rm) ->
      if policy.sp_modifier then hooks.auth_site va insn (modifier_delta st rm);
      set st rd Authenticated
  | Insn.Pac1716 k ->
      (match get st Insn.ip1 with
      | Raw | Stripped -> emit (Diag.Signing_oracle Insn.ip1)
      | _ -> ());
      if policy.sp_modifier then hooks.sign_site va insn (modifier_delta st Insn.ip0);
      set st Insn.ip1 (Signed k)
  | Insn.Aut1716 _ ->
      if policy.sp_modifier then hooks.auth_site va insn (modifier_delta st Insn.ip0);
      set st Insn.ip1 Authenticated
  | Insn.Xpac rd -> set st rd Stripped
  | Insn.Pacga (rd, _, _) -> set st rd Const
  | Insn.Blra (_, _, _) ->
      (* authenticates its own target; traps on a bad PAC *)
      if not (hooks.call va insn st) then begin
        clobber_call st;
        st.regs.(30) <- Top
      end
  | Insn.Bra (_, rn, _) ->
      if not (hooks.indirect_resolved va) then emit (Diag.Unresolved_indirect rn)
  | Insn.Reta _ ->
      (* implicit AUT of LR with SP as the modifier *)
      if policy.sp_modifier then hooks.auth_site va insn st.delta
  | Insn.Mrs (rd, _) -> set st rd Const
  | Insn.Msr _ -> ()
  | Insn.Svc _ -> clobber_call st
  | Insn.Eret | Insn.Isb | Insn.Nop | Insn.Brk _ | Insn.Hlt _ -> ()

(* ----- driver ----- *)

let analyze policy (cfg : Cfg.t) ~entry ~call ~indirect_resolved ~visit =
  let nb = Array.length cfg.Cfg.blocks in
  let instate = Array.make nb None in
  let work = Queue.create () in
  List.iter
    (fun e ->
      instate.(e) <- Some (copy entry);
      Queue.add e work)
    cfg.Cfg.entries;
  let quiet =
    {
      emit = ignore;
      sign_site = (fun _ _ _ -> ());
      auth_site = (fun _ _ _ -> ());
      call;
      indirect_resolved;
    }
  in
  while not (Queue.is_empty work) do
    let b = Queue.pop work in
    match instate.(b) with
    | None -> ()
    | Some st0 ->
        let st = copy st0 in
        Array.iter (step policy quiet st) cfg.Cfg.blocks.(b).Cfg.insns;
        List.iter
          (fun s ->
            let joined =
              match instate.(s) with None -> copy st | Some cur -> join_state cur st
            in
            match instate.(s) with
            | Some cur when equal_state cur joined -> ()
            | _ ->
                instate.(s) <- Some joined;
                Queue.add s work)
          cfg.Cfg.blocks.(b).Cfg.succs
  done;
  (* Deterministic reporting pass over the fixed point, which is also
     the one pass [visit] sees. Unreachable blocks (data that happened
     to decode, dead code) still get the flow-insensitive key rule: MSR
     words are dangerous wherever they sit, which is exactly the old
     linear scan's coverage. *)
  let diags = ref [] in
  let signs = ref [] and auths = ref [] in
  let current_block = ref 0 in
  let report =
    {
      emit = (fun d -> diags := d :: !diags);
      sign_site = (fun va insn d -> signs := (!current_block, va, insn, d) :: !signs);
      auth_site = (fun va insn d -> auths := (!current_block, va, insn, d) :: !auths);
      call;
      indirect_resolved;
    }
  in
  Array.iteri
    (fun b blk ->
      current_block := b;
      match instate.(b) with
      | Some st0 ->
          let st = copy st0 in
          Array.iter
            (fun ((va, insn) as i) ->
              visit va insn st;
              step policy report st i)
            blk.Cfg.insns
      | None ->
          Array.iter
            (fun (va, insn) ->
              match key_access ~allowed:policy.allowed_key_writer va insn with
              | Some d -> diags := d :: !diags
              | None -> ())
            blk.Cfg.insns)
    cfg.Cfg.blocks;
  (* SP-modifier pairing, grouped by entry reachability (≈ function).
     Only judged when every signing site in the group has a known SP
     delta — an unknown modifier disables the rule rather than guess.
     An authentication reached from several entries is judged in each
     group; [Diag.normalize] keeps one copy of a repeated finding. *)
  if policy.sp_modifier then
    List.iter
      (fun e ->
        let r = Cfg.reachable cfg e in
        let here sites = List.filter (fun (b, _, _, _) -> r.(b)) sites in
        let signs_e = here !signs and auths_e = here !auths in
        let sign_deltas = List.filter_map (fun (_, _, _, d) -> d) signs_e in
        if signs_e <> [] && List.length sign_deltas = List.length signs_e then
          List.iter
            (fun (_, va, insn, d) ->
              match d with
              | Some d when not (List.mem d sign_deltas) ->
                  diags := { Diag.va; insn; kind = Diag.Modifier_sp_mismatch d } :: !diags
              | _ -> ())
            auths_e)
      cfg.Cfg.entries;
  Diag.normalize !diags

(* ----- entry points ----- *)

let decode_region ~read32 ~base ~size =
  let rec go acc off =
    if off >= size then List.rev acc
    else
      let va = Int64.add base (Int64.of_int off) in
      let acc =
        match Encode.decode ~pc:va (read32 va) with
        | None -> acc
        | Some insn -> (va, insn) :: acc
      in
      go acc (off + 4)
  in
  Array.of_list (go [] 0)

let lint_insns ~policy ?entries insns =
  let code = Array.of_list insns in
  Array.sort (fun (a, _) (b, _) -> Int64.compare a b) code;
  let entries =
    match entries with
    | Some e -> e
    | None -> if Array.length code = 0 then [] else [ fst code.(0) ]
  in
  analyze policy (Cfg.build ~entries code) ~entry:(entry_state ())
    ~call:(fun _ _ _ -> false)
    ~indirect_resolved:(fun _ -> false)
    ~visit:(fun _ _ _ -> ())

let check_body items =
  let insns = Array.of_list (List.filter_map Asm.item_insn items) in
  let n = Array.length insns in
  (* x16/x17 are the architectural register interface of the 1716-form
     PAuth instructions; a write that feeds one within the next few
     instructions is the canonical idiom, not a scratch clobber. *)
  let feeds_1716 i =
    let rec look j =
      j < n && j <= i + 3
      && (match insns.(j) with
         | Insn.Pac1716 _ | Insn.Aut1716 _ | Insn.Blra _ | Insn.Bra _ -> true
         | _ -> look (j + 1))
    in
    look i
  in
  let diags = ref [] in
  Array.iteri
    (fun i insn ->
      let defs, _ = Insn.defs_uses insn in
      List.iter
        (fun r ->
          if
            List.mem r reserved_registers
            && not ((r = Insn.ip0 || r = Insn.ip1) && feeds_1716 i)
          then
            diags :=
              { Diag.va = Int64.of_int (4 * i); insn; kind = Diag.Reserved_clobber r }
              :: !diags)
        defs)
    insns;
  List.rev !diags
