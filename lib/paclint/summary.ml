open Aarch64

type fn_summary = {
  entry : int64;
  name : string option;
  entry_in : Lint.state option;
  exit : Lint.state option;
  writes : bool array;
  sp_net : int option;
}

type report = {
  cg : Callgraph.t;
  summaries : fn_summary array;
  diags : Diag.t list;
  rounds : int;
}

let signed_regs (st : Lint.state) =
  let acc = ref [] in
  for i = 30 downto 0 do
    match st.Lint.regs.(i) with
    | Lint.Signed k -> acc := (i, k) :: !acc
    | _ -> ()
  done;
  !acc

let clobbered_reserved s =
  List.filter
    (fun r -> match r with Insn.R n -> s.writes.(n) | _ -> false)
    Lint.reserved_registers

(* ----- frame translation at call boundaries ----- *)

(* Caller-frame value -> callee frame: the callee's entry SP is the
   caller's SP at the call (delta [dc]), so a caller snapshot
   [SP_entry + x] reads [SP_callee_entry + (x - dc)] in the callee. *)
let to_callee_frame dc (st : Lint.state) =
  let tr v =
    match v with
    | Lint.Sp_snap x -> (
        match dc with Some dc -> Lint.Sp_snap (x - dc) | None -> Lint.Top)
    | v -> v
  in
  let regs = Array.map tr st.Lint.regs in
  regs.(30) <- Lint.Top;
  { Lint.regs; delta = Some 0 }

(* Apply a callee summary at a call site: registers the callee may
   write take the callee's exit provenance translated back into the
   caller's frame; everything else keeps the caller's value. *)
let apply_summary (s : fn_summary) (st : Lint.state) =
  match s.exit with
  | None -> false
  | Some exit ->
      let dc = st.Lint.delta in
      let tr v =
        match v with
        | Lint.Sp_snap x -> (
            match dc with Some dc -> Lint.Sp_snap (dc + x) | None -> Lint.Top)
        | v -> v
      in
      for i = 0 to 30 do
        if s.writes.(i) then st.Lint.regs.(i) <- tr exit.Lint.regs.(i)
      done;
      st.Lint.regs.(30) <- Lint.Top;
      (st.Lint.delta <-
         (match (dc, s.sp_net) with
         | Some dc, Some net -> Some (dc + net)
         | _ -> None));
      true

(* ----- per-function analysis ----- *)

(* The function a call or tail site of [fn] resolves to, if any (the
   last call record for the site wins). *)
let callee cg fn site =
  let target =
    List.fold_left
      (fun acc c -> if c.Callgraph.site = site then c.Callgraph.target else acc)
      None fn.Callgraph.calls
  in
  Option.bind target (Callgraph.fn_index cg)

(* May-write set: local defs plus callee writes (caller-saved set and LR
   for calls without a usable summary). Flow-insensitive by design. *)
let compute_writes cg summaries fidx =
  let writes = Array.make 31 false in
  let clobber_callersaved () =
    for i = 0 to 18 do
      writes.(i) <- true
    done;
    writes.(30) <- true
  in
  let fn = cg.Callgraph.fns.(fidx) in
  for i = fn.Callgraph.lo to fn.Callgraph.hi - 1 do
    let _, insn = cg.Callgraph.code.(i) in
    let defs, _ = Insn.defs_uses insn in
    List.iter (function Insn.R n -> writes.(n) <- true | _ -> ()) defs;
    match insn with
    | Insn.Bl _ | Insn.Blr _ | Insn.Blra _ | Insn.Svc _ -> (
        match callee cg fn (fst cg.Callgraph.code.(i)) with
        | Some j when summaries.(j).exit <> None ->
            Array.iteri (fun n w -> if w then writes.(n) <- true) summaries.(j).writes
        | _ -> clobber_callersaved ())
    | _ -> ()
  done;
  writes

type fn_result = {
  r_exit : Lint.state option;
  r_flows : (int64 * Lint.state) list;  (** callee entry, contributed state *)
  r_diags : Diag.t list;
}

(* One round of analysis for function [fidx] from entry state [entry_st]
   against frozen [summaries]: [Lint.analyze] with callee summaries
   applied at calls, collecting exit states and caller->callee flows
   (calls and resolved tail calls) from its reporting pass. *)
let analyze_fn ~policy ~cg ~summaries fidx entry_st =
  let fn = cg.Callgraph.fns.(fidx) in
  let call va _insn st =
    match callee cg fn va with Some i -> apply_summary summaries.(i) st | None -> false
  in
  let flows = ref [] and exit = ref None in
  let visit va insn (st : Lint.state) =
    match insn with
    | Insn.Ret | Insn.Reta _ ->
        exit := Some (match !exit with None -> Lint.copy st | Some e -> Lint.join_state e st)
    | Insn.Bl _ | Insn.Blr _ | Insn.Blra _ | Insn.B _ | Insn.Br _ | Insn.Bra _ -> (
        match callee cg fn va with
        | Some i ->
            flows :=
              (cg.Callgraph.fns.(i).Callgraph.entry, to_callee_frame st.Lint.delta st)
              :: !flows
        | None -> ())
    | _ -> ()
  in
  let hints va =
    (* keep only hints that land inside this function: cross-function
       targets are call/tail edges, not CFG edges *)
    List.filter
      (fun t ->
        Int64.compare t fn.Callgraph.entry >= 0
        && Int64.compare t (fst cg.Callgraph.code.(fn.Callgraph.hi - 1)) <= 0)
      (Callgraph.hints cg va)
  in
  let cfg = Cfg.build ~entries:[ fn.Callgraph.entry ] ~hints (Callgraph.code_of cg fidx) in
  let r_diags =
    Lint.analyze policy cfg ~entry:entry_st ~call
      ~indirect_resolved:(fun va -> Callgraph.hints cg va <> [])
      ~visit
  in
  { r_exit = !exit; r_flows = !flows; r_diags }

(* ----- whole-image driver ----- *)

let max_rounds = 32

let analyze_image ?(par = Lint.seq_par) ?(symbols = []) ~policy code =
  let cg = Callgraph.build ~symbols code in
  let nf = Array.length cg.Callgraph.fns in
  let sym_vas = List.map snd symbols in
  let is_root = Array.make nf false in
  Array.iteri
    (fun i fn ->
      if List.mem fn.Callgraph.entry sym_vas || Callgraph.callers cg i = [] then
        is_root.(i) <- true)
    cg.Callgraph.fns;
  let entry_in = Array.make nf None in
  Array.iteri (fun i r -> if r then entry_in.(i) <- Some (Lint.entry_state ())) is_root;
  let summaries =
    Array.map
      (fun fn ->
        {
          entry = fn.Callgraph.entry;
          name = fn.Callgraph.name;
          entry_in = None;
          exit = None;
          writes = Array.make 31 false;
          sp_net = None;
        })
      cg.Callgraph.fns
  in
  let rounds = ref 0 in
  let run_round () =
    incr rounds;
    par.Lint.pmap ~jobs:nf (fun i ->
        match entry_in.(i) with
        | None -> None
        | Some st -> Some (analyze_fn ~policy ~cg ~summaries i st))
  in
  let merge results =
    let changed = ref false in
    (* summaries first (frozen lookup -> next round sees all of them) *)
    Array.iteri
      (fun i res ->
        match res with
        | None -> ()
        | Some r ->
            let writes = compute_writes cg summaries i in
            let sp_net =
              Option.bind r.r_exit (fun (e : Lint.state) -> e.Lint.delta)
            in
            let old = summaries.(i) in
            let fresh =
              { old with entry_in = entry_in.(i); exit = r.r_exit; writes; sp_net }
            in
            let same =
              old.writes = fresh.writes && old.sp_net = fresh.sp_net
              && (match (old.exit, fresh.exit) with
                 | None, None -> true
                 | Some a, Some b -> Lint.equal_state a b
                 | _ -> false)
            in
            if not same then changed := true;
            summaries.(i) <- fresh)
      results;
    (* then entry-state contributions, joined in index order *)
    Array.iter
      (fun res ->
        match res with
        | None -> ()
        | Some r ->
            List.iter
              (fun (callee, st) ->
                match Callgraph.fn_index cg callee with
                | None -> ()
                | Some j ->
                    let joined =
                      match entry_in.(j) with
                      | None -> st
                      | Some cur -> Lint.join_state cur st
                    in
                    (match entry_in.(j) with
                    | Some cur when Lint.equal_state cur joined -> ()
                    | _ ->
                        entry_in.(j) <- Some joined;
                        changed := true))
              (List.rev r.r_flows))
      results;
    !changed
  in
  (* A round whose merge changes nothing ran on the settled summaries
     and entry states, so its results are final. When [max_rounds] cuts
     the fixpoint off, the diagnostics come from one more round over
     the last summaries. *)
  let rec iterate () =
    let results = run_round () in
    if not (merge results) then results
    else if !rounds >= max_rounds then begin
      let final = run_round () in
      ignore (merge final);
      final
    end
    else iterate ()
  in
  let final = iterate () in
  let diags = ref [] in
  Array.iter
    (fun res ->
      match res with None -> () | Some r -> diags := List.rev_append r.r_diags !diags)
    final;
  { cg; summaries; diags = Diag.normalize !diags; rounds = !rounds }

(* ----- JSON ----- *)

let state_signed_json st =
  "["
  ^ String.concat ","
      (List.map
         (fun (i, k) -> Printf.sprintf {|{"reg":"x%d","key":"%s"}|} i (Diag.key_name k))
         (signed_regs st))
  ^ "]"

let summary_to_json (s : fn_summary) =
  let writes =
    let acc = ref [] in
    for i = 30 downto 0 do
      if s.writes.(i) then acc := Printf.sprintf {|"x%d"|} i :: !acc
    done;
    String.concat "," !acc
  in
  Printf.sprintf
    {|{"entry":"0x%Lx","name":%s,"returns":%b,"sp_net":%s,"writes":[%s],"signed_in":%s,"signed_out":%s,"reserved_clobbered":[%s]}|}
    s.entry
    (match s.name with
    | Some n -> Printf.sprintf {|"%s"|} (Camo_util.Json.escape n)
    | None -> "null")
    (s.exit <> None)
    (match s.sp_net with Some d -> string_of_int d | None -> "null")
    writes
    (match s.entry_in with Some st -> state_signed_json st | None -> "[]")
    (match s.exit with Some st -> state_signed_json st | None -> "[]")
    (String.concat ","
       (List.map
          (fun r -> Printf.sprintf {|"%s"|} (Insn.reg_name r))
          (clobbered_reserved s)))

let summaries_to_json r =
  Printf.sprintf {|{"rounds":%d,"functions":[%s]}|} r.rounds
    (String.concat "," (Array.to_list (Array.map summary_to_json r.summaries)))
