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
  cfgs : Cfg.t array;
  summaries : fn_summary array;
  diags : Diag.t list;
  rounds : int;
  analyses : int;
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

(* ----- per-image tables ----- *)

(* A resolved call or tail site: its byte offset from the function's
   entry, the function its target enters ([-1] when the target is no
   function entry), and whether an indirect branch there has a resolved
   target (what {!Callgraph.hints} reports). *)
type site = { off : int; callee : int; resolved : bool }

(* Everything one function's analysis and may-write set read besides
   the summaries and its entry state, built once per image: its CFG with
   its in-function hints, its sites in ascending offset order, and its
   write plan — the registers its own instructions define, and the
   functions whose summary writes its calls (BL, BLR, BLRA, SVC) add,
   [-1] standing for the AAPCS clobber of a call with no callee. *)
type plan = {
  entry : int64;
  cfg : Cfg.t;
  sites : site array;
  local_writes : bool array;
  call_writes : int array;  (** ascending, deduplicated *)
}

(* Index into [sites] (those of the function entered at [entry]) of the
   site at [va], or [-1]. *)
let site_at entry sites va =
  let off = Int64.to_int (Int64.sub va entry) in
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) lsr 1 in
      let o = sites.(mid).off in
      if o = off then mid else if o < off then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length sites)

(* The function the call or tail site at [va] enters, or [-1]. *)
let callee entry sites va =
  let k = site_at entry sites va in
  if k < 0 then -1 else sites.(k).callee

let plan cg fidx =
  let fn = cg.Callgraph.fns.(fidx) in
  let code = cg.Callgraph.code in
  let last_va = fst code.(fn.Callgraph.hi - 1) in
  let sites =
    Array.of_list
      (List.map
         (fun c ->
           {
             off = Int64.to_int (Int64.sub c.Callgraph.site fn.Callgraph.entry);
             callee =
               (match Option.bind c.Callgraph.target (Callgraph.fn_index cg) with
               | Some j -> j
               | None -> -1);
             resolved = c.Callgraph.kind <> Callgraph.Direct && c.Callgraph.target <> None;
           })
         fn.Callgraph.calls)
  in
  (* keep only hints that land inside this function: cross-function
     targets are call/tail edges, not CFG edges *)
  let hints va =
    List.filter
      (fun t -> Int64.compare t fn.Callgraph.entry >= 0 && Int64.compare t last_va <= 0)
      (Callgraph.hints cg va)
  in
  let local_writes = Array.make 31 false and calls = ref [] in
  for i = fn.Callgraph.lo to fn.Callgraph.hi - 1 do
    let va, insn = code.(i) in
    let defs, _ = Insn.defs_uses insn in
    List.iter (function Insn.R n -> local_writes.(n) <- true | _ -> ()) defs;
    match insn with
    | Insn.Bl _ | Insn.Blr _ | Insn.Blra _ | Insn.Svc _ ->
        calls := callee fn.Callgraph.entry sites va :: !calls
    | _ -> ()
  done;
  {
    entry = fn.Callgraph.entry;
    cfg = Cfg.build ~entries:[ fn.Callgraph.entry ] ~hints (Callgraph.code_of cg fidx);
    sites;
    local_writes;
    call_writes = Array.of_list (List.sort_uniq compare !calls);
  }

(* May-write set: local defs plus callee writes (caller-saved set and LR
   for calls without a usable summary). Flow-insensitive by design. *)
let compute_writes summaries p =
  let writes = Array.copy p.local_writes in
  Array.iter
    (fun j ->
      if j >= 0 && summaries.(j).exit <> None then
        Array.iteri (fun n w -> if w then writes.(n) <- true) summaries.(j).writes
      else begin
        for i = 0 to 18 do
          writes.(i) <- true
        done;
        writes.(30) <- true
      end)
    p.call_writes;
  writes

(* ----- per-function analysis ----- *)

type fn_result = {
  r_exit : Lint.state option;
  r_flows : (int * Lint.state) list;  (** callee index, contributed state *)
  r_diags : Diag.t list;
}

(* One analysis of function [fidx] from entry state [entry_st] against
   frozen [summaries]: [Lint.analyze] with callee summaries applied at
   calls, collecting exit states and caller->callee flows (calls and
   resolved tail calls) from its reporting pass. A pure function of
   [entry_st] and the exit, writes and sp_net of the summaries its calls
   apply. *)
let analyze_fn ~policy ~plans ~summaries fidx entry_st =
  let p = plans.(fidx) in
  let callee = callee p.entry p.sites in
  let call va _insn st =
    let j = callee va in
    j >= 0 && apply_summary summaries.(j) st
  in
  let indirect_resolved va =
    let k = site_at p.entry p.sites va in
    k >= 0 && p.sites.(k).resolved
  in
  let flows = ref [] and exit = ref None in
  let visit va insn (st : Lint.state) =
    match insn with
    | Insn.Ret | Insn.Reta _ ->
        exit := Some (match !exit with None -> Lint.copy st | Some e -> Lint.join_state e st)
    | Insn.Bl _ | Insn.Blr _ | Insn.Blra _ | Insn.B _ | Insn.Br _ | Insn.Bra _ ->
        let j = callee va in
        if j >= 0 then flows := (j, to_callee_frame st.Lint.delta st) :: !flows
    | _ -> ()
  in
  let r_diags = Lint.analyze policy p.cfg ~entry:entry_st ~call ~indirect_resolved ~visit in
  { r_exit = !exit; r_flows = !flows; r_diags }

(* ----- whole-image driver ----- *)

let max_rounds = 32

let analyze_image ?(par = Lint.seq_par) ?(symbols = []) ~policy code =
  let cg = Callgraph.build ~symbols code in
  let nf = Array.length cg.Callgraph.fns in
  let plans = Array.init nf (plan cg) in
  (* [callers.(j)]: the functions with a resolved edge into [j] — every
     function whose analysis applies [j]'s summary, and its tail callers *)
  let callers = Callgraph.callers cg in
  let entry_in = Array.make nf None in
  Array.iteri (fun i l -> if l = [] then entry_in.(i) <- Some (Lint.entry_state ())) callers;
  List.iter
    (fun (_, va) ->
      match Callgraph.fn_index cg va with
      | Some i -> entry_in.(i) <- Some (Lint.entry_state ())
      | None -> ())
    symbols;
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
  (* Change-driven rounds: [results.(i)] is function [i]'s last
     analysis, rerun only while [dirty.(i)] — set by a merge that moved
     its entry state or a callee's exit, writes or sp_net, the only
     inputs of [analyze_fn]. Both arrays are written between rounds, on
     this domain, and the merge still reads every result. *)
  let results = Array.make nf None in
  let dirty = Array.make nf true in
  let rounds = ref 0 and analyses = ref 0 in
  let run_round () =
    incr rounds;
    let todo =
      Array.of_list
        (List.filter (fun i -> dirty.(i) && entry_in.(i) <> None) (List.init nf Fun.id))
    in
    let fresh =
      par.Lint.pmap ~jobs:(Array.length todo) (fun k ->
          let i = todo.(k) in
          analyze_fn ~policy ~plans ~summaries i (Option.get entry_in.(i)))
    in
    analyses := !analyses + Array.length todo;
    Array.iteri (fun k i -> results.(i) <- Some fresh.(k)) todo;
    Array.fill dirty 0 nf false
  in
  let merge () =
    let changed = ref false in
    (* summaries first (frozen lookup -> next round sees all of them) *)
    Array.iteri
      (fun i res ->
        match res with
        | None -> ()
        | Some r ->
            let writes = compute_writes summaries plans.(i) in
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
            if not same then begin
              changed := true;
              List.iter (fun c -> dirty.(c) <- true) callers.(i)
            end;
            summaries.(i) <- fresh)
      results;
    (* then entry-state contributions, joined in index order *)
    Array.iter
      (fun res ->
        match res with
        | None -> ()
        | Some r ->
            List.iter
              (fun (j, st) ->
                let joined =
                  match entry_in.(j) with
                  | None -> st
                  | Some cur -> Lint.join_state cur st
                in
                match entry_in.(j) with
                | Some cur when Lint.equal_state cur joined -> ()
                | _ ->
                    entry_in.(j) <- Some joined;
                    dirty.(j) <- true;
                    changed := true)
              (List.rev r.r_flows))
      results;
    !changed
  in
  (* A round whose merge changes nothing ran on the settled summaries
     and entry states, so its results are final. When [max_rounds] cuts
     the fixpoint off, the diagnostics come from one more round over
     the last summaries. *)
  let rec iterate () =
    run_round ();
    if merge () then
      if !rounds >= max_rounds then begin
        run_round ();
        ignore (merge ())
      end
      else iterate ()
  in
  iterate ();
  let diags = ref [] in
  Array.iter
    (fun res ->
      match res with None -> () | Some r -> diags := List.rev_append r.r_diags !diags)
    results;
  {
    cg;
    cfgs = Array.map (fun p -> p.cfg) plans;
    summaries;
    diags = Diag.normalize !diags;
    rounds = !rounds;
    analyses = !analyses;
  }

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
