open Aarch64

type edge_kind = Direct | Indirect | Tail

type call = { site : int64; target : int64 option; kind : edge_kind }

type fn = {
  entry : int64;
  name : string option;
  lo : int;
  hi : int;
  calls : call list;
}

type t = { code : (int64 * Insn.t) array; fns : fn array }

(* Forward constant sweep over [lo, hi): [found i v] for each indirect
   branch at index [i] whose register holds the absolute address [v].
   Best-effort — straight-line only; any unrecognized def kills the
   register, calls kill the caller-saved set. Sufficient for the ADR /
   MOVZ+MOVK materialization idioms the instrumentation emits. *)
let const_sweep code lo hi found =
  let known = Array.make 31 false and value = Array.make 31 0L in
  let kill r = match r with Insn.R n -> known.(n) <- false | _ -> () in
  let setk r v =
    match r with
    | Insn.R n ->
        known.(n) <- true;
        value.(n) <- v
    | _ -> ()
  in
  let getk r = match r with Insn.R n when known.(n) -> Some value.(n) | _ -> None in
  for i = lo to hi - 1 do
    let _, insn = code.(i) in
    (match insn with
    | Insn.Blr rn | Insn.Br rn | Insn.Blra (_, rn, _) | Insn.Bra (_, rn, _) -> (
        match getk rn with Some v -> found i v | None -> ())
    | _ -> ());
    match insn with
    | Insn.Adr (rd, a) -> setk rd a
    | Insn.Movz (rd, imm, sh) -> setk rd (Int64.shift_left (Int64.of_int imm) sh)
    | Insn.Movk (rd, imm, sh) -> (
        match getk rd with
        | Some v ->
            let mask = Int64.lognot (Int64.shift_left 0xFFFFL sh) in
            setk rd
              (Int64.logor (Int64.logand v mask)
                 (Int64.shift_left (Int64.of_int imm) sh))
        | None -> ())
    | Insn.Mov (rd, rn) -> (
        match getk rn with Some v -> setk rd v | None -> kill rd)
    | Insn.Bl _ | Insn.Blr _ | Insn.Blra _ | Insn.Svc _ ->
        Array.fill known 0 19 false;
        known.(30) <- false
    | insn ->
        let defs, _ = Insn.defs_uses insn in
        List.iter kill defs
  done

let build ?(symbols = []) code =
  let n = Array.length code in
  (* Pass 1: entries from symbols and BL targets. *)
  let is_entry = Array.make n false in
  let add_entry va =
    let i = Cfg.index_of code va in
    if i >= 0 then is_entry.(i) <- true
  in
  if n > 0 then is_entry.(0) <- true;
  List.iter (fun (_, va) -> add_entry va) symbols;
  Array.iter (function _, Insn.Bl t -> add_entry t | _ -> ()) code;
  (* Pass 2: resolve indirect targets per provisional function, then
     re-partition with resolved targets as entries too. Two rounds are
     enough in practice: a target discovered in round 2 rarely changes
     resolution, and determinism matters more than closure here. *)
  let partition () =
    let starts = ref [] in
    for i = n - 1 downto 0 do
      if is_entry.(i) then starts := i :: !starts
    done;
    Array.of_list !starts
  in
  let resolved = Array.make n None in
  let resolve_round () =
    let starts = partition () in
    let nf = Array.length starts in
    for f = 0 to nf - 1 do
      let lo = starts.(f) and hi = if f + 1 < nf then starts.(f + 1) else n in
      const_sweep code lo hi (fun i target ->
          if Cfg.index_of code target >= 0 then begin
            resolved.(i) <- Some target;
            match snd code.(i) with
            | Insn.Blr _ | Insn.Blra _ -> add_entry target
            | _ -> ()
          end)
    done
  in
  resolve_round ();
  resolve_round ();
  let starts = partition () in
  let nf = Array.length starts in
  let name_of =
    let by_va = Hashtbl.create 16 in
    List.iter
      (fun (name, va) ->
        match Hashtbl.find_opt by_va va with
        | Some prev when String.compare prev name <= 0 -> ()
        | _ -> Hashtbl.replace by_va va name)
      symbols;
    fun va -> Hashtbl.find_opt by_va va
  in
  let fns =
    Array.init nf (fun f ->
        let lo = starts.(f) and hi = if f + 1 < nf then starts.(f + 1) else n in
        let entry = fst code.(lo) in
        (* one record per site, gathered in ascending site order *)
        let calls = ref [] in
        for i = hi - 1 downto lo do
          let va, insn = code.(i) in
          let r = resolved.(i) in
          match insn with
          | Insn.Bl t -> calls := { site = va; target = Some t; kind = Direct } :: !calls
          | Insn.Blr _ | Insn.Blra _ ->
              calls := { site = va; target = r; kind = Indirect } :: !calls
          | Insn.Br _ | Insn.Bra _ ->
              calls := { site = va; target = r; kind = Tail } :: !calls
          | Insn.B tgt
            when Int64.compare tgt entry < 0
                 || Int64.compare tgt (fst code.(hi - 1)) > 0 ->
              (* direct branch leaving the function: a tail call *)
              calls := { site = va; target = Some tgt; kind = Tail } :: !calls
          | _ -> ()
        done;
        { entry; name = name_of entry; lo; hi; calls = !calls })
  in
  { code; fns }

let fn_index t va =
  let rec go lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      let c = Int64.compare t.fns.(mid).entry va in
      if c = 0 then Some mid else if c < 0 then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length t.fns)

let fn_of_va t va =
  let nf = Array.length t.fns in
  let rec go lo hi =
    (* last fn with entry <= va *)
    if lo >= hi then lo - 1
    else
      let mid = (lo + hi) / 2 in
      if Int64.compare t.fns.(mid).entry va <= 0 then go (mid + 1) hi else go lo mid
  in
  let i = go 0 nf in
  if i < 0 || i >= nf then None
  else
    let f = t.fns.(i) in
    let last_va = fst t.code.(f.hi - 1) in
    if Int64.compare va f.entry >= 0 && Int64.compare va last_va <= 0 then Some i
    else None

let code_of t i =
  let f = t.fns.(i) in
  Array.sub t.code f.lo (f.hi - f.lo)

let hints t va =
  match fn_of_va t va with
  | None -> []
  | Some i ->
      List.filter_map
        (fun c ->
          if c.site = va && c.kind <> Direct then c.target else None)
        t.fns.(i).calls

let callers t =
  let acc = Array.make (Array.length t.fns) [] in
  for j = Array.length t.fns - 1 downto 0 do
    List.iter
      (fun c ->
        match Option.bind c.target (fn_index t) with
        | Some i -> (
            match acc.(i) with k :: _ when k = j -> () | l -> acc.(i) <- j :: l)
        | None -> ())
      t.fns.(j).calls
  done;
  acc

let unresolved_count t =
  Array.fold_left
    (fun acc f ->
      acc + List.length (List.filter (fun c -> c.target = None) f.calls))
    0 t.fns

let kind_name = function Direct -> "direct" | Indirect -> "indirect" | Tail -> "tail"

let call_to_json c =
  Printf.sprintf {|{"site":"0x%Lx","target":%s,"kind":"%s"}|} c.site
    (match c.target with Some t -> Printf.sprintf {|"0x%Lx"|} t | None -> "null")
    (kind_name c.kind)

let fn_to_json f =
  Printf.sprintf {|{"entry":"0x%Lx","name":%s,"insns":%d,"calls":[%s]}|} f.entry
    (match f.name with
    | Some n -> Printf.sprintf {|"%s"|} (Camo_util.Json.escape n)
    | None -> "null")
    (f.hi - f.lo)
    (String.concat "," (List.map call_to_json f.calls))

let to_json t =
  Printf.sprintf {|{"functions":%d,"unresolved_indirect":%d,"graph":[%s]}|}
    (Array.length t.fns) (unresolved_count t)
    (String.concat "," (List.map fn_to_json (Array.to_list t.fns)))
