open Aarch64

type block = {
  start : int64;
  insns : (int64 * Insn.t) array;
  succs : int list;
}

type t = { blocks : block array; entries : int list }

let is_terminator = function
  | Insn.B _ | Insn.Bl _ | Insn.Br _ | Insn.Blr _ | Insn.Ret | Insn.Cbz _ | Insn.Cbnz _
  | Insn.Bcond _ | Insn.Blra _ | Insn.Bra _ | Insn.Reta _ | Insn.Svc _ | Insn.Eret
  | Insn.Brk _ | Insn.Hlt _ ->
      true
  | _ -> false

(* Explicit edge targets and whether control can also fall through. BL's
   target is an entry, not an edge (see mli). *)
let flow = function
  | Insn.B a -> ([ a ], false)
  | Insn.Cbz (_, a) | Insn.Cbnz (_, a) | Insn.Bcond (_, a) -> ([ a ], true)
  | Insn.Bl _ | Insn.Blr _ | Insn.Blra _ | Insn.Svc _ -> ([], true)
  | Insn.Br _ | Insn.Bra _ | Insn.Ret | Insn.Reta _ | Insn.Eret | Insn.Brk _ | Insn.Hlt _
    ->
      ([], false)
  | _ -> ([], true)

(* [flow] plus resolved-target hints: a BR/BRA with hints becomes a
   real multi-way edge; a BLR/BLRA keeps call semantics (hints become
   entries, handled by the caller). *)
let flow_hinted hints va insn =
  let targets, fall = flow insn in
  match insn with
  | Insn.Br _ | Insn.Bra _ -> (targets @ hints va, fall)
  | _ -> (targets, fall)

let index_of code va =
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) lsr 1 in
      let c = Int64.compare (fst code.(mid)) va in
      if c = 0 then mid else if c < 0 then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length code)

let build ?(entries = []) ?(hints = fun _ -> []) code =
  let n = Array.length code in
  let leader = Array.make (max n 1) false in
  if n > 0 then leader.(0) <- true;
  let is_entry = Array.make n false in
  let add_entry va =
    let j = index_of code va in
    if j >= 0 then is_entry.(j) <- true
  in
  List.iter add_entry entries;
  Array.iteri
    (fun i (va, insn) ->
      (if i + 1 < n then
         let next_va, _ = code.(i + 1) in
         if is_terminator insn || Int64.add va 4L <> next_va then leader.(i + 1) <- true);
      let targets, _ = flow_hinted hints va insn in
      List.iter
        (fun t ->
          let j = index_of code t in
          if j >= 0 then leader.(j) <- true)
        targets;
      match insn with
      | Insn.Bl t -> add_entry t
      | Insn.Blr _ | Insn.Blra _ -> List.iter add_entry (hints va)
      | _ -> ())
    code;
  Array.iteri (fun j e -> if e then leader.(j) <- true) is_entry;
  let starts = ref [] in
  for i = n - 1 downto 0 do
    if leader.(i) then starts := i :: !starts
  done;
  let starts = Array.of_list !starts in
  let nb = Array.length starts in
  (* block number of each leader's index, [-1] inside a block *)
  let block_of = Array.make n (-1) in
  Array.iteri (fun b s -> block_of.(s) <- b) starts;
  let block_at va =
    let j = index_of code va in
    if j >= 0 && block_of.(j) >= 0 then Some block_of.(j) else None
  in
  let blocks =
    Array.init nb (fun b ->
        let s = starts.(b) in
        let e = if b + 1 < nb then starts.(b + 1) else n in
        let insns = Array.sub code s (e - s) in
        let last_va, last = insns.(Array.length insns - 1) in
        let targets, fall = flow_hinted hints last_va last in
        let falls = if is_terminator last then fall else true in
        let succs =
          List.filter_map block_at
            (if falls then Int64.add last_va 4L :: targets else targets)
        in
        { start = fst code.(s); insns; succs = List.sort_uniq compare succs })
  in
  let entry_blocks = ref [] in
  for j = n - 1 downto 0 do
    if is_entry.(j) then entry_blocks := block_of.(j) :: !entry_blocks
  done;
  { blocks; entries = !entry_blocks }

let reachable t b =
  let seen = Array.make (Array.length t.blocks) false in
  let rec go i =
    if not seen.(i) then begin
      seen.(i) <- true;
      List.iter go t.blocks.(i).succs
    end
  in
  if Array.length seen > 0 then go b;
  seen
