type origin = Baseline | Cfi_sign | Cfi_auth | Cfi_modifier | Cfi_key_switch

let origin_count = 5

let origin_index = function
  | Baseline -> 0
  | Cfi_sign -> 1
  | Cfi_auth -> 2
  | Cfi_modifier -> 3
  | Cfi_key_switch -> 4

let origin_name = function
  | Baseline -> "baseline"
  | Cfi_sign -> "cfi-sign"
  | Cfi_auth -> "cfi-auth"
  | Cfi_modifier -> "cfi-modifier"
  | Cfi_key_switch -> "cfi-key-switch"

let all_origins = [ Baseline; Cfi_sign; Cfi_auth; Cfi_modifier; Cfi_key_switch ]
let is_cfi = function Baseline -> false | _ -> true

type t = { buckets : (int64, int64 array) Hashtbl.t }

let create () = { buckets = Hashtbl.create 1024 }
let reset t = Hashtbl.reset t.buckets

let record t ~pc ~origin ~cycles =
  let row =
    match Hashtbl.find_opt t.buckets pc with
    | Some row -> row
    | None ->
        let row = Array.make origin_count 0L in
        Hashtbl.add t.buckets pc row;
        row
  in
  let i = origin_index origin in
  row.(i) <- Int64.add row.(i) (Int64.of_int cycles)

type captured = { c_buckets : (int64, int64 array) Hashtbl.t }

let capture t =
  let c = Hashtbl.create (Hashtbl.length t.buckets) in
  Hashtbl.iter (fun pc row -> Hashtbl.replace c pc (Array.copy row)) t.buckets;
  { c_buckets = c }

let restore t c =
  Hashtbl.reset t.buckets;
  Hashtbl.iter
    (fun pc row -> Hashtbl.replace t.buckets pc (Array.copy row))
    c.c_buckets

let by_origin t =
  let sums = Array.make origin_count 0L in
  Hashtbl.iter
    (fun _ row ->
      Array.iteri (fun i v -> sums.(i) <- Int64.add sums.(i) v) row)
    t.buckets;
  List.map (fun o -> (o, sums.(origin_index o))) all_origins

type sym = { sym_name : string; lo : int64; hi : int64 }

let ranges ~symbols ~limit =
  let sorted =
    List.sort (fun (_, a) (_, b) -> Int64.compare a b) symbols
  in
  let rec build = function
    | [] -> []
    | [ (name, lo) ] -> [ { sym_name = name; lo; hi = limit } ]
    | (name, lo) :: ((_, next) :: _ as rest) ->
        { sym_name = name; lo; hi = next } :: build rest
  in
  build sorted

let lookup symbols pc =
  let rec go = function
    | [] -> "[unknown]"
    | { sym_name; lo; hi } :: rest ->
        if pc >= lo && pc < hi then sym_name else go rest
  in
  go symbols

type line = { line_symbol : string; line_origin : origin; line_cycles : int64 }

let flat t ~symbols =
  let tbl : (string * int, int64 ref) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.iter
    (fun pc row ->
      let sym = lookup symbols pc in
      Array.iteri
        (fun i v ->
          if v <> 0L then
            match Hashtbl.find_opt tbl (sym, i) with
            | Some r -> r := Int64.add !r v
            | None -> Hashtbl.add tbl (sym, i) (ref v))
        row)
    t.buckets;
  Hashtbl.fold
    (fun (sym, i) r acc ->
      {
        line_symbol = sym;
        line_origin = List.nth all_origins i;
        line_cycles = !r;
      }
      :: acc)
    tbl []
  |> List.sort (fun a b ->
         match Int64.compare b.line_cycles a.line_cycles with
         | 0 -> (
             match compare a.line_symbol b.line_symbol with
             | 0 ->
                 compare (origin_index a.line_origin)
                   (origin_index b.line_origin)
             | c -> c)
         | c -> c)

let folded t ~symbols =
  flat t ~symbols
  |> List.map (fun l ->
         Printf.sprintf "%s;%s %Ld" l.line_symbol (origin_name l.line_origin)
           l.line_cycles)
  |> List.sort compare |> String.concat "\n"
