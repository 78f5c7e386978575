type t = int64

let all_ones = -1L

let mask width =
  if width < 0 || width > 64 then invalid_arg "Val64.mask";
  if width = 64 then all_ones else Int64.sub (Int64.shift_left 1L width) 1L

let extract ~lo ~width x =
  if lo < 0 || width < 0 || lo + width > 64 then invalid_arg "Val64.extract";
  Int64.logand (Int64.shift_right_logical x lo) (mask width)

let insert ~lo ~width ~field x =
  if lo < 0 || width < 0 || lo + width > 64 then invalid_arg "Val64.insert";
  let m = Int64.shift_left (mask width) lo in
  let f = Int64.shift_left (Int64.logand field (mask width)) lo in
  Int64.logor (Int64.logand x (Int64.lognot m)) f

let bit i x =
  if i < 0 || i > 63 then invalid_arg "Val64.bit";
  Int64.logand (Int64.shift_right_logical x i) 1L = 1L

let set_bit i b x =
  if i < 0 || i > 63 then invalid_arg "Val64.set_bit";
  let m = Int64.shift_left 1L i in
  if b then Int64.logor x m else Int64.logand x (Int64.lognot m)

let ror x n =
  let n = n land 63 in
  if n = 0 then x
  else Int64.logor (Int64.shift_right_logical x n) (Int64.shift_left x (64 - n))

let to_hex x = Printf.sprintf "%016Lx" x

let of_hex s =
  let s =
    if String.length s >= 2 && s.[0] = '0' && (s.[1] = 'x' || s.[1] = 'X')
    then String.sub s 2 (String.length s - 2)
    else s
  in
  if s = "" || String.length s > 16 then invalid_arg "Val64.of_hex";
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> invalid_arg "Val64.of_hex"
  in
  let rec go acc i =
    if i >= String.length s then acc
    else go (Int64.logor (Int64.shift_left acc 4) (Int64.of_int (digit s.[i]))) (i + 1)
  in
  go 0L 0

let nibble i x =
  if i < 0 || i > 15 then invalid_arg "Val64.nibble";
  Int64.to_int (extract ~lo:(4 * (15 - i)) ~width:4 x)

let set_nibble i v x =
  if i < 0 || i > 15 then invalid_arg "Val64.set_nibble";
  insert ~lo:(4 * (15 - i)) ~width:4 ~field:(Int64.of_int (v land 0xf)) x
