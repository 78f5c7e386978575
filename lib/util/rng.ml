type t = { mutable state : int64 }

let create seed = { state = seed }

(* splitmix64, Vigna 2015; passes BigCrush and is the canonical seeding
   generator for the xoshiro family. *)
let next t =
  t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_in t bound =
  if bound <= 0 then invalid_arg "Rng.next_in";
  Int64.to_int (Int64.unsigned_rem (next t) (Int64.of_int bound))

let key128 t =
  let hi = next t in
  let lo = next t in
  (hi, lo)

let state t = t.state
let set_state t s = t.state <- s
