(* Reference QARMA-64: the specification evaluated one 4-bit cell at a
   time, with every layer a separate function over [int64]. It is slow
   and obviously shaped like the paper's description, which makes it the
   oracle the byte-sliced [Qarma.Block.encrypt] is checked against. It
   also provides decryption, which the library does not need. *)

module Val64 = Camo_util.Val64

type sbox = Qarma.Block.sbox = Sigma0 | Sigma1 | Sigma2

(* ---- cell-array primitives ---- *)

let sigma0 = [| 0; 14; 2; 10; 9; 15; 8; 11; 6; 4; 3; 7; 13; 12; 1; 5 |]
let sigma1 = [| 10; 13; 14; 6; 15; 7; 3; 5; 9; 8; 0; 12; 11; 1; 2; 4 |]
let sigma2 = [| 11; 6; 8; 15; 12; 0; 9; 14; 3; 7; 4; 5; 13; 2; 1; 10 |]

let invert_table t =
  let inv = Array.make 16 0 in
  Array.iteri (fun i v -> inv.(v) <- i) t;
  inv

let sigma0_inv = invert_table sigma0
let sigma1_inv = invert_table sigma1
let sigma2_inv = invert_table sigma2

let table_of = function
  | Sigma0 -> sigma0
  | Sigma1 -> sigma1
  | Sigma2 -> sigma2

let table_inv_of = function
  | Sigma0 -> sigma0_inv
  | Sigma1 -> sigma1_inv
  | Sigma2 -> sigma2_inv

let map_cells f x =
  let rec go acc i =
    if i > 15 then acc else go (Val64.set_nibble i (f i (Val64.nibble i x)) acc) (i + 1)
  in
  go 0L 0

let apply_table t x = map_cells (fun _ v -> t.(v)) x
let sub_cells sigma x = apply_table (table_of sigma) x
let sub_cells_inv sigma x = apply_table (table_inv_of sigma) x

(* tau and h are the cell permutations of the QARMA-64 specification. *)
let tau = [| 0; 11; 6; 13; 10; 1; 12; 7; 5; 14; 3; 8; 15; 4; 9; 2 |]
let tau_inv = invert_table tau
let h = [| 6; 5; 14; 15; 0; 1; 2; 3; 7; 12; 13; 4; 8; 9; 10; 11 |]
let h_inv = invert_table h

let permute p x = map_cells (fun i _ -> Val64.nibble p.(i) x) x
let shuffle x = permute tau x
let shuffle_inv x = permute tau_inv x

(* M = circ(0, rho^1, rho^2, rho^1): entry (r, c) gives the left-rotation
   amount applied to the input cell, 0 meaning the zero coefficient. *)
let m_matrix = [| 0; 1; 2; 1; 1; 0; 1; 2; 2; 1; 0; 1; 1; 2; 1; 0 |]

let rot4 a b = ((a lsl b) land 0xf) lor (a lsr (4 - b))

let mix_columns x =
  let out = ref 0L in
  for row = 0 to 3 do
    for col = 0 to 3 do
      let acc = ref 0 in
      for j = 0 to 3 do
        let b = m_matrix.((4 * row) + j) in
        if b <> 0 then acc := !acc lxor rot4 (Val64.nibble ((4 * j) + col) x) b
      done;
      out := Val64.set_nibble ((4 * row) + col) !acc !out
    done
  done;
  !out

(* The tweak-schedule LFSR maps (b3, b2, b1, b0) to (b0 xor b1, b3, b2, b1)
   and is applied to cells 0, 1, 3 and 4 after the h permutation. *)
let lfsr x = (((x lxor (x lsr 1)) land 1) lsl 3) lor (x lsr 1)
let lfsr_inv x = ((x lsl 1) land 0xe) lor (((x lsr 3) lxor x) land 1)
let lfsr_cells = [ 0; 1; 3; 4 ]

let on_lfsr_cells f x =
  List.fold_left (fun acc i -> Val64.set_nibble i (f (Val64.nibble i acc)) acc) x lfsr_cells

let tweak_update x = on_lfsr_cells lfsr (permute h x)
let tweak_update_inv x = permute h_inv (on_lfsr_cells lfsr_inv x)

(* ---- rounds ---- *)

let alpha = 0xC0AC29B7C97C50DDL

let round_constants =
  [|
    0x0000000000000000L;
    0x13198A2E03707344L;
    0xA4093822299F31D0L;
    0x082EFA98EC4E6C89L;
    0x452821E638D01377L;
    0xBE5466CF34E90C6CL;
    0x3F84D5B5B5470917L;
    0x9216D5D98979FB1BL;
  |]

(* The orthomorphism o deriving the second whitening key half. *)
let derive_w1 w0 = Int64.logxor (Val64.ror w0 1) (Int64.shift_right_logical w0 63)

(* One forward round: tweakey addition, then (except in the short first
   round) tau and MixColumns, then the S-box layer. *)
let forward sbox is tk ~full =
  let is = Int64.logxor is tk in
  let is = if full then mix_columns (shuffle is) else is in
  sub_cells sbox is

(* Inverse of [forward]. *)
let backward sbox is tk ~full =
  let is = sub_cells_inv sbox is in
  let is = if full then shuffle_inv (mix_columns is) else is in
  Int64.logxor is tk

(* The keyed pseudo-reflector: tau, M, central key addition, tau inverse. *)
let reflect is k1 =
  let is = shuffle is in
  let is = mix_columns is in
  let is = Int64.logxor is k1 in
  shuffle_inv is

(* Tweak values used by successive rounds: index 0 .. rounds. *)
let tweak_schedule ~rounds tweak =
  let sched = Array.make (rounds + 1) tweak in
  for i = 1 to rounds do
    sched.(i) <- tweak_update sched.(i - 1)
  done;
  sched

let encrypt ~sbox ~rounds ~(key : Qarma.Block.key) ~tweak plaintext =
  let w1 = derive_w1 key.w0 in
  let k1 = key.k0 in
  let sched = tweak_schedule ~rounds tweak in
  let is = ref (Int64.logxor plaintext key.w0) in
  for i = 0 to rounds - 1 do
    let tk = Int64.logxor (Int64.logxor key.k0 sched.(i)) round_constants.(i) in
    is := forward sbox !is tk ~full:(i <> 0)
  done;
  is := forward sbox !is (Int64.logxor w1 sched.(rounds)) ~full:true;
  is := reflect !is k1;
  is := backward sbox !is (Int64.logxor key.w0 sched.(rounds)) ~full:true;
  for i = rounds - 1 downto 0 do
    let tk =
      Int64.logxor (Int64.logxor (Int64.logxor key.k0 sched.(i)) round_constants.(i)) alpha
    in
    is := backward sbox !is tk ~full:(i <> 0)
  done;
  Int64.logxor !is w1

(* Decryption runs the encryption data path in reverse; the inverse of the
   reflector with central key k1 is the reflector with central key M * k1. *)
let decrypt ~sbox ~rounds ~(key : Qarma.Block.key) ~tweak ciphertext =
  let w1 = derive_w1 key.w0 in
  let k1_dec = mix_columns key.k0 in
  let sched = tweak_schedule ~rounds tweak in
  let is = ref (Int64.logxor ciphertext w1) in
  for i = 0 to rounds - 1 do
    let tk =
      Int64.logxor (Int64.logxor (Int64.logxor key.k0 sched.(i)) round_constants.(i)) alpha
    in
    is := forward sbox !is tk ~full:(i <> 0)
  done;
  is := forward sbox !is (Int64.logxor key.w0 sched.(rounds)) ~full:true;
  is := reflect !is k1_dec;
  is := backward sbox !is (Int64.logxor w1 sched.(rounds)) ~full:true;
  for i = rounds - 1 downto 0 do
    let tk = Int64.logxor (Int64.logxor key.k0 sched.(i)) round_constants.(i) in
    is := backward sbox !is tk ~full:(i <> 0)
  done;
  Int64.logxor !is key.w0
