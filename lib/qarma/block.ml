type sbox = Sigma0 | Sigma1 | Sigma2
type key = { w0 : int64; k0 : int64 }

(* ---- the specification's constants ---- *)

let sigma0 = [| 0; 14; 2; 10; 9; 15; 8; 11; 6; 4; 3; 7; 13; 12; 1; 5 |]
let sigma1 = [| 10; 13; 14; 6; 15; 7; 3; 5; 9; 8; 0; 12; 11; 1; 2; 4 |]
let sigma2 = [| 11; 6; 8; 15; 12; 0; 9; 14; 3; 7; 4; 5; 13; 2; 1; 10 |]

let invert p =
  let inv = Array.make 16 0 in
  Array.iteri (fun i v -> inv.(v) <- i) p;
  inv

(* tau and h are cell permutations: output cell i takes input cell p.(i). *)
let tau = [| 0; 11; 6; 13; 10; 1; 12; 7; 5; 14; 3; 8; 15; 4; 9; 2 |]
let tau_inv = invert tau
let h = [| 6; 5; 14; 15; 0; 1; 2; 3; 7; 12; 13; 4; 8; 9; 10; 11 |]

(* M = circ(0, rho^1, rho^2, rho^1): entry (r, c) gives the left-rotation
   amount applied to the input cell, 0 meaning the zero coefficient. *)
let m_matrix = [| 0; 1; 2; 1; 1; 0; 1; 2; 2; 1; 0; 1; 1; 2; 1; 0 |]

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

(* ---- linear layers on a 16-cell array; cell 0 is the most significant
   nibble of the block ---- *)

let permute p cells = Array.init 16 (fun i -> cells.(p.(i)))

let mix_columns cells =
  let rot4 a b = ((a lsl b) land 0xf) lor (a lsr (4 - b)) in
  Array.init 16 (fun i ->
      let row = i / 4 and col = i mod 4 in
      let acc = ref 0 in
      for j = 0 to 3 do
        let b = m_matrix.((4 * row) + j) in
        if b <> 0 then acc := !acc lxor rot4 cells.((4 * j) + col) b
      done;
      !acc)

(* The tweak-schedule LFSR maps (b3, b2, b1, b0) to (b0 xor b1, b3, b2, b1)
   and is applied to cells 0, 1, 3 and 4 after the h permutation. *)
let tweak_update cells =
  let lfsr x = (((x lxor (x lsr 1)) land 1) lsl 3) lor (x lsr 1) in
  let out = permute h cells in
  List.iter (fun i -> out.(i) <- lfsr out.(i)) [ 0; 1; 3; 4 ];
  out

(* ---- byte-sliced tables ----

   Every layer the round function applies is either cell-wise (an S-box)
   or GF(2)-linear (tau, M, h with the LFSR), and a cell-wise map followed
   by a linear one distributes over the eight bytes of the block. A layer
   is therefore the XOR of eight lookups, one per input byte, in a table
   whose entry 256 j + b is the layer applied to byte value b at byte j
   (the two cells it holds) with every other cell zero.

   The tables are built when the module is initialised, before any other
   domain can exist, and never written again. They live in bigarrays,
   outside the OCaml heap: 12 tables of 16 KiB inside the heap add to the
   work of every forced major collection, and on OCaml 5.1 that work
   delays the collections that follow. *)

type table = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

let word_of_cells cells =
  Array.fold_left (fun acc v -> Int64.logor (Int64.shift_left acc 4) (Int64.of_int v)) 0L cells

(* [table ~sbox linear] tabulates [linear] after the cell-wise [sbox]. *)
let table ~sbox linear : table =
  (* contribution.(c).(v): [linear] of a block whose only nonzero cell
     is c, holding v *)
  let contribution =
    Array.init 16 (fun c ->
        Array.init 16 (fun v ->
            let cells = Array.make 16 0 in
            cells.(c) <- v;
            word_of_cells (linear cells)))
  in
  let t = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout (8 * 256) in
  for j = 0 to 7 do
    (* byte j holds cells 14 - 2j (high nibble) and 15 - 2j *)
    let hi = contribution.(14 - (2 * j)) and lo = contribution.(15 - (2 * j)) in
    for b = 0 to 255 do
      t.{(j lsl 8) lor b} <- Int64.logxor hi.(sbox.(b lsr 4)) lo.(sbox.(b land 0xf))
    done
  done;
  t

let identity = Array.init 16 Fun.id
let mix_tau_table = table ~sbox:identity (fun c -> mix_columns (permute tau c))
let tau_inv_table = table ~sbox:identity (permute tau_inv)
let tweak_table = table ~sbox:identity tweak_update

type sbox_tables = {
  sub : table;  (** S *)
  sub_inv : table;  (** S^-1 *)
  back : table;  (** tau^-1 . M . S^-1: one full backward round *)
}

let sbox_tables sigma =
  let inv = invert sigma in
  {
    sub = table ~sbox:sigma Fun.id;
    sub_inv = table ~sbox:inv Fun.id;
    back = table ~sbox:inv (fun c -> permute tau_inv (mix_columns c));
  }

let sigma0_tables = sbox_tables sigma0
let sigma1_tables = sbox_tables sigma1
let sigma2_tables = sbox_tables sigma2

(* One layer: the XOR of the eight byte lookups. The accesses must name
   [Bigarray.Array1.unsafe_get] directly to compile to plain loads. *)
let[@inline always] layer (tbl : table) x =
  let v = Int64.to_int x in
  let top = Int64.to_int (Int64.shift_right_logical x 56) in
  Int64.logxor
    (Int64.logxor
       (Int64.logxor
          (Bigarray.Array1.unsafe_get tbl (v land 0xff))
          (Bigarray.Array1.unsafe_get tbl (0x100 lor ((v lsr 8) land 0xff))))
       (Int64.logxor
          (Bigarray.Array1.unsafe_get tbl (0x200 lor ((v lsr 16) land 0xff)))
          (Bigarray.Array1.unsafe_get tbl (0x300 lor ((v lsr 24) land 0xff)))))
    (Int64.logxor
       (Int64.logxor
          (Bigarray.Array1.unsafe_get tbl (0x400 lor ((v lsr 32) land 0xff)))
          (Bigarray.Array1.unsafe_get tbl (0x500 lor ((v lsr 40) land 0xff))))
       (Int64.logxor
          (Bigarray.Array1.unsafe_get tbl (0x600 lor ((v lsr 48) land 0xff)))
          (Bigarray.Array1.unsafe_get tbl (0x700 lor top))))

external bytes_get64u : bytes -> int -> int64 = "%caml_bytes_get64u"
external bytes_set64u : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"

(* ---- the cipher ---- *)

type t = { rounds : int; tables : sbox_tables }

let create ?(sbox = Sigma1) ?(rounds = 6) () =
  if rounds < 1 || rounds > Array.length round_constants then
    invalid_arg "Qarma.Block.create: rounds";
  let tables =
    match sbox with
    | Sigma0 -> sigma0_tables
    | Sigma1 -> sigma1_tables
    | Sigma2 -> sigma2_tables
  in
  { rounds; tables }

let key_of_pair (hi, lo) = { w0 = hi; k0 = lo }

(* The forward rounds apply tweakey addition, then (except in the short
   first round) tau and M, then S; the backward rounds invert them with
   alpha folded into the tweakey; the pseudo-reflector is tau, M, the
   central key k0, tau inverse. *)
let encrypt t ~key ~tweak plaintext =
  let { rounds; tables = { sub; sub_inv; back } } = t in
  let w0 = key.w0 and k0 = key.k0 in
  (* the orthomorphism deriving the second whitening key half *)
  let w1 =
    Int64.logxor
      (Int64.logor (Int64.shift_right_logical w0 1) (Int64.shift_left w0 63))
      (Int64.shift_right_logical w0 63)
  in
  (* tweakey i = k0 xor tweak_i xor c_i, for rounds 0 .. rounds-1 *)
  let tweakeys = Bytes.create (8 * rounds) in
  let tw = ref tweak in
  for i = 0 to rounds - 1 do
    bytes_set64u tweakeys (8 * i)
      (Int64.logxor (Int64.logxor k0 !tw) (Array.unsafe_get round_constants i));
    tw := layer tweak_table !tw
  done;
  let last = !tw in
  let s = ref (layer sub (Int64.logxor (Int64.logxor plaintext w0) (bytes_get64u tweakeys 0))) in
  for i = 1 to rounds - 1 do
    s := layer sub (layer mix_tau_table (Int64.logxor !s (bytes_get64u tweakeys (8 * i))))
  done;
  s := layer sub (layer mix_tau_table (Int64.logxor !s (Int64.logxor w1 last)));
  s := layer tau_inv_table (Int64.logxor (layer mix_tau_table !s) k0);
  s := Int64.logxor (layer back !s) (Int64.logxor w0 last);
  for i = rounds - 1 downto 1 do
    s := Int64.logxor (layer back !s) (Int64.logxor (bytes_get64u tweakeys (8 * i)) alpha)
  done;
  Int64.logxor
    (Int64.logxor (layer sub_inv !s) (Int64.logxor (bytes_get64u tweakeys 0) alpha))
    w1
