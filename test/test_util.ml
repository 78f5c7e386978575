(* Unit and property tests for the utility layer: 64-bit bit field
   operations (which everything else leans on), the PRNG, statistics. *)

module Val64 = Camo_util.Val64
module Rng = Camo_util.Rng
module Stats = Camo_util.Stats

let test_mask () =
  Alcotest.(check int64) "mask 0" 0L (Val64.mask 0);
  Alcotest.(check int64) "mask 1" 1L (Val64.mask 1);
  Alcotest.(check int64) "mask 16" 0xffffL (Val64.mask 16);
  Alcotest.(check int64) "mask 63" Int64.max_int (Val64.mask 63);
  Alcotest.(check int64) "mask 64" (-1L) (Val64.mask 64);
  Alcotest.check_raises "mask 65" (Invalid_argument "Val64.mask") (fun () ->
      ignore (Val64.mask 65))

let test_extract_insert () =
  let x = 0x123456789abcdef0L in
  Alcotest.(check int64) "extract low nibble" 0L (Val64.extract ~lo:0 ~width:4 x);
  Alcotest.(check int64) "extract byte 1" 0xdeL (Val64.extract ~lo:8 ~width:8 x);
  Alcotest.(check int64) "extract top byte" 0x12L (Val64.extract ~lo:56 ~width:8 x);
  Alcotest.(check int64) "extract all" x (Val64.extract ~lo:0 ~width:64 x);
  let y = Val64.insert ~lo:16 ~width:16 ~field:0xbeefL x in
  Alcotest.(check int64) "insert reads back" 0xbeefL (Val64.extract ~lo:16 ~width:16 y);
  Alcotest.(check int64) "insert preserves below" (Val64.extract ~lo:0 ~width:16 x)
    (Val64.extract ~lo:0 ~width:16 y);
  Alcotest.(check int64) "insert preserves above" (Val64.extract ~lo:32 ~width:32 x)
    (Val64.extract ~lo:32 ~width:32 y)

let test_bits () =
  Alcotest.(check bool) "bit 0 of 1" true (Val64.bit 0 1L);
  Alcotest.(check bool) "bit 63 of min_int" true (Val64.bit 63 Int64.min_int);
  Alcotest.(check bool) "bit 62 of min_int" false (Val64.bit 62 Int64.min_int);
  Alcotest.(check int64) "set bit 5" 32L (Val64.set_bit 5 true 0L);
  Alcotest.(check int64) "clear bit 5" 0L (Val64.set_bit 5 false 32L)

let test_ror () =
  Alcotest.(check int64) "ror 0" 0x8000000000000001L (Val64.ror 0x8000000000000001L 0);
  Alcotest.(check int64) "ror 1" 0xC000000000000000L (Val64.ror 0x8000000000000001L 1);
  Alcotest.(check int64) "ror 64 = id" 42L (Val64.ror 42L 64)

let test_hex () =
  Alcotest.(check string) "to_hex" "00000000deadbeef" (Val64.to_hex 0xdeadbeefL);
  Alcotest.(check int64) "of_hex" 0xdeadbeefL (Val64.of_hex "deadbeef");
  Alcotest.(check int64) "of_hex 0x prefix" 0xdeadbeefL (Val64.of_hex "0xdeadbeef");
  Alcotest.check_raises "of_hex empty" (Invalid_argument "Val64.of_hex") (fun () ->
      ignore (Val64.of_hex ""))

let test_nibbles () =
  let x = 0x0123456789abcdefL in
  Alcotest.(check int) "nibble 0 is MSB" 0 (Val64.nibble 0 x);
  Alcotest.(check int) "nibble 15 is LSB" 0xf (Val64.nibble 15 x);
  Alcotest.(check int) "nibble 1" 1 (Val64.nibble 1 x);
  Alcotest.(check int64) "set_nibble" 0xa123456789abcdefL (Val64.set_nibble 0 0xa x)

let test_rng_determinism () =
  let a = Rng.create 7L and b = Rng.create 7L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next a) (Rng.next b)
  done;
  let c = Rng.create 8L in
  Alcotest.(check bool) "different seed different value" true (Rng.next a <> Rng.next c)

let test_rng_bounds () =
  let rng = Rng.create 3L in
  for _ = 1 to 1000 do
    let v = Rng.next_in rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done;
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.next_in") (fun () ->
      ignore (Rng.next_in rng 0))

let test_stats () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "stddev" 1.0 (Stats.stddev [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "stddev singleton" 0.0 (Stats.stddev [ 5.0 ]);
  Alcotest.(check (float 1e-9)) "geomean" 2.0 (Stats.geomean [ 1.0; 2.0; 4.0 ]);
  Alcotest.check_raises "geomean rejects 0"
    (Invalid_argument "Stats.geomean: non-positive") (fun () ->
      ignore (Stats.geomean [ 1.0; 0.0 ]))

let gen_word = QCheck2.Gen.(map Int64.of_int int)

let prop_insert_extract =
  QCheck2.Test.make ~name:"insert then extract round-trips" ~count:500
    QCheck2.Gen.(triple gen_word gen_word (int_range 0 63))
    (fun (x, field, lo) ->
      let width = min 16 (64 - lo) in
      if width = 0 then true
      else
        Val64.extract ~lo ~width (Val64.insert ~lo ~width ~field x)
        = Int64.logand field (Val64.mask width))

let prop_ror_composes =
  QCheck2.Test.make ~name:"ror a (m+n) = ror (ror a m) n" ~count:300
    QCheck2.Gen.(triple gen_word (int_range 0 63) (int_range 0 63))
    (fun (x, m, n) -> Val64.ror x (m + n) = Val64.ror (Val64.ror x m) n)

let prop_hex_roundtrip =
  QCheck2.Test.make ~name:"of_hex (to_hex x) = x" ~count:300 gen_word (fun x ->
      Val64.of_hex (Val64.to_hex x) = x)

let prop_set_nibble_roundtrip =
  QCheck2.Test.make ~name:"nibble i (set_nibble i v x) = v" ~count:300
    QCheck2.Gen.(triple gen_word (int_range 0 15) (int_range 0 15))
    (fun (x, i, v) -> Val64.nibble i (Val64.set_nibble i v x) = v)

let suite =
  [
    Alcotest.test_case "mask" `Quick test_mask;
    Alcotest.test_case "extract/insert" `Quick test_extract_insert;
    Alcotest.test_case "bit ops" `Quick test_bits;
    Alcotest.test_case "rotate right" `Quick test_ror;
    Alcotest.test_case "hex conversions" `Quick test_hex;
    Alcotest.test_case "QARMA nibble order" `Quick test_nibbles;
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "statistics" `Quick test_stats;
    QCheck_alcotest.to_alcotest prop_insert_extract;
    QCheck_alcotest.to_alcotest prop_ror_composes;
    QCheck_alcotest.to_alcotest prop_hex_roundtrip;
    QCheck_alcotest.to_alcotest prop_set_nibble_roundtrip;
  ]
