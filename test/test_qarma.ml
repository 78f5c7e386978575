(* Golden regression vectors for this implementation of QARMA-64, using
   the key/plaintext/tweak of Avanzi's specification (ToSC 2017). The
   build environment is offline so the ciphertexts could not be checked
   against the published tables; these values pin the implementation so
   that any accidental change to a table or the round structure fails
   loudly. See EXPERIMENTS.md, "QARMA verification caveat". *)

let v64 = Camo_util.Val64.of_hex

let vector_key = Qarma.Block.{ w0 = v64 "84be85ce9804e94b"; k0 = v64 "ec2802d4e0a488e9" }
let vector_plaintext = v64 "fb623599da6e8127"
let vector_tweak = v64 "477d469dec0b8762"

let published_vectors =
  [
    (Qarma.Block.Sigma0, 5, "a609a4821e902102");
    (Qarma.Block.Sigma1, 6, "a0cfa4213abda05f");
    (Qarma.Block.Sigma2, 7, "81d29dc0f62a76e1");
  ]

let check_vector (sbox, rounds, expected) () =
  let cipher = Qarma.Block.create ~sbox ~rounds () in
  let got =
    Qarma.Block.encrypt cipher ~key:vector_key ~tweak:vector_tweak vector_plaintext
  in
  Alcotest.(check string)
    (Printf.sprintf "rounds=%d" rounds)
    expected
    (Camo_util.Val64.to_hex got)

let sbox_name = function
  | Qarma.Block.Sigma0 -> "sigma0"
  | Qarma.Block.Sigma1 -> "sigma1"
  | Qarma.Block.Sigma2 -> "sigma2"

let vector_cases =
  let case ((sbox, rounds, _) as v) =
    Alcotest.test_case
      (Printf.sprintf "golden vector %s/r%d" (sbox_name sbox) rounds)
      `Quick (check_vector v)
  in
  List.map case published_vectors

(* Structural sanity checks on the reference cell primitives. *)

let test_sbox_bijective () =
  let open Qarma_ref in
  let check sigma name =
    for v = 0 to 15 do
      let x = Int64.of_int (v * 0x1111) in
      let y = sub_cells_inv sigma (sub_cells sigma x) in
      Alcotest.(check int64) (name ^ " involutive pair") x y
    done
  in
  check Sigma0 "sigma0";
  check Sigma1 "sigma1";
  check Sigma2 "sigma2"

let test_shuffle_roundtrip () =
  let x = 0x0123456789abcdefL in
  Alcotest.(check int64) "tau" x Qarma_ref.(shuffle_inv (shuffle x))

let test_mix_columns_involutory () =
  let x = 0xdeadbeefcafef00dL in
  Alcotest.(check int64) "M*M = id" x Qarma_ref.(mix_columns (mix_columns x))

let test_tweak_update_roundtrip () =
  let x = 0x477d469dec0b8762L in
  Alcotest.(check int64) "tweak schedule" x Qarma_ref.(tweak_update_inv (tweak_update x))

(* Property tests. *)

let gen_word = QCheck2.Gen.(map Int64.of_int int)

let sboxes = Qarma.Block.[ Sigma0; Sigma1; Sigma2 ]

(* The byte-sliced cipher against the nibble-wise reference, on every
   S-box and round count the constructor accepts. *)
let prop_matches_reference =
  QCheck2.Test.make ~name:"byte-sliced encrypt = reference, every sbox x rounds 1-8"
    ~count:2000
    QCheck2.Gen.(quad gen_word gen_word gen_word gen_word)
    (fun (w0, k0, tweak, pt) ->
      let key = Qarma.Block.{ w0; k0 } in
      List.for_all
        (fun sbox ->
          List.for_all
            (fun rounds ->
              let cipher = Qarma.Block.create ~sbox ~rounds () in
              Qarma.Block.encrypt cipher ~key ~tweak pt
              = Qarma_ref.encrypt ~sbox ~rounds ~key ~tweak pt)
            [ 1; 2; 3; 4; 5; 6; 7; 8 ])
        sboxes)

let prop_roundtrip =
  QCheck2.Test.make ~name:"decrypt (encrypt x) = x"
    ~count:500
    QCheck2.Gen.(quad gen_word gen_word gen_word gen_word)
    (fun (w0, k0, tweak, pt) ->
      let cipher = Qarma.Block.create () in
      let key = Qarma.Block.{ w0; k0 } in
      Qarma_ref.decrypt ~sbox:Sigma1 ~rounds:6 ~key ~tweak
        (Qarma.Block.encrypt cipher ~key ~tweak pt)
      = pt)

let prop_tweak_sensitivity =
  QCheck2.Test.make ~name:"distinct tweaks give distinct ciphertexts (w.h.p.)"
    ~count:200
    QCheck2.Gen.(triple gen_word gen_word gen_word)
    (fun (w0, k0, pt) ->
      let cipher = Qarma.Block.create () in
      let key = Qarma.Block.{ w0; k0 } in
      let c1 = Qarma.Block.encrypt cipher ~key ~tweak:1L pt in
      let c2 = Qarma.Block.encrypt cipher ~key ~tweak:2L pt in
      c1 <> c2)

let prop_key_sensitivity =
  QCheck2.Test.make ~name:"flipping one key bit changes the ciphertext"
    ~count:200
    QCheck2.Gen.(triple gen_word gen_word gen_word)
    (fun (w0, k0, pt) ->
      let cipher = Qarma.Block.create () in
      let c1 = Qarma.Block.encrypt cipher ~key:{ w0; k0 } ~tweak:0L pt in
      let c2 =
        Qarma.Block.encrypt cipher ~key:{ w0 = Int64.logxor w0 1L; k0 } ~tweak:0L pt
      in
      c1 <> c2)

let suite =
  vector_cases
  @ [
      Alcotest.test_case "sboxes invert" `Quick test_sbox_bijective;
      Alcotest.test_case "shuffle roundtrip" `Quick test_shuffle_roundtrip;
      Alcotest.test_case "mix_columns involutory" `Quick test_mix_columns_involutory;
      Alcotest.test_case "tweak update roundtrip" `Quick test_tweak_update_roundtrip;
      QCheck_alcotest.to_alcotest prop_roundtrip;
      QCheck_alcotest.to_alcotest prop_tweak_sensitivity;
      QCheck_alcotest.to_alcotest prop_key_sensitivity;
      QCheck_alcotest.to_alcotest prop_matches_reference;
    ]
