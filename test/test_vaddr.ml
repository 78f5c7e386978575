(* Appendix A of the paper: VMSAv8 address ranges (Table 1), pointer
   layouts (Table 2) and the resulting PAC widths. *)

open Aarch64

(* A canonical pointer is a fixed point of [Vaddr.canonical]. *)
let is_canonical cfg va = Int64.equal (Vaddr.canonical cfg va) va

let test_select () =
  Alcotest.(check bool) "kernel top" true (Vaddr.select 0xffffffffffffffffL = Vaddr.Kernel);
  Alcotest.(check bool) "kernel base" true (Vaddr.select 0xffff000000000000L = Vaddr.Kernel);
  Alcotest.(check bool) "user top" true (Vaddr.select 0x0000ffffffffffffL = Vaddr.User);
  Alcotest.(check bool) "user base" true (Vaddr.select 0L = Vaddr.User)

let test_canonical_kernel () =
  let cfg = Vaddr.linux_kernel in
  Alcotest.(check bool) "kernel canonical" true
    (is_canonical cfg 0xffff000012345678L);
  Alcotest.(check bool) "kernel with junk top" false
    (is_canonical cfg 0xabff000012345678L);
  (* bit 55 of the input is 1, so the kernel form is reconstructed *)
  Alcotest.(check int64) "canonicalize restores sign" 0xffff000012345678L
    (Vaddr.canonical cfg 0xab80000012345678L)

let test_canonical_user_tbi () =
  let cfg = Vaddr.linux_user in
  (* TBI: the top byte is a tag and ignored. *)
  Alcotest.(check bool) "tagged user pointer is canonical" true
    (is_canonical cfg 0xab00123456789abcL);
  Alcotest.(check bool) "extension bits must still be clear" false
    (is_canonical cfg 0xab80123456789abcL)

let test_pac_widths () =
  (* Paper, Section 5.4: typical Linux configuration leaves 15 bits for
     the kernel PAC (48-bit VA, no tag) and 7 for tagged user space. *)
  Alcotest.(check int) "kernel pac bits" 15 (Vaddr.pac_bits Vaddr.linux_kernel);
  Alcotest.(check int) "user pac bits (TBI)" 7 (Vaddr.pac_bits Vaddr.linux_user);
  Alcotest.(check int) "39-bit VA kernel" 24
    (Vaddr.pac_bits { Vaddr.va_bits = 39; tbi = false });
  Alcotest.(check int) "39-bit VA user (TBI)" 16
    (Vaddr.pac_bits { Vaddr.va_bits = 39; tbi = true })

let test_insert_extract_pac () =
  let cfg = Vaddr.linux_kernel in
  let va = 0xffff00dead00beefL in
  let pac = 0x5a77L in
  let signed = Vaddr.insert_pac cfg ~pac va in
  Alcotest.(check int64) "extract returns inserted (masked)"
    (Int64.logand pac (Camo_util.Val64.mask (Vaddr.pac_bits cfg)))
    (Vaddr.extract_pac cfg signed);
  Alcotest.(check int64) "strip recovers canonical" va (Vaddr.strip_pac cfg signed);
  Alcotest.(check bool) "bit 55 preserved" true (Vaddr.select signed = Vaddr.Kernel)

let test_poison () =
  let cfg = Vaddr.linux_kernel in
  let va = 0xffff000000001000L in
  let p = Vaddr.poison cfg va in
  Alcotest.(check bool) "poisoned not canonical" false (is_canonical cfg p);
  Alcotest.(check bool) "poison recognized" true (Vaddr.is_poisoned cfg p);
  Alcotest.(check bool) "clean not recognized" false (Vaddr.is_poisoned cfg va)

let gen_addr48 =
  QCheck2.Gen.(map (fun x -> Int64.logand (Int64.of_int x) 0xffffffffffffL) int)

let prop_canonical_idempotent =
  QCheck2.Test.make ~name:"canonical is idempotent" ~count:300 gen_addr48 (fun low ->
      let cfg = Vaddr.linux_kernel in
      let va = Int64.logor low 0xffff000000000000L in
      Vaddr.canonical cfg (Vaddr.canonical cfg va) = Vaddr.canonical cfg va)

let prop_pac_roundtrip =
  QCheck2.Test.make ~name:"insert_pac then extract_pac is identity on pac"
    ~count:300
    QCheck2.Gen.(pair gen_addr48 (map Int64.of_int int))
    (fun (low, pac) ->
      let cfg = Vaddr.linux_kernel in
      let va = Int64.logor low 0xffff000000000000L in
      let pac = Int64.logand pac (Camo_util.Val64.mask (Vaddr.pac_bits cfg)) in
      Vaddr.extract_pac cfg (Vaddr.insert_pac cfg ~pac va) = pac)

(* The per-range fold the straight-line masks replaced. The extension
   ranges, least-significant first, are written here from the
   architecture rather than read back from [Vaddr.pac_field]: [va_bits,
   55) and, without TBI, the top byte [56, 64). *)
module Fold = struct
  module Val64 = Camo_util.Val64

  let ranges { Vaddr.va_bits; tbi } =
    (va_bits, 55 - va_bits) :: (if tbi then [] else [ (56, 8) ])

  let canonical cfg va =
    let sign = if Val64.bit 55 va then -1L else 0L in
    List.fold_left
      (fun acc (lo, width) -> Val64.insert ~lo ~width ~field:(Val64.extract ~lo ~width sign) acc)
      va (ranges cfg)

  let insert_pac cfg ~pac va =
    let acc, _ =
      List.fold_left
        (fun (acc, consumed) (lo, width) ->
          (Val64.insert ~lo ~width ~field:(Val64.extract ~lo:consumed ~width pac) acc, consumed + width))
        (va, 0) (ranges cfg)
    in
    acc

  let extract_pac cfg va =
    let acc, _ =
      List.fold_left
        (fun (acc, consumed) (lo, width) ->
          (Val64.insert ~lo:consumed ~width ~field:(Val64.extract ~lo ~width va) acc, consumed + width))
        (0L, 0) (ranges cfg)
    in
    acc

  let poison cfg va =
    match ranges cfg with
    | (lo, _) :: _ -> Int64.logxor (canonical cfg va) (Int64.shift_left 3L lo)
    | [] -> assert false
end

let gen_word64 =
  QCheck2.Gen.(
    map2 (fun a b -> Int64.logxor (Int64.of_int a) (Int64.shift_left (Int64.of_int b) 32)) int int)

let prop_masks_match_fold =
  QCheck2.Test.make ~name:"straight-line masks = fold over pac_field, va_bits 32-52 x tbi"
    ~count:2000
    QCheck2.Gen.(quad (int_range 32 52) bool gen_word64 gen_word64)
    (fun (va_bits, tbi, va, pac) ->
      let cfg = { Vaddr.va_bits; tbi } in
      Vaddr.pac_field cfg = List.rev (Fold.ranges cfg)
      && Vaddr.pac_bits cfg = List.fold_left (fun n (_, w) -> n + w) 0 (Fold.ranges cfg)
      && Vaddr.canonical cfg va = Fold.canonical cfg va
      && Vaddr.strip_pac cfg va = Fold.canonical cfg va
      && Vaddr.insert_pac cfg ~pac va = Fold.insert_pac cfg ~pac va
      && Vaddr.extract_pac cfg va = Fold.extract_pac cfg va
      && Vaddr.poison cfg va = Fold.poison cfg va)

(* [Pac] restates [canonical], [insert_pac] and [poison] over masks it
   computes once per layout, so that no pointer crosses into this
   module on the op path. Its results must equal the ones written with
   [Vaddr] for every layout: through the host-side entry points, and
   through the slot-addressed ones the ops run, on a cached and an
   uncached memo whose user and kernel layouts differ. *)
let prop_pac_masks_match_vaddr =
  let cipher = Qarma.Block.create () in
  let gen_cfg = QCheck2.Gen.(map2 (fun va_bits tbi -> { Vaddr.va_bits; tbi }) (int_range 32 52) bool) in
  QCheck2.Test.make ~name:"Pac's masks = Vaddr's, va_bits 32-52 x tbi" ~count:1000
    QCheck2.Gen.(pair (pair gen_cfg gen_cfg) (quad gen_word64 gen_word64 gen_word64 gen_word64))
    (fun ((cfg, kcfg), (hi, lo, modifier, ptr)) ->
      let key = Pac.{ hi; lo } in
      let mac v =
        Qarma.Block.encrypt cipher ~key:(Qarma.Block.key_of_pair (hi, lo)) ~tweak:modifier v
      in
      let sign cfg ptr =
        let c = Vaddr.canonical cfg ptr in
        Vaddr.insert_pac cfg ~pac:(mac c) c
      in
      let auth cfg ptr =
        if ptr = sign cfg ptr then Ok (Vaddr.strip_pac cfg ptr) else Error (Vaddr.poison cfg ptr)
      in
      let signed = sign cfg ptr in
      let host =
        Pac.compute ~cipher ~key ~cfg ~modifier ptr = signed
        && Pac.auth ~cipher ~key ~cfg ~modifier signed = auth cfg signed
        && Pac.auth ~cipher ~key ~cfg ~modifier ptr = auth cfg ptr
      in
      (* slots: 0 hi, 1 lo, 2 modifier, 3 pointer, 4 result *)
      let st = Bigarray.Array1.create Bigarray.Int64 Bigarray.C_layout 5 in
      let slots cached =
        let m = Pac.memo ~cached ~user:cfg ~kernel:kcfg cipher in
        let cfg_of p = if Vaddr.select p = Vaddr.Kernel then kcfg else cfg in
        List.for_all
          (fun p ->
            let cfg = cfg_of p in
            List.iter (fun (i, v) -> st.{i} <- v) [ (0, hi); (1, lo); (2, modifier); (3, p) ];
            Pac.pac m st ~hi:0 ~lo:1 ~ptr:3 ~modifier:2 ~dst:4;
            let signed = st.{4} in
            let passed = Pac.aut m st ~hi:0 ~lo:1 ~ptr:3 ~modifier:2 ~dst:4 in
            let authed = st.{4} in
            Pac.xpac m st ~src:3 ~dst:4;
            signed = sign cfg p
            && (if passed then Ok authed else Error authed) = auth cfg p
            && st.{4} = Vaddr.strip_pac cfg p)
          [ ptr; Int64.logxor ptr 0x0080_0000_0000_0000L; sign (cfg_of ptr) ptr ]
      in
      host && slots true && slots false)

let suite =
  [
    Alcotest.test_case "table 1: range select" `Quick test_select;
    Alcotest.test_case "kernel canonical form" `Quick test_canonical_kernel;
    Alcotest.test_case "user canonical form under TBI" `Quick test_canonical_user_tbi;
    Alcotest.test_case "PAC widths per configuration" `Quick test_pac_widths;
    Alcotest.test_case "PAC insert/extract/strip" `Quick test_insert_extract_pac;
    Alcotest.test_case "poisoned pointers" `Quick test_poison;
    QCheck_alcotest.to_alcotest prop_canonical_idempotent;
    QCheck_alcotest.to_alcotest prop_pac_roundtrip;
    QCheck_alcotest.to_alcotest prop_masks_match_fold;
    QCheck_alcotest.to_alcotest prop_pac_masks_match_vaddr;
  ]
