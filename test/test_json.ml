(* The one JSON codec (Camo_util.Json): values and escapes, error
   positions, the nesting bound, totality on damaged input, the escape
   round trip, and the float-number view the host benchmark reads the
   lint baseline through. *)

open Aarch64
module J = Camo_util.Json
module C = Camouflage
module K = Kernel

let parse_ok s =
  match J.parse s with
  | Ok v -> v
  | Error e -> Alcotest.fail ("json rejected " ^ s ^ ": " ^ e)

let fail_of = function
  | Error e -> e
  | Ok _ -> Alcotest.fail "malformed input accepted"

let contains sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let test_basics () =
  let v = parse_ok {|{"a": 1, "b": [true, null, "xA\n"], "c": -2.5}|} in
  Alcotest.(check (option int)) "int member" (Some 1)
    (Option.bind (J.member "a" v) J.to_int);
  (match J.member "b" v with
  | Some (J.List [ J.Bool true; J.Null; J.Str s ]) ->
      Alcotest.(check string) "escapes decoded" "xA\n" s
  | _ -> Alcotest.fail "list member shape");
  Alcotest.(check (option (float 1e-9))) "float member" (Some (-2.5))
    (Option.bind (J.member "c" v) J.to_float);
  (match J.parse "{\"a\": 1} junk" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage accepted");
  (* every writer's bytes depend on this table *)
  Alcotest.(check string) "escape table"
    ({|a\"\\\n\t\r\u0001\u001f|} ^ "\x7f")
    (J.escape "a\"\\\n\t\r\001\031\x7f");
  match J.parse "{nope" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed object accepted"

let campaign_report =
  lazy
    (Faultinj.Campaign.report_to_json
       (Faultinj.Campaign.run ~seed:3L ~trials:4 ()))

let test_reads_campaign_report () =
  let v = parse_ok (Lazy.force campaign_report) in
  Alcotest.(check (option string)) "campaign tag" (Some "camouflage-faultinj")
    (Option.bind (J.member "campaign" v) J.to_string);
  Alcotest.(check (option int)) "trials round-trips" (Some 4)
    (Option.bind (J.member "trials" v) J.to_int);
  match J.member "trial_list" v with
  | Some (J.List l) -> Alcotest.(check int) "one row per trial" 4 (List.length l)
  | _ -> Alcotest.fail "trial_list missing"

let test_error_positions () =
  let e = fail_of (J.parse "{\n  \"a\": 1,\n  oops}") in
  Alcotest.(check bool)
    (Printf.sprintf "parse error names line 3 (%s)" e)
    true (contains "line 3" e);
  let e = fail_of (J.parse "{\"a\": 1} junk") in
  Alcotest.(check bool)
    (Printf.sprintf "trailing garbage names its position (%s)" e)
    true
    (contains "trailing garbage" e && contains "line 1, column 10" e);
  let e = fail_of (J.parse "[1, 2\n 3]") in
  Alcotest.(check bool)
    (Printf.sprintf "a missing comma names line 2 (%s)" e)
    true (contains "line 2" e);
  Alcotest.(check (pair int int)) "line_col is 1-based" (1, 1) (J.line_col "x" 0);
  Alcotest.(check (pair int int)) "line_col crosses newlines" (2, 2)
    (J.line_col "ab\ncd" 4);
  match J.parse_located "[1, {\"k\": true}]" with
  | Ok { J.v = J.LList [ _; obj ]; _ } -> (
      Alcotest.(check int) "object offset" 4 obj.J.pos;
      match J.lmember "k" obj with
      | Some { J.v = J.LBool true; pos } -> Alcotest.(check int) "member offset" 10 pos
      | _ -> Alcotest.fail "lmember shape")
  | _ -> Alcotest.fail "located tree shape"

let test_nesting_bound () =
  let nested n = String.make n '[' ^ String.make n ']' in
  ignore (parse_ok (nested J.max_depth));
  let e = fail_of (J.parse (nested (J.max_depth + 1))) in
  Alcotest.(check bool)
    (Printf.sprintf "one level too deep is rejected (%s)" e)
    true (contains "nesting too deep" e);
  let e = fail_of (J.parse (String.make 1_000_000 '[')) in
  Alcotest.(check bool)
    (Printf.sprintf "a million '[' stop at the bound (%s)" e)
    true
    (contains "nesting too deep" e && contains "offset 512" e)

(* --- totality: Ok or Error, never an exception --------------------- *)

let replay_line =
  Snapshot.Log.entry_to_json
    {
      Snapshot.Log.e_index = 17;
      e_spec = "flip x3 bit 5 after 120 steps";
      e_fired = true;
      e_outcome = "detected-by-pac";
      e_detail = "oops: \"PAC failure\"\n\tcpu1 \\ offlined";
      e_makespan = 123_456L;
      e_offlined = [ 1 ];
      e_fingerprint = "0123456789abcdef0123456789abcdef";
    }

let chrome_trace =
  lazy
    (let sys = K.System.boot ~seed:7L ~cpus:2 ~telemetry:true () in
     let layout =
       K.System.map_user_program sys (Workloads.Smp.throughput_program ~rounds:3)
     in
     let entry = Asm.symbol layout "throughput" in
     let tasks = List.init 4 (fun _ -> K.System.spawn_user_task sys ~entry) in
     ignore (K.System.run_smp ~quantum:500 sys ~tasks);
     Telemetry.Chrome.serialize (Option.get (K.System.telemetry sys)))

let documents () =
  [| Lazy.force campaign_report; replay_line; Lazy.force chrome_trace |]

let total s = match J.parse s with Ok _ | Error _ -> true

let prop_total_on_bytes =
  QCheck.Test.make ~count:1000 ~name:"parse is total on random bytes"
    QCheck.string total

(* Strings over the JSON alphabet reach far deeper into the grammar
   than uniform bytes do. *)
let prop_total_on_json_alphabet =
  let alphabet =
    [ '['; ']'; '{'; '}'; '"'; ':'; ','; '0'; '7'; '-'; '+'; '.'; 'e'; '\\';
      'u'; 'd'; '8'; 't'; 'r'; 'n'; 'l'; ' '; '\n' ]
  in
  QCheck.Test.make ~count:1000 ~name:"parse is total on the json alphabet"
    (QCheck.make ~print:(Printf.sprintf "%S")
       QCheck.Gen.(string_size ~gen:(oneofl alphabet) (int_bound 64)))
    total

let prop_total_on_damaged_documents =
  let gen = QCheck.Gen.(quad (int_bound 2) bool (int_bound 1_000_000) char) in
  let print (d, cut, pos, c) =
    Printf.sprintf "document %d, %s at %d" d
      (if cut then "truncated" else Printf.sprintf "byte %C written" c)
      pos
  in
  QCheck.Test.make ~count:600
    ~name:"parse is total on truncated and mutated documents"
    (QCheck.make ~print gen)
    (fun (d, cut, pos, c) ->
      let doc = (documents ()).(d) in
      let pos = pos mod (String.length doc + 1) in
      let damaged =
        if cut then String.sub doc 0 pos
        else if pos = String.length doc then doc ^ String.make 1 c
        else String.mapi (fun i b -> if i = pos then c else b) doc
      in
      total damaged)

let test_documents_parse () =
  Array.iter (fun doc -> ignore (parse_ok doc)) (documents ())

let prop_escape_round_trip =
  QCheck.Test.make ~count:1000 ~name:"escape round-trips through parse"
    QCheck.string (fun s -> J.parse ("\"" ^ J.escape s ^ "\"") = Ok (J.Str s))

(* --- the float-number view, read exactly as the host benchmark does -- *)

let lint_configs =
  [
    ("full", C.Config.full);
    ("backward", C.Config.backward_only);
    ("compat", C.Config.compat);
    ("none", C.Config.none);
    ("sp-only", { C.Config.backward_only with scheme = C.Modifier.Sp_only });
    ("parts", { C.Config.backward_only with scheme = C.Modifier.Parts 0x7357L });
    ("chained", { C.Config.backward_only with scheme = C.Modifier.Chained });
  ]

(* dune runs the suite from _build/default/test, a direct run starts at
   the repository root: take the nearest enclosing copy of the file *)
let rec find_up dir rel =
  let path = Filename.concat dir rel in
  if Sys.file_exists path then path
  else
    let parent = Filename.dirname dir in
    if parent = dir then Alcotest.failf "%s not found" rel else find_up parent rel

let test_view_reads_lint_baseline () =
  let module V = Telemetry.Json in
  let path = find_up (Sys.getcwd ()) (Filename.concat "ci" "lint-baseline.json") in
  let text = In_channel.with_open_bin path In_channel.input_all in
  let json =
    match V.parse text with
    | Ok json -> json
    | Error e -> Alcotest.failf "%s: %s" path e
  in
  List.iter
    (fun (name, config) ->
      let field k =
        match Option.bind (V.member name json) (V.member k) with
        | Some (V.Num v) -> int_of_float v
        | _ -> Alcotest.failf "%s: no %s.%s" path name k
      in
      let r = K.Kbuild.lint_report config in
      let classes = r.K.Kbuild.census.Paclint.Census.classes in
      Alcotest.(check int) (name ^ " errors")
        (List.length (List.filter Paclint.Diag.is_error r.K.Kbuild.diags))
        (field "errors");
      Alcotest.(check int) (name ^ " collision classes")
        (List.length
           (List.filter
              (fun cl -> cl.Paclint.Census.fn_count >= 2 && cl.Paclint.Census.pairs >= 1)
              classes))
        (field "collision_classes");
      Alcotest.(check int) (name ^ " gadget pairs")
        (List.fold_left (fun acc cl -> acc + cl.Paclint.Census.pairs) 0 classes)
        (field "gadget_pairs"))
    lint_configs

let suite =
  [
    Alcotest.test_case "values, escapes, rejects garbage" `Quick test_basics;
    Alcotest.test_case "reads a campaign report" `Quick test_reads_campaign_report;
    Alcotest.test_case "errors carry line and column" `Quick test_error_positions;
    Alcotest.test_case "nesting depth is bounded" `Quick test_nesting_bound;
    Alcotest.test_case "report, replay line and trace parse" `Quick
      test_documents_parse;
    QCheck_alcotest.to_alcotest prop_total_on_bytes;
    QCheck_alcotest.to_alcotest prop_total_on_json_alphabet;
    QCheck_alcotest.to_alcotest prop_total_on_damaged_documents;
    QCheck_alcotest.to_alcotest prop_escape_round_trip;
    Alcotest.test_case "float view reads the lint baseline" `Quick
      test_view_reads_lint_baseline;
  ]
