(* Semantic-patch engine tests: typing, the census on hand-written and
   calibrated corpora, rewrite completeness. *)

module SC = Sempatch.Cast
module SA = Sempatch.Analysis
module SR = Sempatch.Rewrite

(* A tiny hand-written "kernel source": one driver type assigned at run
   time, one static const ops struct (must NOT be counted), one function
   that only reads the pointer (must NOT be counted). *)
let hand_corpus =
  let dev_struct =
    {
      SC.struct_name = "mydev";
      fields =
        [
          { SC.field_name = "count"; field_type = SC.Int };
          { SC.field_name = "irq_handler"; field_type = SC.Func_ptr "irq" };
          { SC.field_name = "name"; field_type = SC.Ptr SC.Char };
        ];
    }
  in
  let ops_struct =
    {
      SC.struct_name = "myfs_ops";
      fields =
        [
          { SC.field_name = "read"; field_type = SC.Func_ptr "rw" };
          { SC.field_name = "write"; field_type = SC.Func_ptr "rw" };
        ];
    }
  in
  let probe =
    {
      SC.func_name = "mydev_probe";
      params = [ ("dev", SC.Ptr (SC.Struct_ref "mydev")) ];
      locals = [];
      body =
        [
          SC.Field_write (SC.Var "dev", "irq_handler", SC.Addr_of_func "mydev_irq");
          SC.Field_write (SC.Var "dev", "count", SC.Int_lit 0);
          (* writing an int member: not a finding *)
        ];
    }
  in
  let reader =
    {
      SC.func_name = "mydev_dispatch";
      params = [ ("dev", SC.Ptr (SC.Struct_ref "mydev")) ];
      locals = [ ("h", SC.Func_ptr "irq") ];
      body =
        [
          SC.Assign_var ("h", SC.Field_read (SC.Var "dev", "irq_handler"));
          SC.Expr_stmt (SC.Indirect_call (SC.Var "h", []));
        ];
    }
  in
  let static_init =
    {
      SC.init_name = "myfs_default_ops";
      init_struct = "myfs_ops";
      init_values =
        [ ("read", SC.Addr_of_func "myfs_read"); ("write", SC.Addr_of_func "myfs_write") ];
      is_const = true;
    }
  in
  [
    {
      SC.file_name = "drivers/mydev.c";
      structs = [ dev_struct; ops_struct ];
      functions = [ probe; reader ];
      initializers = [ static_init ];
    };
  ]

let test_census_hand_corpus () =
  let census = SA.run hand_corpus in
  Alcotest.(check int) "one member" 1 census.SA.member_count;
  Alcotest.(check int) "one type" 1 census.SA.type_count;
  Alcotest.(check int) "no multi types" 0 census.SA.multi_member_type_count;
  match census.SA.findings with
  | [ f ] ->
      Alcotest.(check string) "type" "mydev" f.SA.type_name;
      Alcotest.(check string) "member" "irq_handler" f.SA.member_name;
      Alcotest.(check (list string)) "assigned in probe" [ "mydev_probe" ] f.SA.assigned_in
  | _ -> Alcotest.fail "expected exactly one finding"

let test_conditional_assignments_found () =
  (* assignment under an If must still be found *)
  let corpus =
    [
      {
        SC.file_name = "f.c";
        structs =
          [
            {
              SC.struct_name = "s";
              fields = [ { SC.field_name = "cb"; field_type = SC.Func_ptr "x" } ];
            };
          ];
        functions =
          [
            {
              SC.func_name = "setup";
              params = [ ("o", SC.Ptr (SC.Struct_ref "s")); ("flag", SC.Int) ];
              locals = [];
              body =
                [
                  SC.If
                    ( SC.Var "flag",
                      [ SC.Field_write (SC.Var "o", "cb", SC.Addr_of_func "h") ],
                      [] );
                ];
            };
          ];
        initializers = [];
      };
    ]
  in
  let census = SA.run corpus in
  Alcotest.(check int) "found under If" 1 census.SA.member_count

let test_calibrated_census () =
  let corpus = Sempatch.Corpus.generate ~seed:1L () in
  let census = SA.run corpus in
  Alcotest.(check int) "1285 members" 1285 census.SA.member_count;
  Alcotest.(check int) "504 types" 504 census.SA.type_count;
  Alcotest.(check int) "229 multi" 229 census.SA.multi_member_type_count;
  Alcotest.(check int) "275 lone" 275 census.SA.needs_pac

let test_census_seed_invariant () =
  (* the headline counts are structural, not sampling artifacts *)
  let c1 = SA.run (Sempatch.Corpus.generate ~seed:1L ()) in
  let c2 = SA.run (Sempatch.Corpus.generate ~seed:999L ()) in
  Alcotest.(check int) "members stable" c1.SA.member_count c2.SA.member_count;
  Alcotest.(check int) "types stable" c1.SA.type_count c2.SA.type_count

let test_rewrite_completeness () =
  let corpus = Sempatch.Corpus.generate ~seed:5L () in
  let census = SA.run corpus in
  let protected = SA.protected_members census in
  Alcotest.(check int) "protects the 275 lone members" 275 (List.length protected);
  let rewritten, stats = SR.apply corpus ~protected in
  Alcotest.(check int) "one write per lone member" 275 stats.SR.writes_rewritten;
  Alcotest.(check int) "residual accesses" 0 (SR.residual_accesses rewritten ~protected);
  (* idempotence: applying again changes nothing *)
  let _, stats2 = SR.apply rewritten ~protected in
  Alcotest.(check int) "second pass writes nothing" 0 stats2.SR.writes_rewritten;
  Alcotest.(check int) "second pass reads nothing" 0 stats2.SR.reads_rewritten

let test_rewrite_hand_corpus_reads () =
  let census = SA.run hand_corpus in
  let protected = SA.protected_members census in
  let rewritten, stats = SR.apply hand_corpus ~protected in
  Alcotest.(check int) "one read rewritten" 1 stats.SR.reads_rewritten;
  Alcotest.(check int) "one write rewritten" 1 stats.SR.writes_rewritten;
  Alcotest.(check int) "residual" 0 (SR.residual_accesses rewritten ~protected)

let test_typing () =
  let env = [ ("p", SC.Ptr (SC.Struct_ref "mydev")) ] in
  (match SC.expr_type ~corpus:hand_corpus ~env (SC.Field_read (SC.Var "p", "irq_handler")) with
  | Some (SC.Func_ptr "irq") -> ()
  | _ -> Alcotest.fail "member type lookup");
  (match SC.expr_type ~corpus:hand_corpus ~env (SC.Field_read (SC.Var "p", "count")) with
  | Some SC.Int -> ()
  | _ -> Alcotest.fail "int member");
  match SC.expr_type ~corpus:hand_corpus ~env (SC.Var "unknown") with
  | None -> ()
  | Some _ -> Alcotest.fail "unknown var must not type"

let suite =
  [
    Alcotest.test_case "census on hand-written corpus" `Quick test_census_hand_corpus;
    Alcotest.test_case "conditional assignments found" `Quick
      test_conditional_assignments_found;
    Alcotest.test_case "calibrated corpus reproduces 1285/504/229" `Quick
      test_calibrated_census;
    Alcotest.test_case "census is seed-invariant" `Quick test_census_seed_invariant;
    Alcotest.test_case "rewrite completeness + idempotence" `Quick
      test_rewrite_completeness;
    Alcotest.test_case "rewrite covers reads and writes" `Quick
      test_rewrite_hand_corpus_reads;
    Alcotest.test_case "expression typing" `Quick test_typing;
  ]

(* Ops-structure conversion: after the pass, the census must find no
   multi-pointer types — only the 275 lone pointers remain. *)

let test_ops_conversion () =
  let corpus = Sempatch.Corpus.generate ~seed:8L () in
  let census = SA.run corpus in
  let converted, stats = Sempatch.Convert.convert_multi corpus census in
  Alcotest.(check int) "229 types converted" 229 stats.Sempatch.Convert.types_converted;
  Alcotest.(check int) "one ops struct each" 229 stats.Sempatch.Convert.ops_structs_created;
  Alcotest.(check int) "all multi-member writes collapsed" 1010
    stats.Sempatch.Convert.assignments_collapsed;
  let census' = SA.run converted in
  Alcotest.(check int) "no multi types remain" 0
    census'.SA.multi_member_type_count;
  Alcotest.(check int) "lone pointers unchanged" 275 census'.SA.member_count;
  (* the new const ops instances exist and are rodata-destined *)
  let const_inits =
    List.concat_map
      (fun (f : SC.file) -> List.filter (fun i -> i.SC.is_const) f.SC.initializers)
      converted
  in
  Alcotest.(check bool) "default ops instances emitted" true
    (List.length const_inits >= 229)

let test_ops_conversion_hand_corpus () =
  (* a two-pointer type converts; the reader is redirected via the ops
     accessor *)
  let two_ptr =
    {
      SC.struct_name = "blkdev";
      fields =
        [
          { SC.field_name = "submit"; field_type = SC.Func_ptr "bio" };
          { SC.field_name = "flush"; field_type = SC.Func_ptr "bio" };
          { SC.field_name = "queue_depth"; field_type = SC.Int };
        ];
    }
  in
  let probe =
    {
      SC.func_name = "blkdev_probe";
      params = [ ("d", SC.Ptr (SC.Struct_ref "blkdev")) ];
      locals = [];
      body =
        [
          SC.Field_write (SC.Var "d", "submit", SC.Addr_of_func "blk_submit");
          SC.Field_write (SC.Var "d", "flush", SC.Addr_of_func "blk_flush");
        ];
    }
  in
  let user =
    {
      SC.func_name = "blkdev_io";
      params = [ ("d", SC.Ptr (SC.Struct_ref "blkdev")) ];
      locals = [];
      body = [ SC.Expr_stmt (SC.Indirect_call (SC.Field_read (SC.Var "d", "submit"), [])) ];
    }
  in
  let corpus =
    [ { SC.file_name = "blk.c"; structs = [ two_ptr ]; functions = [ probe; user ];
        initializers = [] } ]
  in
  let census = SA.run corpus in
  let converted, stats = Sempatch.Convert.convert_multi corpus census in
  Alcotest.(check int) "one type" 1 stats.Sempatch.Convert.types_converted;
  Alcotest.(check int) "two writes collapsed" 2 stats.Sempatch.Convert.assignments_collapsed;
  Alcotest.(check int) "one read redirected" 1 stats.Sempatch.Convert.reads_redirected;
  (* the probe now performs exactly one protected ops store *)
  let probe' =
    List.find
      (fun (f : SC.func_def) -> f.SC.func_name = "blkdev_probe")
      (List.concat_map (fun (f : SC.file) -> f.SC.functions) converted)
  in
  (match probe'.SC.body with
  | [ SC.Set_accessor ("blkdev", "ops", SC.Var "d", SC.Addr_of_static ("blkdev_default_ops", "blkdev_ops")) ] -> ()
  | _ -> Alcotest.fail "probe body not collapsed to a single ops store");
  (* the converted type exposes ops and no raw fptrs *)
  match
    List.find_map
      (fun (f : SC.file) ->
        List.find_opt (fun (s : SC.struct_def) -> s.SC.struct_name = "blkdev") f.SC.structs)
      converted
  with
  | Some sd ->
      Alcotest.(check (list string))
        "fields after conversion"
        [ "queue_depth"; "ops" ]
        (List.map (fun f -> f.SC.field_name) sd.SC.fields)
  | None -> Alcotest.fail "blkdev vanished"

let suite =
  suite
  @ [
      Alcotest.test_case "ops conversion on calibrated corpus" `Quick test_ops_conversion;
      Alcotest.test_case "ops conversion mechanics" `Quick test_ops_conversion_hand_corpus;
    ]
