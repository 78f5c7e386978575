(* The PAC-state static analyzer:
   - instrumented output is diagnostic-free under every (mode x scheme);
   - each oracle class is detected;
   - the built kernel image lints clean under every shipped config;
   - the loader gate rejects on error diagnostics and surfaces warnings;
   - Lint.key_access is observationally the seed verifier's linear scan. *)

open Aarch64
module C = Camouflage
module K = Kernel
module L = Paclint.Lint
module D = Paclint.Diag

let x n = Insn.R n
let base = 0xffff000000300000L

let strict_policy =
  {
    L.protect_return = true;
    protect_pointers = true;
    sp_modifier = true;
    allowed_key_writer = (fun _ -> false);
  }

(* ----- instrumented functions lint clean, all modes x schemes ----- *)

let schemes =
  [
    ("no-cfi", C.Modifier.No_cfi);
    ("sp-only", C.Modifier.Sp_only);
    ("parts", C.Modifier.Parts 0x7357L);
    ("camouflage", C.Modifier.Camouflage);
    ("chained", C.Modifier.Chained);
  ]

let modes = [ ("v8.3", C.Keys.Armv83); ("compat", C.Keys.Compat) ]

let body =
  [
    Asm.ins (Insn.Movz (x 0, 40, 0));
    Asm.ins (Insn.Add_imm (x 0, x 0, 2));
    Asm.ins (Insn.Sub_imm (Insn.SP, Insn.SP, 16));
    Asm.ins (Insn.Str (x 0, Insn.Off (Insn.SP, 0)));
    Asm.ins (Insn.Ldr (x 1, Insn.Off (Insn.SP, 0)));
    Asm.ins (Insn.Add_imm (Insn.SP, Insn.SP, 16));
  ]

let test_wrapped_clean () =
  List.iter
    (fun (mname, mode) ->
      List.iter
        (fun (sname, scheme) ->
          let config = { C.Config.full with scheme; mode } in
          match C.Instrument.wrap config ~name:"f" body with
          | exception _ -> () (* unsupported combination (e.g. compat+chained) *)
          | f ->
              let prog = Asm.create () in
              Asm.add_function prog ~name:"f" f.C.Instrument.items;
              let layout = Asm.assemble prog ~base in
              let diags =
                L.lint_insns ~policy:(C.Verifier.policy config)
                  ~entries:(List.map snd layout.Asm.symbols)
                  (Array.to_list layout.Asm.code)
              in
              Alcotest.(check int)
                (Printf.sprintf "%s/%s wrapped function is clean" mname sname)
                0 (List.length diags))
        schemes)
    modes

(* ----- one assertion per diagnostic class ----- *)

let listing insns = List.mapi (fun i insn -> (Int64.add base (Int64.of_int (4 * i)), insn)) insns

let kinds insns =
  List.map (fun d -> D.kind_name d.D.kind) (L.lint_insns ~policy:strict_policy (listing insns))

let has insns k = List.mem k (kinds insns)

let test_oracle_classes () =
  Alcotest.(check bool) "signing oracle" true
    (has
       [ Insn.Ldr (x 0, Insn.Off (Insn.SP, 0)); Insn.Pac (Sysreg.IB, x 0, x 9); Insn.Ret ]
       "signing-oracle");
  Alcotest.(check bool) "unauthenticated branch" true
    (has [ Insn.Ldr (x 8, Insn.Off (x 0, 0)); Insn.Br (x 8) ] "unauthenticated-branch");
  Alcotest.(check bool) "stripped branch" true
    (has
       [ Insn.Ldr (x 8, Insn.Off (x 0, 0)); Insn.Xpac (x 8); Insn.Blr (x 8); Insn.Ret ]
       "unauthenticated-branch");
  Alcotest.(check bool) "toctou spill" true
    (has
       [ Insn.Aut (Sysreg.DA, x 0, x 9); Insn.Str (x 0, Insn.Off (Insn.SP, 8)); Insn.Ret ]
       "toctou-spill");
  Alcotest.(check bool) "unprotected return" true
    (has
       [
         Insn.Stp (Insn.fp, Insn.lr, Insn.Pre (Insn.SP, -16));
         Insn.Ldp (Insn.fp, Insn.lr, Insn.Post (Insn.SP, 16));
         Insn.Ret;
       ]
       "unprotected-return");
  Alcotest.(check bool) "modifier mismatch" true
    (has
       [
         Insn.Mov (x 9, Insn.SP);
         Insn.Pac (Sysreg.IB, Insn.lr, x 9);
         Insn.Sub_imm (Insn.SP, Insn.SP, 32);
         Insn.Mov (x 9, Insn.SP);
         Insn.Aut (Sysreg.IB, Insn.lr, x 9);
         Insn.Ret;
       ]
       "modifier-sp-mismatch");
  Alcotest.(check bool) "key read" true
    (has [ Insn.Mrs (x 0, Sysreg.APIBKeyHi_EL1); Insn.Ret ] "key-register-read");
  Alcotest.(check bool) "key write" true
    (has [ Insn.Msr (Sysreg.APIBKeyLo_EL1, x 0); Insn.Ret ] "key-register-write");
  Alcotest.(check bool) "sctlr write" true
    (has [ Insn.Msr (Sysreg.SCTLR_EL1, x 0); Insn.Ret ] "sctlr-write");
  let clobber =
    L.check_body [ Asm.ins (Insn.Movz (x 15, 1, 0)); Asm.ins Insn.Ret ]
  in
  Alcotest.(check bool) "reserved clobber" true
    (List.exists (fun d -> D.kind_name d.D.kind = "reserved-clobber") clobber);
  (* ...but the canonical mov-into-x16/x17 feeding a 1716 form is not a
     clobber: it is the architectural operand interface. *)
  let idiom =
    L.check_body
      [
        Asm.ins (Insn.Mov (Insn.ip1, x 0));
        Asm.ins (Insn.Mov (Insn.ip0, x 1));
        Asm.ins (Insn.Aut1716 Sysreg.IB);
        Asm.ins (Insn.Mov (x 0, Insn.ip1));
      ]
  in
  Alcotest.(check int) "1716 idiom exempt" 0 (List.length idiom)

(* ----- no false positives on clean code shapes ----- *)

let test_clean_shapes () =
  (* a leaf returning through an untouched LR is fine everywhere *)
  Alcotest.(check int) "bare ret" 0 (List.length (kinds [ Insn.Ret ]));
  (* authenticate-then-branch is the sanctioned forward-edge pattern: no
     warnings or errors — but the unresolved BR target is surfaced as an
     info diagnostic, because the CFG is truncated there *)
  let aut_br =
    L.lint_insns ~policy:strict_policy
      (listing
         [
           Insn.Ldr (x 8, Insn.Off (x 0, 0));
           Insn.Aut (Sysreg.IA, x 8, x 9);
           Insn.Br (x 8);
         ])
  in
  Alcotest.(check int) "aut then br: no warnings or errors" 0
    (List.length (List.filter (fun d -> D.severity d <> D.Info) aut_br));
  Alcotest.(check (list string)) "aut then br: BR visibility info" [ "unresolved-indirect" ]
    (List.map (fun d -> D.kind_name d.D.kind) aut_br);
  (* balanced sign/auth at the same SP depth *)
  Alcotest.(check int) "balanced modifier" 0
    (List.length
       (kinds
          [
            Insn.Mov (x 9, Insn.SP);
            Insn.Pac (Sysreg.IB, Insn.lr, x 9);
            Insn.Sub_imm (Insn.SP, Insn.SP, 32);
            Insn.Add_imm (Insn.SP, Insn.SP, 32);
            Insn.Mov (x 9, Insn.SP);
            Insn.Aut (Sysreg.IB, Insn.lr, x 9);
            Insn.Ret;
          ]))

(* ----- the built kernel image under every config: no errors ever;
   the census grades each scheme's modifier diversity as the paper's
   argument predicts ----- *)

let is_collision d = match d.D.kind with D.Modifier_collision _ -> true | _ -> false

let test_kernel_image_clean () =
  List.iter
    (fun (name, config, expect) ->
      let diags = (K.Kbuild.lint_report config).K.Kbuild.diags in
      Alcotest.(check int)
        (Printf.sprintf "%s kernel image has no errors" name)
        0
        (List.length (List.filter D.is_error diags));
      match expect with
      | `Clean ->
          Alcotest.(check int)
            (Printf.sprintf "%s kernel image has no findings" name)
            0 (List.length diags)
      | `Info_only ->
          (* diverse modifiers: only object-conditional census notes *)
          Alcotest.(check bool)
            (Printf.sprintf "%s kernel image: info findings only" name)
            true
            (List.for_all (fun d -> D.severity d = D.Info) diags)
      | `Sp_collision ->
          (* the whole point of the census: SP-congruent modifier
             classes are substitution gadgets, reported as warnings *)
          Alcotest.(check bool)
            (Printf.sprintf "%s kernel image: sp-dependent collision class" name)
            true
            (List.exists
               (fun d ->
                 match d.D.kind with
                 | D.Modifier_collision c ->
                     c.D.dynamism = D.Sp_dependent && D.severity d = D.Warning
                     && c.D.pairs > 0
                 | _ -> false)
               diags);
          Alcotest.(check bool)
            (Printf.sprintf "%s kernel image: only collision findings" name)
            true
            (List.for_all is_collision diags))
    [
      ("full", C.Config.full, `Info_only);
      ("backward", C.Config.backward_only, `Clean);
      ("compat", C.Config.compat, `Info_only);
      ("none", C.Config.none, `Clean);
      ("sp-only", { C.Config.backward_only with scheme = C.Modifier.Sp_only }, `Sp_collision);
      ( "parts",
        { C.Config.backward_only with scheme = C.Modifier.Parts 0x7357L },
        `Sp_collision );
      ( "chained",
        { C.Config.backward_only with scheme = C.Modifier.Chained },
        `Info_only );
    ]

(* ----- the loader gate ----- *)

let boot () = K.System.boot ~config:C.Config.full ~seed:7L ()

let test_loader_rejects_with_diag () =
  let sys = boot () in
  let rogue =
    Kelf.Object_file.add_function
      (Kelf.Object_file.empty "rogue")
      ~name:"rogue_entry"
      [ Asm.ins (Insn.Msr (Sysreg.APIBKeyLo_EL1, x 0)); Asm.ins Insn.Ret ]
  in
  match K.System.load_module sys rogue with
  | Result.Ok _ -> Alcotest.fail "rogue module accepted"
  | Result.Error (Kelf.Loader.Verification_failed vs) ->
      Alcotest.(check bool) "carries a key-register-write diagnostic" true
        (List.exists
           (fun d -> match d.D.kind with D.Key_register_write _ -> true | _ -> false)
           vs)
  | Result.Error e ->
      Alcotest.failf "unexpected error: %s" (Kelf.Loader.error_to_string e)

let test_loader_surfaces_warnings () =
  let sys = boot () in
  let config = K.System.config sys in
  (* authenticated-pointer spill: warning severity, so the module loads,
     but the finding rides on the placed object *)
  let f =
    C.Instrument.wrap config ~name:"leaky_entry"
      [
        Asm.ins (Insn.Aut (Sysreg.DA, x 0, x 9));
        Asm.ins (Insn.Str (x 0, Insn.Off (x 1, 0)));
      ]
  in
  let leaky =
    Kelf.Object_file.add_function
      (Kelf.Object_file.empty "leaky")
      ~name:"leaky_entry" f.C.Instrument.items
  in
  match K.System.load_module sys leaky with
  | Result.Error e ->
      Alcotest.failf "warning-only module rejected: %s" (Kelf.Loader.error_to_string e)
  | Result.Ok placed ->
      Alcotest.(check bool) "lint_warnings is non-empty" true
        (placed.Kelf.Loader.lint_warnings <> []);
      Alcotest.(check bool) "and they are toctou spills" true
        (List.for_all
           (fun d -> match d.D.kind with D.Toctou_spill _ -> true | _ -> false)
           placed.Kelf.Loader.lint_warnings)

(* ----- call-graph reconstruction ----- *)

let test_callgraph () =
  let prog = Asm.create () in
  Asm.add_function prog ~name:"root"
    [
      Asm.ins (Insn.Movz (x 0, 1, 0));
      Asm.bl_to "leaf";
      (* resolved indirect: ADR materializes the target *)
      Asm.adr_of (x 8) "leaf";
      Asm.ins (Insn.Blr (x 8));
      (* unresolved indirect: target loaded from memory *)
      Asm.ins (Insn.Ldr (x 9, Insn.Off (Insn.SP, 0)));
      Asm.ins (Insn.Blr (x 9));
      Asm.ins Insn.Ret;
    ];
  Asm.add_function prog ~name:"leaf" [ Asm.ins (Insn.Movz (x 0, 2, 0)); Asm.ins Insn.Ret ];
  let layout = Asm.assemble prog ~base in
  let cg = Paclint.Callgraph.build ~symbols:layout.Asm.symbols layout.Asm.code in
  Alcotest.(check int) "two functions" 2 (Array.length cg.Paclint.Callgraph.fns);
  let root = cg.Paclint.Callgraph.fns.(0) in
  Alcotest.(check (option string)) "root named" (Some "root") root.Paclint.Callgraph.name;
  let kinds =
    List.map
      (fun c ->
        ( c.Paclint.Callgraph.kind,
          Option.is_some c.Paclint.Callgraph.target ))
      root.Paclint.Callgraph.calls
  in
  Alcotest.(check int) "three call sites" 3 (List.length kinds);
  Alcotest.(check bool) "bl resolved" true
    (List.mem (Paclint.Callgraph.Direct, true) kinds);
  Alcotest.(check bool) "adr-fed blr resolved" true
    (List.mem (Paclint.Callgraph.Indirect, true) kinds);
  Alcotest.(check bool) "loaded blr unresolved" true
    (List.mem (Paclint.Callgraph.Indirect, false) kinds);
  Alcotest.(check int) "one unresolved site" 1 (Paclint.Callgraph.unresolved_count cg);
  let leaf_entry = List.assoc "leaf" layout.Asm.symbols in
  (match Paclint.Callgraph.fn_index cg leaf_entry with
  | Some i ->
      Alcotest.(check (list int)) "leaf's only caller is root" [ 0 ]
        (Paclint.Callgraph.callers cg).(i)
  | None -> Alcotest.fail "leaf not partitioned at its entry");
  (* the resolved BLR site feeds hints; the unresolved one does not *)
  let hinted =
    Array.to_list cg.Paclint.Callgraph.code
    |> List.filter (fun (va, _) -> Paclint.Callgraph.hints cg va <> [])
  in
  Alcotest.(check int) "exactly one hinted site" 1 (List.length hinted)

(* ----- census classes and the scheme rule packs ----- *)

let parts_config = { C.Config.backward_only with scheme = C.Modifier.Parts 0x7357L }
let sp_config = { C.Config.backward_only with scheme = C.Modifier.Sp_only }

let test_census_classes () =
  (* PARTS: one fixed image id for every function, so all backward-edge
     sign/auth sites share one SP-dependent class with 16 dynamic bits *)
  let census = (K.Kbuild.lint_report parts_config).K.Kbuild.census in
  let colliding =
    List.filter
      (fun c -> c.Paclint.Census.pairs > 0)
      census.Paclint.Census.classes
  in
  (match colliding with
  | [ c ] ->
      Alcotest.(check string) "the PARTS modifier class"
        "bfi(imm:0x7357,sp,48,16)" c.Paclint.Census.cls;
      Alcotest.(check bool) "sp-dependent" true
        (c.Paclint.Census.dynamism = D.Sp_dependent);
      Alcotest.(check int) "16 dynamic bits" 16 c.Paclint.Census.dynamic_bits;
      Alcotest.(check (float 1e-9)) "forgery probability 2^-16"
        (2. ** -16.)
        (Paclint.Census.forgery_probability c);
      Alcotest.(check bool) "spans several functions" true
        (c.Paclint.Census.fn_count > 1)
  | l -> Alcotest.failf "expected exactly one colliding class, got %d" (List.length l));
  (* Camouflage: address diversity separates every function's class —
     no cross-function pair anywhere *)
  let census_full = (K.Kbuild.lint_report C.Config.full).K.Kbuild.census in
  Alcotest.(check int) "camouflage kernel: no frame-replay pairs" 0
    (Attacks.Census_check.frame_replay_pairs census_full);
  (* sites are census'd in ascending va *)
  let rec ascending = function
    | a :: (b :: _ as rest) ->
        a.Paclint.Census.va < b.Paclint.Census.va && ascending rest
    | _ -> true
  in
  Alcotest.(check bool) "sites ascending" true (ascending census.Paclint.Census.sites)

let has_violation diags =
  List.exists
    (fun d -> match d.D.kind with D.Scheme_violation _ -> true | _ -> false)
    diags

let test_rule_packs () =
  let lint ?scheme config = (K.Kbuild.lint_report ?scheme config).K.Kbuild.diags in
  (* each scheme's own image satisfies its own pack... *)
  List.iter
    (fun (name, config) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s image passes its own pack" name)
        false
        (has_violation (lint config)))
    [ ("full", C.Config.full); ("sp-only", sp_config); ("parts", parts_config) ];
  (* ...and fails a foreign discipline: PARTS modifiers are not bare SP,
     and contain no function address *)
  Alcotest.(check bool) "parts image violates the sp-only pack" true
    (has_violation (lint ~scheme:Paclint.Rules.Sp_only parts_config));
  Alcotest.(check bool) "parts image violates the camouflage pack" true
    (has_violation (lint ~scheme:Paclint.Rules.Camouflage parts_config));
  Alcotest.(check bool) "sp-only image violates the parts pack" true
    (has_violation (lint ~scheme:Paclint.Rules.Parts sp_config))

(* ----- worker-count independence (the fleet determinism contract) ----- *)

(* Every named image: a round's reused results were computed on
   whichever worker ran them, so each configuration's bytes must match
   the sequential run's. *)
let test_worker_determinism () =
  List.iter
    (fun (name, config) ->
      let fingerprint par =
        let r = K.Kbuild.lint_report ~par config in
        Paclint.Census.to_json r.K.Kbuild.census
        ^ Paclint.Diag.list_to_json r.K.Kbuild.diags
        ^ Paclint.Summary.summaries_to_json r.K.Kbuild.summary
      in
      let seq = fingerprint L.seq_par in
      List.iter
        (fun workers ->
          let par = { L.pmap = (fun ~jobs f -> Fleet.Pool.map ~workers ~jobs f) } in
          Alcotest.(check bool)
            (Printf.sprintf "%s byte-identical at %d workers" name workers)
            true
            (String.equal seq (fingerprint par)))
        [ 2; 8 ])
    C.Config.named

(* ----- .kelf round trip and the module lint gate ----- *)

let test_kelf_roundtrip () =
  let dir = Filename.temp_file "kelf" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
  @@ fun () ->
  let obj = List.assoc "clean" (Kelf.Samples.all C.Config.full) in
  let path = Filename.concat dir "clean.kelf" in
  Kelf.Object_file.write_file path obj;
  (match Kelf.Object_file.read_file path with
  | Ok back ->
      Alcotest.(check string) "name survives" obj.Kelf.Object_file.obj_name
        back.Kelf.Object_file.obj_name;
      Alcotest.(check int) "instruction count survives"
        (Kelf.Object_file.text_instruction_count obj)
        (Kelf.Object_file.text_instruction_count back)
  | Error e -> Alcotest.failf "round trip failed: %s" e);
  let bogus = Filename.concat dir "bogus.kelf" in
  let oc = open_out bogus in
  output_string oc "not a kelf at all";
  close_out oc;
  (match Kelf.Object_file.read_file bogus with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad magic accepted");
  match Kelf.Object_file.read_file (Filename.concat dir "absent.kelf") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file accepted"

let test_lint_module () =
  (* the clean module: no errors under any configuration's gate *)
  let clean =
    K.Kbuild.lint_module C.Config.full
      (List.assoc "clean" (Kelf.Samples.all C.Config.full))
  in
  Alcotest.(check int) "clean module: no errors" 0
    (List.length (List.filter D.is_error clean.K.Kbuild.diags));
  (* the oracle fixture under PARTS: the cross-function signing oracle is
     an error, the prologue collision a warning — and neither is visible
     to a per-function analysis (examples/static_lint.ml demonstrates
     that side; here we pin the module gate's verdict) *)
  let oracle = K.Kbuild.lint_module parts_config (Kelf.Samples.oracle parts_config) in
  Alcotest.(check bool) "oracle module: signing oracle found" true
    (List.exists
       (fun d -> match d.D.kind with D.Signing_oracle _ -> true | _ -> false)
       oracle.K.Kbuild.diags);
  Alcotest.(check bool) "oracle module: prologue collision found" true
    (List.exists
       (fun d ->
         match d.D.kind with
         | D.Modifier_collision c -> c.D.pairs > 0 && c.D.dynamism = D.Sp_dependent
         | _ -> false)
       oracle.K.Kbuild.diags);
  Alcotest.(check bool) "oracle module rejected (has errors)" true
    (List.exists D.is_error oracle.K.Kbuild.diags)

(* ----- static census vs. live substitution (both directions) ----- *)

let test_census_cross_validation () =
  match Attacks.Census_check.cross_validate ~seed:42L () with
  | [ parts; full ] ->
      Alcotest.(check bool) "parts: census predicts frame-replay pairs" true
        (parts.Attacks.Census_check.predicted_pairs > 0);
      Alcotest.(check bool) "parts: replay demonstrated live" true
        (match parts.Attacks.Census_check.outcome with
        | Attacks.Replay.Accepted _ -> true
        | _ -> false);
      Alcotest.(check bool) "camouflage: census predicts none" true
        (full.Attacks.Census_check.predicted_pairs = 0);
      Alcotest.(check bool) "camouflage: replay rejected" true
        (full.Attacks.Census_check.outcome = Attacks.Replay.Rejected);
      List.iter
        (fun v ->
          Alcotest.(check bool)
            (v.Attacks.Census_check.config_name ^ " consistent")
            true v.Attacks.Census_check.consistent)
        [ parts; full ]
  | l -> Alcotest.failf "expected two verdicts, got %d" (List.length l)

(* ----- interprocedural == fully inlined, on generated call chains -----

   A chain f0 -> f1 -> ... -> f{n-1} of straight-line bodies, each
   callee called exactly once, only the root a symbol. Analyzing the
   outlined image with per-function summaries must produce exactly the
   diagnostic kinds of the intraprocedural lint over the hand-inlined
   program: with one call site per callee and no branching, summary
   application (entry flows in, exit states and may-write masks out) is
   semantically the identity transformation inlining performs. *)

let parity_policy =
  {
    L.protect_return = false;
    (* bodies have no LR discipline *)
    protect_pointers = true;
    sp_modifier = false;
    allowed_key_writer = (fun _ -> false);
  }

let gen_body_insn =
  QCheck2.Gen.(
    let reg = map (fun n -> Insn.R n) (int_range 0 7) in
    let base_reg = oneof [ return Insn.SP; map (fun n -> Insn.R n) (int_range 0 3) ] in
    let key = oneofl Sysreg.[ IA; IB; DA; DB ] in
    let off = map (fun k -> 8 * k) (int_range 0 3) in
    frequency
      [
        (3, map2 (fun r v -> Insn.Movz (r, v, 0)) reg (int_range 0 100));
        (2, map2 (fun r r' -> Insn.Mov (r, r')) reg reg);
        (3, map2 (fun r (b, o) -> Insn.Ldr (r, Insn.Off (b, o))) reg (pair base_reg off));
        (2, map2 (fun r (b, o) -> Insn.Str (r, Insn.Off (b, o))) reg (pair base_reg off));
        (2, map2 (fun (k, r) r' -> Insn.Pac (k, r, r')) (pair key reg) reg);
        (2, map2 (fun (k, r) r' -> Insn.Aut (k, r, r')) (pair key reg) reg);
        (1, map (fun r -> Insn.Xpac r) reg);
        (2, map2 (fun r r' -> Insn.Add_imm (r, r', 8)) reg reg);
        (1, map (fun r -> Insn.Mrs (r, Sysreg.APIBKeyHi_EL1)) reg);
      ])

let gen_chain =
  QCheck2.Gen.(
    let segment = list_size (int_range 0 5) gen_body_insn in
    list_size (int_range 1 4) (pair segment segment))

let kind_multiset diags = List.sort compare (List.map (fun d -> D.kind_name d.D.kind) diags)

let prop_interprocedural_matches_inlined =
  QCheck2.Test.make ~count:300
    ~name:"Summary.analyze_image == lint over the inlined chain" gen_chain
    (fun segs ->
      let n = List.length segs in
      let fname i = Printf.sprintf "f%d" i in
      (* outlined: f_i = pre_i; bl f_{i+1}; post_i; ret *)
      let prog = Asm.create () in
      List.iteri
        (fun i (pre, post) ->
          let items =
            List.map Asm.ins pre
            @ (if i + 1 < n then [ Asm.bl_to (fname (i + 1)) ] else [])
            @ List.map Asm.ins post
            @ [ Asm.ins Insn.Ret ]
          in
          Asm.add_function prog ~name:(fname i) items)
        segs;
      let layout = Asm.assemble prog ~base in
      let report =
        Paclint.Summary.analyze_image
          ~symbols:[ ("f0", base) ]
          ~policy:parity_policy layout.Asm.code
      in
      (* inlined: pre_0; pre_1; ...; post_{n-1}; ...; post_0 *)
      let inlined =
        List.concat_map fst segs @ List.concat (List.rev_map snd segs)
      in
      let intra = L.lint_insns ~policy:parity_policy (listing inlined) in
      kind_multiset report.Paclint.Summary.diags = kind_multiset intra)

(* ----- Lint.key_access == the old linear scan ----- *)

(* The seed's Core.Verifier.check, verbatim but for the result type
   (the diagnostic kind each of its reasons became): the oracle
   [key_access] must reproduce observationally. *)
let reference_check ~allowed va insn =
  match Insn.reads_sysreg insn with
  | Some sr when Sysreg.is_pauth_key sr -> Some (va, insn, D.Key_register_read sr)
  | Some _ | None -> (
      match Insn.writes_sysreg insn with
      | Some sr when Sysreg.is_pauth_key sr && not (allowed va) ->
          Some (va, insn, D.Key_register_write sr)
      | Some Sysreg.SCTLR_EL1 when not (allowed va) -> Some (va, insn, D.Sctlr_write)
      | Some _ | None -> None)

let gen_scan_insn =
  QCheck2.Gen.(
    let reg = map (fun n -> Insn.R n) (int_range 0 30) in
    let sysreg = oneofl Sysreg.all in
    frequency
      [
        (3, map2 (fun r sr -> Insn.Mrs (r, sr)) reg sysreg);
        (3, map2 (fun r sr -> Insn.Msr (sr, r)) reg sysreg);
        (1, return Insn.Nop);
        (1, return Insn.Ret);
        (1, map (fun r -> Insn.Movz (r, 1, 0)) reg);
        (1, map2 (fun k r -> Insn.Pac (k, r, r)) (oneofl Sysreg.[ IA; IB; DA; DB; GA ]) reg);
      ])

let prop_scan_matches_reference =
  QCheck2.Test.make ~count:500 ~name:"Lint.key_access == old linear scan"
    QCheck2.Gen.(pair (list_size (int_range 0 40) gen_scan_insn) (int_range 1 4))
    (fun (insns, m) ->
      let stream = listing insns in
      let allowed va =
        Int64.rem (Int64.div (Int64.sub va base) 4L) (Int64.of_int m) = 0L
      in
      let got =
        List.filter_map
          (fun (va, i) ->
            Option.map
              (fun (d : D.t) -> (d.D.va, d.D.insn, d.D.kind))
              (L.key_access ~allowed va i))
          stream
      in
      let want = List.filter_map (fun (va, i) -> reference_check ~allowed va i) stream in
      got = want)

(* ----- the summaries of every kernel image, pinned ----- *)

(* MD5 of [Summary.summaries_to_json] for each configuration's kernel
   image: entry and exit provenance, may-write sets, SP displacement and
   the round count per function. A change to the dataflow driver that
   moves any summary byte fails here; a deliberate analyzer change
   re-pins these digests. *)
let summary_digests =
  [
    ("full", "db949c90e4289f1967f81ba8705e4613");
    ("backward", "63831dc05ea4ebe7a7a0a9d53874a4e4");
    ("compat", "f1dfbe4e8c0038c2da21c378ea611acb");
    ("none", "64d9bff6f536f6153b33a80e81fde707");
    ("sp-only", "b6ec000b4909670bd8e5edd5a70237d5");
    ("parts", "fec02be46fd79055225660051430f523");
    ("chained", "bda155d025e723814712fcf56891f83b");
  ]

let test_summary_digests () =
  List.iter
    (fun (name, config) ->
      let r = K.Kbuild.lint_report config in
      Alcotest.(check string)
        (Printf.sprintf "%s image summaries" name)
        (List.assoc name summary_digests)
        (Digest.to_hex
           (Digest.string (Paclint.Summary.summaries_to_json r.K.Kbuild.summary))))
    C.Config.named

(* ----- SP-modifier pairing is judged per entry ----- *)

(* Function [b] signs LR 16 bytes below its entry SP and authenticates
   it at the entry SP: a mismatch whatever sits beside it. A function
   listed before it that signs at depth 0, or under a modifier of
   unknown depth, must neither excuse nor silence the finding. *)
let test_sp_pairing_per_entry () =
  let b =
    [
      Insn.Sub_imm (Insn.SP, Insn.SP, 16);
      Insn.Mov (x 9, Insn.SP);
      Insn.Pac (Sysreg.IB, Insn.lr, x 9);
      Insn.Add_imm (Insn.SP, Insn.SP, 16);
      Insn.Mov (x 9, Insn.SP);
      Insn.Aut (Sysreg.IB, Insn.lr, x 9);
      Insn.Ret;
    ]
  in
  let mismatches a =
    let entries = [ base; Int64.add base (Int64.of_int (4 * List.length a)) ] in
    List.filter_map
      (fun d ->
        match d.D.kind with D.Modifier_sp_mismatch delta -> Some delta | _ -> None)
      (L.lint_insns ~policy:strict_policy ~entries (listing (a @ b)))
  in
  let at_depth_0 =
    [
      Insn.Mov (x 9, Insn.SP);
      Insn.Pac (Sysreg.IB, Insn.lr, x 9);
      Insn.Mov (x 9, Insn.SP);
      Insn.Aut (Sysreg.IB, Insn.lr, x 9);
      Insn.Ret;
    ]
  in
  let unknown_depth =
    [ Insn.Ldr (x 9, Insn.Off (x 0, 0)); Insn.Pac (Sysreg.IB, Insn.lr, x 9); Insn.Ret ]
  in
  Alcotest.(check (list int)) "alone" [ 0 ] (mismatches []);
  Alcotest.(check (list int)) "beside a depth-0 signer" [ 0 ] (mismatches at_depth_0);
  Alcotest.(check (list int)) "beside an unknown modifier" [ 0 ] (mismatches unknown_depth)

(* ----- change-driven rounds: fewer analyses, the same bytes ----- *)

(* A round reruns only the functions whose entry state or callee
   summaries the previous merge moved, so every named image needs fewer
   analyses than one per live function per round. Two runs over the same
   image count the same analyses and write the same bytes: no reuse
   state outlives an [analyze_image] call. *)
let test_reuse_counts () =
  List.iter
    (fun (name, config) ->
      let run () = K.Kbuild.lint_report config in
      let a = run () and b = run () in
      let sa = a.K.Kbuild.summary and sb = b.K.Kbuild.summary in
      let live =
        Array.fold_left
          (fun n s -> if s.Paclint.Summary.entry_in <> None then n + 1 else n)
          0 sa.Paclint.Summary.summaries
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d analyses < %d rounds x %d live functions" name
           sa.Paclint.Summary.analyses sa.Paclint.Summary.rounds live)
        true
        (sa.Paclint.Summary.analyses < sa.Paclint.Summary.rounds * live);
      Alcotest.(check int)
        (name ^ ": a second run counts the same analyses")
        sa.Paclint.Summary.analyses sb.Paclint.Summary.analyses;
      Alcotest.(check string)
        (name ^ ": a second run writes the same summaries")
        (Paclint.Summary.summaries_to_json sa)
        (Paclint.Summary.summaries_to_json sb);
      Alcotest.(check string)
        (name ^ ": a second run writes the same diagnostics")
        (Paclint.Diag.list_to_json a.K.Kbuild.diags)
        (Paclint.Diag.list_to_json b.K.Kbuild.diags))
    C.Config.named

(* ----- damaged .kelf objects are refused ----- *)

(* The clean sample module ([modgen -c full]'s clean.kelf) cut short, or
   with one byte overwritten, inserted or deleted — the generator
   [json 7] and [snapshot 19] share — must read back as [Error]: only a
   payload whose length and MD5 match its header reaches [Marshal]. A
   draw that leaves the file as it was is no damage and is discarded, so
   200 damaged copies are read. *)
let prop_damaged_kelf_refused =
  let with_temp f =
    let path = Filename.temp_file "damaged" ".kelf" in
    Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)
  in
  let original =
    lazy
      (with_temp (fun path ->
           Kelf.Object_file.write_file path
             (List.assoc "clean" (Kelf.Samples.all C.Config.full));
           In_channel.with_open_bin path In_channel.input_all))
  in
  QCheck.Test.make ~count:200 ~name:"a damaged .kelf object reads as Error"
    (QCheck.make ~print:Test_json.print_damage Test_json.damage_gen)
    (fun dmg ->
      let file = Test_json.damage (Lazy.force original) dmg in
      QCheck.assume (file <> Lazy.force original);
      with_temp (fun path ->
          Out_channel.with_open_bin path (fun oc -> output_string oc file);
          match Kelf.Object_file.read_file path with Error _ -> true | Ok _ -> false))

let suite =
  [
    Alcotest.test_case "wrapped functions clean (mode x scheme)" `Quick test_wrapped_clean;
    Alcotest.test_case "oracle classes detected" `Quick test_oracle_classes;
    Alcotest.test_case "clean shapes stay clean" `Quick test_clean_shapes;
    Alcotest.test_case "kernel image clean per config" `Quick test_kernel_image_clean;
    Alcotest.test_case "loader rejects with diagnostics" `Quick test_loader_rejects_with_diag;
    Alcotest.test_case "loader surfaces warnings" `Quick test_loader_surfaces_warnings;
    Alcotest.test_case "call graph reconstruction" `Quick test_callgraph;
    Alcotest.test_case "census classes per scheme" `Quick test_census_classes;
    Alcotest.test_case "scheme rule packs" `Quick test_rule_packs;
    Alcotest.test_case "worker-count independence" `Quick test_worker_determinism;
    Alcotest.test_case ".kelf round trip" `Quick test_kelf_roundtrip;
    Alcotest.test_case "module lint gate" `Quick test_lint_module;
    Alcotest.test_case "census vs live replay (both ways)" `Quick test_census_cross_validation;
    QCheck_alcotest.to_alcotest prop_interprocedural_matches_inlined;
    QCheck_alcotest.to_alcotest prop_scan_matches_reference;
    Alcotest.test_case "kernel image summaries pinned" `Quick test_summary_digests;
    Alcotest.test_case "SP pairing judged per entry" `Quick test_sp_pairing_per_entry;
    Alcotest.test_case "rounds rerun only moved functions" `Quick test_reuse_counts;
    QCheck_alcotest.to_alcotest prop_damaged_kelf_refused;
  ]
