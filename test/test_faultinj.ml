(* Fault injection: the injector's trigger/model/persistence semantics,
   one deterministic campaign trial per fault-model/outcome pairing, the
   reproducibility of whole campaigns, the zero-fault equivalence
   property, and the per-CPU quarantine demonstration. *)

open Aarch64
module C = Camouflage
module K = Kernel
module FI = Faultinj

let boot ?(config = C.Config.full) ?(cpus = 1) () =
  K.System.boot ~config ~seed:42L ~cpus ()

let exit_str = K.System.user_exit_to_string

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let expect_exit label expected = function
  | K.System.Exited v -> Alcotest.(check int64) label expected v
  | other -> Alcotest.failf "%s: %s" label (exit_str other)

(* Injector unit semantics. *)

let test_gpr_flip_transient () =
  let sys = boot () in
  let prog = Asm.create () in
  Asm.add_function prog ~name:"main"
    [
      Asm.ins (Insn.Movz (Insn.R 5, 1234, 0));
      Asm.ins (Insn.Add_imm (Insn.R 6, Insn.R 6, 1));
      Asm.ins (Insn.Mov (Insn.R 0, Insn.R 5));
      Asm.ins (Insn.Svc K.Kbuild.sys_exit);
    ];
  let layout = K.System.map_user_program sys prog in
  let entry = Asm.symbol layout "main" in
  let mov_pc = Int64.add entry 8L in
  let inj =
    FI.Injector.create
      {
        FI.Injector.trigger = FI.Injector.In_pc_range { lo = mov_pc; hi = mov_pc };
        model = FI.Injector.Gpr_flip { reg = 5; bits = [ 3 ] };
        persistence = FI.Injector.Transient;
      }
  in
  FI.Injector.arm inj (K.System.cpu sys);
  expect_exit "bit 3 of x5 flipped before the mov"
    (Int64.logxor 1234L 8L)
    (K.System.run_user sys ~entry);
  Alcotest.(check bool) "fired" true (FI.Injector.fired inj);
  Alcotest.(check int) "one injection" 1 (FI.Injector.injections inj);
  (match FI.Injector.first_strike inj with
  | Some (cpu, pc) ->
      Alcotest.(check int) "struck cpu 0" 0 cpu;
      Alcotest.(check int64) "struck at the mov" mov_pc pc
  | None -> Alcotest.fail "no strike recorded");
  Cpu.set_step_hook (K.System.cpu sys) None

let store_load_program () =
  let data_lo = Int64.to_int (Int64.logand K.Layout.user_data_base 0xffffL) in
  let data_hi =
    Int64.to_int (Int64.shift_right_logical K.Layout.user_data_base 16) land 0xffff
  in
  let prog = Asm.create () in
  Asm.add_function prog ~name:"main"
    [
      Asm.ins (Insn.Movz (Insn.R 9, 4, 0));
      Asm.ins (Insn.Movz (Insn.R 1, data_lo, 0));
      Asm.ins (Insn.Movk (Insn.R 1, data_hi, 16));
      Asm.ins (Insn.Str (Insn.R 9, Insn.Off (Insn.R 1, 0)));
      Asm.ins (Insn.Ldr (Insn.R 0, Insn.Off (Insn.R 1, 0)));
      Asm.ins (Insn.Svc K.Kbuild.sys_exit);
    ];
  prog

(* A transient memory flip is overwritten by a later store; a stuck-at
   flip survives the rewrite because the defect keeps forcing the bit. *)
let test_mem_flip_transient_overwritten () =
  let sys = boot () in
  let layout = K.System.map_user_program sys (store_load_program ()) in
  let inj =
    FI.Injector.create
      {
        FI.Injector.trigger = FI.Injector.Always;
        model = FI.Injector.Mem_flip { va = K.Layout.user_data_base; bits = [ 0 ] };
        persistence = FI.Injector.Transient;
      }
  in
  FI.Injector.arm inj (K.System.cpu sys);
  expect_exit "store heals the transient flip" 4L
    (K.System.run_user sys ~entry:(Asm.symbol layout "main"));
  Cpu.set_step_hook (K.System.cpu sys) None

let test_mem_flip_stuck_survives_store () =
  let sys = boot () in
  let layout = K.System.map_user_program sys (store_load_program ()) in
  let inj =
    FI.Injector.create
      {
        FI.Injector.trigger = FI.Injector.Always;
        model = FI.Injector.Mem_flip { va = K.Layout.user_data_base; bits = [ 0 ] };
        persistence = FI.Injector.Stuck;
      }
  in
  FI.Injector.arm inj (K.System.cpu sys);
  expect_exit "bit 0 stuck at 1 through the store" 5L
    (K.System.run_user sys ~entry:(Asm.symbol layout "main"));
  (* the strike, then one forcing before each of the 28 hooked
     instructions that follow it (the rest of the program and the exit
     path) *)
  Alcotest.(check int) "one injection per hooked instruction from the strike on" 29
    (FI.Injector.injections inj);
  Cpu.set_step_hook (K.System.cpu sys) None

let test_skip_insn () =
  let sys = boot () in
  let prog = Asm.create () in
  Asm.add_function prog ~name:"main"
    [
      Asm.ins (Insn.Movz (Insn.R 0, 7, 0));
      Asm.ins (Insn.Add_imm (Insn.R 0, Insn.R 0, 1));
      Asm.ins (Insn.Svc K.Kbuild.sys_exit);
    ];
  let layout = K.System.map_user_program sys prog in
  let entry = Asm.symbol layout "main" in
  let add_pc = Int64.add entry 4L in
  let inj =
    FI.Injector.create
      {
        FI.Injector.trigger = FI.Injector.In_pc_range { lo = add_pc; hi = add_pc };
        model = FI.Injector.Skip_insn;
        persistence = FI.Injector.Transient;
      }
  in
  FI.Injector.arm inj (K.System.cpu sys);
  expect_exit "the add was suppressed" 7L (K.System.run_user sys ~entry);
  Cpu.set_step_hook (K.System.cpu sys) None

(* Key-register faults: a transient flip is healed by the XOM setter on
   the next kernel entry; a stuck-at flip defeats it, and the next
   data-key authentication (the console file's signed f_ops) fails. *)
let data_key () = C.Keys.key_for C.Config.full.C.Config.mode C.Keys.Data

let write_args sys =
  let ubuf = K.Layout.user_data_base in
  K.Kmem.map_user_region (K.System.cpu sys) ~base:ubuf ~bytes:4096 Mmu.rw;
  [ 1L; ubuf; 8L ]

let test_key_flip_transient_heals () =
  let sys = boot () in
  let args = write_args sys in
  let inj =
    FI.Injector.create
      {
        FI.Injector.trigger = FI.Injector.Always;
        model = FI.Injector.Key_flip { key = data_key (); high_half = false; bit = 7 };
        persistence = FI.Injector.Transient;
      }
  in
  FI.Injector.arm inj (K.System.cpu sys);
  (* the flip lands during this syscall's handler... *)
  (match K.System.syscall sys ~nr:K.Kbuild.sys_getpid ~args:[] with
  | K.System.Ok _ -> ()
  | o -> Alcotest.failf "getpid: %s" (match o with K.System.Killed m | K.System.Panicked m -> m | _ -> ""));
  Alcotest.(check bool) "struck" true (FI.Injector.fired inj);
  (* ...and the next entry's key install heals it: authenticated write path works *)
  (match K.System.syscall sys ~nr:K.Kbuild.sys_write ~args with
  | K.System.Ok _ -> ()
  | K.System.Killed m | K.System.Panicked m ->
      Alcotest.failf "write after transient key flip: %s" m);
  Cpu.set_step_hook (K.System.cpu sys) None

let test_key_flip_stuck_detected_by_pac () =
  let sys = boot () in
  let args = write_args sys in
  let inj =
    FI.Injector.create
      {
        FI.Injector.trigger = FI.Injector.Always;
        model = FI.Injector.Key_flip { key = data_key (); high_half = false; bit = 7 };
        persistence = FI.Injector.Stuck;
      }
  in
  FI.Injector.arm inj (K.System.cpu sys);
  (match K.System.syscall sys ~nr:K.Kbuild.sys_write ~args with
  | K.System.Killed m ->
      Alcotest.(check bool) "killed on the PAC path" true (contains ~sub:"PAC" m)
  | K.System.Ok v -> Alcotest.failf "write succeeded (%Ld) under a stuck key fault" v
  | K.System.Panicked m -> Alcotest.failf "panicked: %s" m);
  Cpu.set_step_hook (K.System.cpu sys) None

(* A PAC-field flip must stay inside the PAC field: the stripped
   (unauthenticated) pointer bits are untouched. *)
let test_pac_field_flip_stays_in_field () =
  let sys = boot () in
  let cpu = K.System.cpu sys in
  let sites = Attacks.Primitives.signed_pointer_sites sys in
  let _, va =
    match List.find_opt (fun (l, _) -> contains ~sub:"kernel_sp" l) sites with
    | Some s -> s
    | None -> Alcotest.fail "no kernel_sp site"
  in
  let before = K.Kmem.read64 cpu va in
  let inj =
    FI.Injector.create
      {
        FI.Injector.trigger = FI.Injector.Always;
        model = FI.Injector.Pac_field_flip { va; rank = 5 };
        persistence = FI.Injector.Transient;
      }
  in
  FI.Injector.arm inj cpu;
  ignore (K.System.syscall sys ~nr:K.Kbuild.sys_getpid ~args:[]);
  Cpu.set_step_hook cpu None;
  let after = K.Kmem.read64 cpu va in
  let diff = Int64.logxor before after in
  Alcotest.(check bool) "exactly one bit flipped" true
    (diff <> 0L && Int64.logand diff (Int64.sub diff 1L) = 0L);
  let cfg = Cpu.pointer_cfg cpu before in
  let in_pac =
    List.exists
      (fun (lo, width) ->
        List.exists
          (fun i -> Int64.logand diff (Int64.shift_left 1L (lo + i)) <> 0L)
          (List.init width Fun.id))
      (Vaddr.pac_field cfg)
  in
  Alcotest.(check bool) "the flipped bit lies in the PAC field" true in_pac

(* Deterministic campaign trials: one per fault-model / outcome class,
   each on the session of its config (seed 42). *)

let full_session = lazy (FI.Campaign.create_session ~seed:42L ())

let site_of_task label_suffix sys (spawned : K.System.task list) =
  let task = List.hd spawned in
  let label = Printf.sprintf "task%d.%s" task.K.System.pid label_suffix in
  match
    List.find_opt (fun (l, _) -> l = label) (Attacks.Primitives.signed_pointer_sites sys)
  with
  | Some (_, va) -> va
  | None -> Alcotest.failf "site %s not found" label

let test_trial_pac_field_flip_detected_by_pac () =
  let trial =
    FI.Campaign.run_trial_in (Lazy.force full_session)
      ~spec:(fun sys _layout spawned ->
        {
          FI.Injector.trigger = FI.Injector.Always;
          model =
            FI.Injector.Pac_field_flip
              { va = site_of_task "kernel_sp" sys spawned; rank = 3 };
          persistence = FI.Injector.Transient;
        })
      ()
  in
  Alcotest.(check string) "detected by PAC" "detected-by-pac"
    (FI.Campaign.outcome_name trial.FI.Campaign.outcome);
  Alcotest.(check bool) "fired" true trial.FI.Campaign.fired

let test_trial_saved_pc_flip_detected_by_mmu () =
  let trial =
    FI.Campaign.run_trial_in (Lazy.force full_session)
      ~spec:(fun _sys _layout spawned ->
        let task = List.hd spawned in
        {
          FI.Injector.trigger = FI.Injector.Always;
          model =
            FI.Injector.Mem_flip
              {
                va =
                  Int64.add task.K.System.va
                    (Int64.of_int K.Kobject.Task.off_saved_pc);
                bits = [ 40 ];
              };
          persistence = FI.Injector.Transient;
        })
      ()
  in
  Alcotest.(check string) "wild resume PC caught by the MMU" "detected-by-mmu"
    (FI.Campaign.outcome_name trial.FI.Campaign.outcome)

let test_trial_threshold_one_panics () =
  let config = { C.Config.full with C.Config.bruteforce_threshold = 1 } in
  let trial =
    FI.Campaign.run_trial_in (FI.Campaign.create_session ~config ~seed:42L ())
      ~spec:(fun sys _layout spawned ->
        {
          FI.Injector.trigger = FI.Injector.Always;
          model =
            FI.Injector.Pac_field_flip
              { va = site_of_task "kernel_sp" sys spawned; rank = 3 };
          persistence = FI.Injector.Transient;
        })
      ()
  in
  Alcotest.(check string) "threshold 1: first PAC failure halts" "panicked"
    (FI.Campaign.outcome_name trial.FI.Campaign.outcome)

(* Rewrite the workload's round-counter increment into a BRK: the task
   traps, the kernel kills it — a policed death outside the PAC/MMU
   paths. *)
let test_trial_brk_rewrite_task_killed () =
  let trial =
    FI.Campaign.run_trial_in (Lazy.force full_session)
      ~spec:(fun _sys layout _spawned ->
        let add_pc, add_insn =
          match
            Array.to_list layout.Asm.code
            |> List.find_opt (fun (_, i) ->
                   match i with Insn.Add_imm (Insn.R 21, Insn.R 21, 1) -> true | _ -> false)
          with
          | Some ai -> ai
          | None -> Alcotest.fail "workload has no r21 increment"
        in
        let cur = Encode.encode ~pc:add_pc add_insn in
        let brk = Encode.encode ~pc:add_pc (Insn.Brk 1) in
        let diff = Int32.logxor cur brk in
        let bits =
          List.filter
            (fun b -> Int32.logand diff (Int32.shift_left 1l b) <> 0l)
            (List.init 32 Fun.id)
        in
        let word_aligned = Int64.logand add_pc (Int64.lognot 7L) in
        let bits =
          if word_aligned = add_pc then bits else List.map (fun b -> b + 32) bits
        in
        {
          FI.Injector.trigger = FI.Injector.Always;
          model = FI.Injector.Mem_flip { va = word_aligned; bits };
          persistence = FI.Injector.Transient;
        })
      ()
  in
  Alcotest.(check string) "BRK trap kills the task" "task-killed"
    (FI.Campaign.outcome_name trial.FI.Campaign.outcome)

let test_trial_skip_increment_silent_corruption () =
  let trial =
    FI.Campaign.run_trial_in (Lazy.force full_session)
      ~spec:(fun _sys layout _spawned ->
        let add_pc =
          match
            Array.to_list layout.Asm.code
            |> List.find_opt (fun (_, i) ->
                   match i with Insn.Add_imm (Insn.R 21, Insn.R 21, 1) -> true | _ -> false)
          with
          | Some (pc, _) -> pc
          | None -> Alcotest.fail "workload has no r21 increment"
        in
        {
          FI.Injector.trigger = FI.Injector.In_pc_range { lo = add_pc; hi = add_pc };
          model = FI.Injector.Skip_insn;
          persistence = FI.Injector.Transient;
        })
      ()
  in
  Alcotest.(check string) "one lost increment goes undetected" "silent-corruption"
    (FI.Campaign.outcome_name trial.FI.Campaign.outcome)

let test_trial_unused_word_benign () =
  let trial =
    FI.Campaign.run_trial_in (Lazy.force full_session)
      ~spec:(fun _sys _layout _spawned ->
        {
          FI.Injector.trigger = FI.Injector.Always;
          model =
            FI.Injector.Mem_flip
              { va = Int64.add K.Layout.user_data_base 0x800L; bits = [ 13 ] };
          persistence = FI.Injector.Transient;
        })
      ()
  in
  Alcotest.(check string) "flip in unused memory is benign" "benign"
    (FI.Campaign.outcome_name trial.FI.Campaign.outcome);
  Alcotest.(check bool) "still fired" true trial.FI.Campaign.fired

(* Campaign reproducibility: same seed, byte-identical JSON. *)
let test_campaign_reproducible () =
  let json seed =
    let r = Option.get (Fleet.Campaign.run ~workers:1 ~seed ~trials:6 ()) in
    FI.Campaign.report_to_json r.Fleet.Campaign.report
  in
  let r1 = json 5L in
  Alcotest.(check string) "same seed, same bytes" r1 (json 5L);
  Alcotest.(check bool) "different seed, different trials" true (r1 <> json 6L)

(* One injector armed on both cores shares its state between them:
   a transient strike on one core unhooks both, and a stuck strike
   brings every core's horizon down to 0, since the fault is re-forced
   on whichever core runs next. A traces core runs blocks below its
   horizon, so a core left with a stale horizon would skip forcings
   that interp and icache make: the 2-core reports must be
   byte-identical on every tier. *)
let test_campaign_two_cores_every_tier () =
  List.iter
    (fun seed ->
      let json tier =
        let r = Option.get (Fleet.Campaign.run ~workers:1 ~cpus:2 ~tier ~seed ~trials:48 ()) in
        FI.Campaign.report_to_json r.Fleet.Campaign.report
      in
      let interp = String.split_on_char '\n' (json Cpu.Interp) in
      List.iter
        (fun tier ->
          let lines = String.split_on_char '\n' (json tier) in
          let what = Printf.sprintf "seed %Ld, %s" seed (Cpu.tier_name tier) in
          Alcotest.(check int) (what ^ ": report lines") (List.length interp)
            (List.length lines);
          Alcotest.(check (list string)) (what ^ ": lines that differ from interp") []
            (List.concat (List.map2 (fun a b -> if a = b then [] else [ b ]) interp lines)))
        [ Cpu.Icache; Cpu.Traces ])
    [ 41L; 80L ]

(* Zero-fault equivalence: an armed injector whose trigger never fires
   leaves the run cycle-for-cycle identical to an uninstrumented one. *)
let fingerprint ~armed seed =
  let sys = K.System.boot ~config:C.Config.full ~seed ~cpus:2 () in
  let layout = K.System.map_user_program sys (FI.Campaign.workload_program ~rounds:4) in
  let entry = Asm.symbol layout "main" in
  let tasks = List.init 2 (fun _ -> K.System.spawn_user_task sys ~entry) in
  if armed then begin
    let inj =
      FI.Injector.create
        {
          FI.Injector.trigger = FI.Injector.After_steps max_int;
          model = FI.Injector.Skip_insn;
          persistence = FI.Injector.Transient;
        }
    in
    FI.Injector.arm_all inj (K.System.machine sys)
  end;
  let stats = K.System.run_smp ~quantum:300 sys ~tasks in
  ( stats.K.System.makespan,
    Array.to_list stats.K.System.per_cpu_cycles,
    List.map (fun (c, p, e) -> (c, p, exit_str e)) stats.K.System.smp_exits,
    K.System.console_output sys )

let prop_zero_fault_campaign_is_identity =
  QCheck2.Test.make ~name:"armed but never-firing injector changes nothing" ~count:6
    QCheck2.Gen.(int_range 1 1000)
    (fun s ->
      let seed = Int64.of_int s in
      fingerprint ~armed:false seed = fingerprint ~armed:true seed)

(* Graceful degradation: quarantine keeps the machine alive where the
   baseline crosses the brute-force threshold and halts. *)
let test_quarantine_demo () =
  let d = FI.Campaign.quarantine_demo ~seed:42L () in
  Alcotest.(check bool) "baseline panics" true d.FI.Campaign.baseline_panicked;
  Alcotest.(check bool) "quarantined system survives" false
    d.FI.Campaign.quarantine_panicked;
  Alcotest.(check (list int)) "core 1 offlined" [ 1 ] d.FI.Campaign.quarantine_offlined;
  Alcotest.(check int) "six tasks complete on the healthy core" 6
    d.FI.Campaign.quarantine_completed;
  Alcotest.(check int) "two tasks died before the offlining" 2
    d.FI.Campaign.quarantine_killed;
  Alcotest.(check bool) "quarantine saves work" true
    (d.FI.Campaign.quarantine_completed > d.FI.Campaign.baseline_completed)

let suite =
  [
    Alcotest.test_case "injector: transient GPR flip at a PC" `Quick
      test_gpr_flip_transient;
    Alcotest.test_case "injector: transient memory flip overwritten" `Quick
      test_mem_flip_transient_overwritten;
    Alcotest.test_case "injector: stuck memory flip survives stores" `Quick
      test_mem_flip_stuck_survives_store;
    Alcotest.test_case "injector: instruction skip" `Quick test_skip_insn;
    Alcotest.test_case "injector: transient key flip heals at next entry" `Quick
      test_key_flip_transient_heals;
    Alcotest.test_case "injector: stuck key flip caught by PAC" `Quick
      test_key_flip_stuck_detected_by_pac;
    Alcotest.test_case "injector: PAC-field flip stays in the PAC field" `Quick
      test_pac_field_flip_stays_in_field;
    Alcotest.test_case "trial: PAC-field flip -> detected-by-pac" `Quick
      test_trial_pac_field_flip_detected_by_pac;
    Alcotest.test_case "trial: saved-PC flip -> detected-by-mmu" `Quick
      test_trial_saved_pc_flip_detected_by_mmu;
    Alcotest.test_case "trial: threshold 1 -> panicked" `Quick
      test_trial_threshold_one_panics;
    Alcotest.test_case "trial: BRK rewrite -> task-killed" `Quick
      test_trial_brk_rewrite_task_killed;
    Alcotest.test_case "trial: skipped increment -> silent-corruption" `Quick
      test_trial_skip_increment_silent_corruption;
    Alcotest.test_case "trial: unused-word flip -> benign" `Quick
      test_trial_unused_word_benign;
    Alcotest.test_case "campaign: same seed is byte-identical" `Quick
      test_campaign_reproducible;
    QCheck_alcotest.to_alcotest prop_zero_fault_campaign_is_identity;
    Alcotest.test_case "quarantine demo: baseline panics, quarantine survives" `Quick
      test_quarantine_demo;
    Alcotest.test_case "campaign: 2-core reports equal on every tier" `Quick
      test_campaign_two_cores_every_tier;
  ]
