open Aarch64
module K = Kernel

type outcome = Diverted of { exit_code : int64 } | Detected | Failed of string

let victim_program () =
  let prog = Asm.create () in
  (* a long-running compute loop that eventually exits 0 *)
  Asm.add_function prog ~name:"worker"
    [
      Asm.ins (Insn.Movz (Insn.R 9, 0xffff, 0));
      Asm.label "loop";
      Asm.ins (Insn.Sub_imm (Insn.R 9, Insn.R 9, 1));
      Asm.cbnz_to (Insn.R 9) "loop";
      Asm.ins (Insn.Movz (Insn.R 0, 0, 0));
      Asm.ins (Insn.Svc K.Kbuild.sys_exit);
    ];
  (* the attacker's landing pad: exits with a recognizable code *)
  Asm.add_function prog ~name:"evil"
    [ Asm.ins (Insn.Movz (Insn.R 0, 0x666, 0)); Asm.ins (Insn.Svc K.Kbuild.sys_exit) ];
  prog

let run sys ~protect =
  let layout = K.System.map_user_program sys (victim_program ()) in
  let worker = Asm.symbol layout "worker" in
  let evil = Asm.symbol layout "evil" in
  let t1 = K.System.spawn_user_task sys ~entry:worker in
  let t2 = K.System.spawn_user_task sys ~entry:worker in
  (* Phase 1: run a few short slices so both tasks get preempted with
     saved contexts. *)
  let phase1 =
    K.System.run_smp ~quantum:400 ~max_slices:4 ~context_integrity:protect sys
      ~tasks:[ t1; t2 ]
  in
  if phase1.K.System.smp_exits <> [] then Failed "victims finished before the attack"
  else begin
    (* Tamper with the sleeping task's saved PC through the kernel bug. *)
    let saved_pc_field =
      Int64.add t2.K.System.va (Int64.of_int K.Kobject.Task.off_saved_pc)
    in
    match Primitives.kwrite sys saved_pc_field evil with
    | Result.Error m -> Failed ("kwrite: " ^ m)
    | Result.Ok () -> (
        (* Phase 2: resume the schedule. *)
        let phase2 =
          K.System.run_smp ~quantum:400 ~context_integrity:protect sys
            ~tasks:[ t1; t2 ]
        in
        match
          List.find_map
            (fun (_cpu, pid, e) -> if pid = t2.K.System.pid then Some e else None)
            phase2.K.System.smp_exits
        with
        | Some (K.System.Exited code) when code = 0x666L -> Diverted { exit_code = code }
        | Some (K.System.User_killed m)
          when String.length m >= 7 && String.sub m 0 7 = "context" ->
            Detected
        | Some (K.System.Exited code) ->
            Failed (Printf.sprintf "victim exited normally (%Ld)" code)
        | Some (K.System.User_killed m) -> Failed ("killed: " ^ m)
        | Some (K.System.User_panicked m) -> Failed ("panic: " ^ m)
        | Some (K.System.Watchdog_expired _ as e) -> Failed (K.System.user_exit_to_string e)
        | None -> Failed "victim never finished")
  end

let outcome_to_string = function
  | Diverted { exit_code } ->
      Printf.sprintf "DIVERTED: preempted task resumed in attacker code (exit 0x%Lx)"
        exit_code
  | Detected -> "DETECTED: saved-context MAC mismatch, task killed before resumption"
  | Failed m -> "attack failed: " ^ m
