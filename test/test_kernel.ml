(* End-to-end kernel tests: boot under every protection configuration,
   run syscalls, context switches, workqueues, module loading and user
   programs on the model machine. *)

open Aarch64
module C = Camouflage
module K = Kernel

let configs =
  [
    ("full", C.Config.full, true);
    ("backward", C.Config.backward_only, true);
    ("compat", C.Config.compat, true);
    ("compat-on-v8.0", C.Config.compat, false);
    ("none", C.Config.none, true);
  ]

let boot ?(config = C.Config.full) ?(has_pauth = true) () =
  K.System.boot ~config ~has_pauth ~seed:7L ()

let expect_ok name = function
  | K.System.Ok v -> v
  | K.System.Killed m -> Alcotest.failf "%s killed: %s" name m
  | K.System.Panicked m -> Alcotest.failf "%s panicked: %s" name m

let test_boot_all_configs () =
  List.iter
    (fun (name, config, has_pauth) ->
      let sys = boot ~config ~has_pauth () in
      Alcotest.(check bool) (name ^ " booted") false (K.System.panicked sys);
      Alcotest.(check int) (name ^ " init pid") 1 (K.System.current sys).K.System.pid)
    configs

let test_getpid () =
  let sys = boot () in
  let v = expect_ok "getpid" (K.System.syscall sys ~nr:K.Kbuild.sys_getpid ~args:[]) in
  Alcotest.(check int64) "pid 1" 1L v

let write_user_bytes sys va s = K.Kmem.blit_string (K.System.cpu sys) va s

let read_user_bytes sys va len = K.Kmem.read_string (K.System.cpu sys) va len

let test_open_write_read () =
  List.iter
    (fun (name, config, has_pauth) ->
      let sys = boot ~config ~has_pauth () in
      let fd =
        expect_ok "open" (K.System.syscall sys ~nr:K.Kbuild.sys_open ~args:[ 1L ])
      in
      Alcotest.(check int64) (name ^ ": first fd") 3L fd;
      (* write from a user buffer *)
      let ubuf = K.Layout.user_data_base in
      K.Kmem.map_user_region (K.System.cpu sys) ~base:ubuf ~bytes:4096 Mmu.rw;
      write_user_bytes sys ubuf "hello camouflage";
      let wrote =
        expect_ok "write"
          (K.System.syscall sys ~nr:K.Kbuild.sys_write ~args:[ fd; ubuf; 16L ])
      in
      Alcotest.(check int64) (name ^ ": wrote") 16L wrote;
      (* rewind by reopening: use fstat to check pos *)
      let fd2 =
        expect_ok "open2" (K.System.syscall sys ~nr:K.Kbuild.sys_open ~args:[ 1L ])
      in
      let dst = Int64.add ubuf 1024L in
      let got =
        expect_ok "read"
          (K.System.syscall sys ~nr:K.Kbuild.sys_read ~args:[ fd2; dst; 16L ])
      in
      Alcotest.(check int64) (name ^ ": read") 16L got;
      Alcotest.(check string)
        (name ^ ": data roundtrip")
        "hello camouflage" (read_user_bytes sys dst 16))
    configs

let test_bad_fd () =
  let sys = boot () in
  let v =
    expect_ok "read bad fd"
      (K.System.syscall sys ~nr:K.Kbuild.sys_read ~args:[ 9L; 0L; 0L ])
  in
  Alcotest.(check int64) "-1" (-1L) v;
  let v =
    expect_ok "read fd out of range"
      (K.System.syscall sys ~nr:K.Kbuild.sys_read ~args:[ 123L; 0L; 0L ])
  in
  Alcotest.(check int64) "-1" (-1L) v

let test_stat_fstat () =
  let sys = boot () in
  let ubuf = K.Layout.user_data_base in
  K.Kmem.map_user_region (K.System.cpu sys) ~base:ubuf ~bytes:4096 Mmu.rw;
  let v =
    expect_ok "stat" (K.System.syscall sys ~nr:K.Kbuild.sys_stat ~args:[ 7L; ubuf ])
  in
  Alcotest.(check int64) "stat ok" 0L v;
  Alcotest.(check int64) "st_size" 4096L
    (K.Kmem.read64 (K.System.cpu sys) (Int64.add ubuf 8L));
  let fd = expect_ok "open" (K.System.syscall sys ~nr:K.Kbuild.sys_open ~args:[ 1L ]) in
  let v =
    expect_ok "fstat" (K.System.syscall sys ~nr:K.Kbuild.sys_fstat ~args:[ fd; ubuf ])
  in
  Alcotest.(check int64) "fstat ok" 0L v

let test_notifiers () =
  let sys = boot () in
  let v =
    expect_ok "register"
      (K.System.syscall sys ~nr:K.Kbuild.sys_notifier_register ~args:[ 2L; 1L ])
  in
  Alcotest.(check int64) "register ok" 0L v;
  let v =
    expect_ok "call" (K.System.syscall sys ~nr:K.Kbuild.sys_notifier_call ~args:[ 2L ])
  in
  Alcotest.(check int64) "notifier_count returned 1" 1L v;
  let v =
    expect_ok "call again"
      (K.System.syscall sys ~nr:K.Kbuild.sys_notifier_call ~args:[ 2L ])
  in
  Alcotest.(check int64) "notifier_count returned 2" 2L v;
  (* unset slot *)
  let v =
    expect_ok "unset slot" (K.System.syscall sys ~nr:K.Kbuild.sys_notifier_call ~args:[ 5L ])
  in
  Alcotest.(check int64) "-1 on empty slot" (-1L) v

let test_pipe () =
  let sys = boot () in
  let ubuf = K.Layout.user_data_base in
  K.Kmem.map_user_region (K.System.cpu sys) ~base:ubuf ~bytes:4096 Mmu.rw;
  write_user_bytes sys ubuf "pipe-data";
  let v =
    expect_ok "pipe write"
      (K.System.syscall sys ~nr:K.Kbuild.sys_pipe_write ~args:[ ubuf; 9L ])
  in
  Alcotest.(check int64) "wrote 9" 9L v;
  let dst = Int64.add ubuf 2048L in
  let v =
    expect_ok "pipe read"
      (K.System.syscall sys ~nr:K.Kbuild.sys_pipe_read ~args:[ dst; 9L ])
  in
  Alcotest.(check int64) "read 9" 9L v;
  Alcotest.(check string) "pipe roundtrip" "pipe-data" (read_user_bytes sys dst 9)

let test_fork_and_switch () =
  List.iter
    (fun (name, config, has_pauth) ->
      let sys = boot ~config ~has_pauth () in
      let child =
        match K.System.fork sys with
        | Result.Ok c -> c
        | Result.Error m -> Alcotest.failf "%s: fork failed: %s" name m
      in
      Alcotest.(check int) (name ^ ": child pid") 2 child.K.System.pid;
      (* switch init -> child; the child's prefabricated frame returns
         control to the host *)
      (match K.System.switch_to sys child with
      | K.System.Ok _ -> ()
      | K.System.Killed m | K.System.Panicked m ->
          Alcotest.failf "%s: switch failed: %s" name m);
      Alcotest.(check int) (name ^ ": current is child") 2
        (K.System.current sys).K.System.pid;
      (* and back *)
      (match K.System.switch_to sys (List.hd (K.System.tasks sys)) with
      | K.System.Ok _ -> ()
      | K.System.Killed m | K.System.Panicked m ->
          Alcotest.failf "%s: switch back failed: %s" name m);
      Alcotest.(check int) (name ^ ": current is init") 1
        (K.System.current sys).K.System.pid)
    configs

let test_static_work () =
  (* The DECLARE_WORK instance was signed at boot via .pauth_static; it
     must dispatch correctly. *)
  let sys = boot () in
  let work = K.System.kernel_symbol sys "static_work" in
  (match K.System.run_work sys ~work_va:work with
  | K.System.Ok v -> Alcotest.(check int64) "work_counter incremented" 1L v
  | K.System.Killed m | K.System.Panicked m -> Alcotest.failf "work failed: %s" m);
  let counter = K.System.kernel_symbol sys "work_counter_cell" in
  Alcotest.(check int64) "counter cell" 1L (K.Kmem.read64 (K.System.cpu sys) counter)

let test_user_program_syscalls () =
  let sys = boot () in
  let prog = Asm.create () in
  (* user program: open, write 8 bytes from user stack, getpid, exit *)
  Asm.add_function prog ~name:"main"
    [
      Asm.ins (Insn.Movz (Insn.R 0, 1, 0));
      Asm.ins (Insn.Svc K.Kbuild.sys_open);
      (* x0 = fd *)
      Asm.ins (Insn.Mov (Insn.R 19, Insn.R 0));
      (* write some bytes from the user data page *)
      Asm.ins (Insn.Movz (Insn.R 9, 0xabcd, 0));
      Asm.ins (Insn.Movz (Insn.R 1, 0, 0));
      Asm.ins (Insn.Movk (Insn.R 1, 0x0080, 16));
      (* x1 = 0x800000 = user_data_base *)
      Asm.ins (Insn.Str (Insn.R 9, Insn.Off (Insn.R 1, 0)));
      Asm.ins (Insn.Mov (Insn.R 0, Insn.R 19));
      Asm.ins (Insn.Movz (Insn.R 2, 8, 0));
      Asm.ins (Insn.Svc K.Kbuild.sys_write);
      Asm.ins (Insn.Svc K.Kbuild.sys_getpid);
      Asm.ins (Insn.Svc K.Kbuild.sys_exit);
    ];
  let layout = K.System.map_user_program sys prog in
  match K.System.run_user sys ~entry:(Asm.symbol layout "main") with
  | K.System.Exited pid -> Alcotest.(check int64) "exit code = getpid = 1" 1L pid
  | K.System.User_killed m -> Alcotest.failf "killed: %s" m
  | K.System.User_panicked m -> Alcotest.failf "panicked: %s" m
  | K.System.Watchdog_expired _ as e -> Alcotest.failf "%s" (K.System.user_exit_to_string e)

let test_user_cannot_touch_kernel () =
  let sys = boot () in
  let prog = Asm.create () in
  Asm.add_function prog ~name:"main"
    [
      (* try to read a kernel address directly *)
      Asm.ins (Insn.Movz (Insn.R 1, 0xffff, 48));
      Asm.ins (Insn.Ldr (Insn.R 0, Insn.Off (Insn.R 1, 0)));
      Asm.ins (Insn.Svc K.Kbuild.sys_exit);
    ];
  let layout = K.System.map_user_program sys prog in
  match K.System.run_user sys ~entry:(Asm.symbol layout "main") with
  | K.System.User_killed "SIGSEGV" -> ()
  | other ->
      Alcotest.failf "expected SIGSEGV, got %s"
        (match other with
        | K.System.Exited v -> Printf.sprintf "exit %Ld" v
        | K.System.User_killed m -> m
        | K.System.User_panicked m -> "panic " ^ m
        | K.System.Watchdog_expired _ as e -> K.System.user_exit_to_string e)

let test_module_load_and_reject () =
  let sys = boot () in
  (* a benign module: one function calling an exported kernel helper *)
  let benign =
    Kelf.Object_file.add_function
      (Kelf.Object_file.empty "benign_mod")
      ~name:"mod_entry"
      (let f =
         C.Instrument.wrap (K.System.config sys) ~name:"mod_entry"
           [ Asm.ins (Insn.Movz (Insn.R 0, 123, 0)) ]
       in
       f.C.Instrument.items)
  in
  (match K.System.load_module sys benign with
  | Result.Ok placed ->
      let entry = Kelf.Loader.symbol placed "mod_entry" in
      Cpu.set_el (K.System.cpu sys) El.El1;
      Cpu.set_sp_of (K.System.cpu sys) El.El1
        (K.Layout.task_stack_top ~slot:(K.System.current sys).K.System.slot);
      (match Cpu.call (K.System.cpu sys) entry with
      | Cpu.Sentinel_return ->
          Alcotest.(check int64) "module entry ran" 123L
            (Cpu.reg (K.System.cpu sys) (Insn.R 0))
      | other -> Alcotest.failf "module entry: %s" (Cpu.stop_to_string other))
  | Result.Error e -> Alcotest.failf "benign module rejected: %s" (Kelf.Loader.error_to_string e));
  (* a malicious module that tries to read a key register *)
  let malicious =
    Kelf.Object_file.add_function
      (Kelf.Object_file.empty "spy_mod")
      ~name:"spy_entry"
      [
        Asm.ins (Insn.Mrs (Insn.R 0, Sysreg.APIBKeyLo_EL1));
        Asm.ins Insn.Ret;
      ]
  in
  match K.System.load_module sys malicious with
  | Result.Ok _ -> Alcotest.fail "malicious module accepted"
  | Result.Error (Kelf.Loader.Verification_failed vs) ->
      Alcotest.(check bool) "at least one violation" true (List.length vs >= 1)
  | Result.Error e -> Alcotest.failf "unexpected error: %s" (Kelf.Loader.error_to_string e)

let test_key_confidentiality () =
  (* The XOM page cannot be read from EL1: the attacker's arbitrary-read
     syscall faults on it, while it executes fine. *)
  let sys = boot () in
  let setter = (K.System.xom sys).K.Xom.setter_addr in
  match K.System.syscall sys ~nr:K.Kbuild.sys_vuln_read ~args:[ setter ] with
  | K.System.Ok v -> Alcotest.failf "read XOM returned 0x%Lx" v
  | K.System.Killed _ -> ()
  | K.System.Panicked m -> Alcotest.failf "unexpected panic: %s" m

let test_vuln_syscalls_work () =
  (* The planted bug does give arbitrary read/write of normal kernel
     memory — the paper's threat model. *)
  let sys = boot () in
  let cell = K.System.kernel_symbol sys "work_counter_cell" in
  let v =
    expect_ok "vuln write"
      (K.System.syscall sys ~nr:K.Kbuild.sys_vuln_write ~args:[ cell; 77L ])
  in
  Alcotest.(check int64) "write ok" 0L v;
  let v =
    expect_ok "vuln read" (K.System.syscall sys ~nr:K.Kbuild.sys_vuln_read ~args:[ cell ])
  in
  Alcotest.(check int64) "read back" 77L v

let test_rodata_immutable () =
  (* Writing the syscall table (rodata, stage-2 protected) must fail
     even with the arbitrary-write bug. *)
  let sys = boot () in
  let table = K.System.kernel_symbol sys "sys_call_table" in
  match K.System.syscall sys ~nr:K.Kbuild.sys_vuln_write ~args:[ table; 0xbadL ] with
  | K.System.Ok _ -> Alcotest.fail "rodata was writable"
  | K.System.Killed _ -> ()
  | K.System.Panicked m -> Alcotest.failf "unexpected panic: %s" m

let test_pac_failure_threshold_panics () =
  let config = { C.Config.full with bruteforce_threshold = 3 } in
  let sys = boot ~config () in
  (* Corrupt a signed pointer then use it, repeatedly: open a file, smash
     its f_ops with a fake value, and read. *)
  let ubuf = K.Layout.user_data_base in
  K.Kmem.map_user_region (K.System.cpu sys) ~base:ubuf ~bytes:4096 Mmu.rw;
  let attempts = ref 0 in
  let rec attack n =
    if n = 0 then ()
    else begin
      incr attempts;
      let fd =
        expect_ok "open" (K.System.syscall sys ~nr:K.Kbuild.sys_open ~args:[ 1L ])
      in
      let task = (K.System.current sys).K.System.va in
      let file =
        K.Kmem.read64 (K.System.cpu sys)
          (Int64.add task
             (Int64.of_int (K.Kobject.Task.off_fd_table + (8 * Int64.to_int fd))))
      in
      let fops_field = Int64.add file (Int64.of_int K.Kobject.File.off_f_ops) in
      (match
         K.System.syscall sys ~nr:K.Kbuild.sys_vuln_write
           ~args:[ fops_field; 0xffff0000dead0000L ]
       with
      | K.System.Ok _ -> ()
      | K.System.Killed m | K.System.Panicked m -> Alcotest.failf "corrupt: %s" m);
      match K.System.syscall sys ~nr:K.Kbuild.sys_read ~args:[ fd; ubuf; 8L ] with
      | K.System.Ok _ -> Alcotest.fail "corrupted f_ops accepted"
      | K.System.Killed _ -> attack (n - 1)
      | K.System.Panicked _ -> ()
    end
  in
  attack 3;
  Alcotest.(check bool) "system panicked at threshold" true (K.System.panicked sys);
  Alcotest.(check int) "failures recorded" 3
    (C.Bruteforce.failures (K.System.bruteforce sys))

let suite =
  [
    Alcotest.test_case "boot all configurations" `Quick test_boot_all_configs;
    Alcotest.test_case "getpid" `Quick test_getpid;
    Alcotest.test_case "open/write/read across configs" `Quick test_open_write_read;
    Alcotest.test_case "bad fd handling" `Quick test_bad_fd;
    Alcotest.test_case "stat/fstat" `Quick test_stat_fstat;
    Alcotest.test_case "notifier register/call" `Quick test_notifiers;
    Alcotest.test_case "pipe roundtrip" `Quick test_pipe;
    Alcotest.test_case "fork + context switch across configs" `Quick test_fork_and_switch;
    Alcotest.test_case "DECLARE_WORK static signing" `Quick test_static_work;
    Alcotest.test_case "user program making syscalls" `Quick test_user_program_syscalls;
    Alcotest.test_case "user cannot touch kernel memory" `Quick
      test_user_cannot_touch_kernel;
    Alcotest.test_case "module load + malicious rejection" `Quick
      test_module_load_and_reject;
    Alcotest.test_case "key confidentiality via XOM" `Quick test_key_confidentiality;
    Alcotest.test_case "vulnerable syscalls give kernel r/w" `Quick
      test_vuln_syscalls_work;
    Alcotest.test_case "rodata immutable despite bug" `Quick test_rodata_immutable;
    Alcotest.test_case "PAC failure threshold panics" `Quick
      test_pac_failure_threshold_panics;
  ]

(* Preemptive scheduling tests. *)

let counting_program ~rounds =
  let prog = Asm.create () in
  Asm.add_function prog ~name:"counter"
    [
      Asm.ins (Insn.Movz (Insn.R 20, rounds, 0));
      Asm.ins (Insn.Movz (Insn.R 21, 0, 0));
      Asm.label "round";
      Asm.ins (Insn.Add_imm (Insn.R 21, Insn.R 21, 1));
      Asm.ins (Insn.Svc K.Kbuild.sys_getpid);
      Asm.ins (Insn.Sub_imm (Insn.R 20, Insn.R 20, 1));
      Asm.cbnz_to (Insn.R 20) "round";
      Asm.ins (Insn.Mov (Insn.R 0, Insn.R 21));
      Asm.ins (Insn.Svc K.Kbuild.sys_exit);
    ];
  prog

let test_scheduler_runs_all_tasks () =
  List.iter
    (fun (name, config, has_pauth) ->
      let sys = boot ~config ~has_pauth () in
      let layout = K.System.map_user_program sys (counting_program ~rounds:40) in
      let entry = Asm.symbol layout "counter" in
      let tasks = List.init 3 (fun _ -> K.System.spawn_user_task sys ~entry) in
      let stats = K.System.run_smp ~quantum:60 sys ~tasks in
      Alcotest.(check int) (name ^ ": all exited") 3
        (List.length stats.K.System.smp_exits);
      List.iter
        (fun (_cpu, pid, exit) ->
          match exit with
          | K.System.Exited v ->
              Alcotest.(check int64) (Printf.sprintf "%s: pid %d counted" name pid) 40L v
          | K.System.User_killed m | K.System.User_panicked m ->
              Alcotest.failf "%s: pid %d died: %s" name pid m
          | K.System.Watchdog_expired _ as e ->
              Alcotest.failf "%s: pid %d: %s" name pid (K.System.user_exit_to_string e))
        stats.K.System.smp_exits;
      Alcotest.(check bool) (name ^ ": preempted at least once") true
        (stats.K.System.smp_preemptions > 0))
    configs

let test_scheduler_isolates_crashes () =
  let sys = boot () in
  let prog = Asm.create () in
  Asm.add_function prog ~name:"good"
    [ Asm.ins (Insn.Movz (Insn.R 0, 7, 0)); Asm.ins (Insn.Svc K.Kbuild.sys_exit) ];
  Asm.add_function prog ~name:"crasher"
    [
      Asm.ins (Insn.Movz (Insn.R 1, 0xffff, 48));
      Asm.ins (Insn.Ldr (Insn.R 0, Insn.Off (Insn.R 1, 0)));
      Asm.ins (Insn.Svc K.Kbuild.sys_exit);
    ];
  let layout = K.System.map_user_program sys prog in
  let t1 = K.System.spawn_user_task sys ~entry:(Asm.symbol layout "crasher") in
  let t2 = K.System.spawn_user_task sys ~entry:(Asm.symbol layout "good") in
  let stats = K.System.run_smp ~quantum:50 sys ~tasks:[ t1; t2 ] in
  let lookup pid =
    List.find_map (fun (_cpu, p, e) -> if p = pid then Some e else None)
      stats.K.System.smp_exits
  in
  (match lookup t1.K.System.pid with
  | Some (K.System.User_killed "SIGSEGV") -> ()
  | _ -> Alcotest.fail "crasher should segfault");
  match lookup t2.K.System.pid with
  | Some (K.System.Exited 7L) -> ()
  | _ -> Alcotest.fail "good task should survive the crash of its sibling"

let suite =
  suite
  @ [
      Alcotest.test_case "preemptive scheduler across configs" `Slow
        test_scheduler_runs_all_tasks;
      Alcotest.test_case "scheduler isolates crashing tasks" `Quick
        test_scheduler_isolates_crashes;
    ]

let test_integrity_monitor () =
  let sys = boot () in
  Alcotest.(check bool) "clean table verifies" true (K.System.verify_syscall_table sys);
  (* tamper with the table bypassing stage 2 (modeling a protection
     lapse): the monitor must notice *)
  let table = K.System.kernel_symbol sys "sys_call_table" in
  let saved = K.Kmem.read64 (K.System.cpu sys) (Int64.add table 8L) in
  K.Kmem.write64 (K.System.cpu sys) (Int64.add table 8L) 0xffff0000deadbeefL;
  Alcotest.(check bool) "tampered table detected" false
    (K.System.verify_syscall_table sys);
  K.Kmem.write64 (K.System.cpu sys) (Int64.add table 8L) saved;
  Alcotest.(check bool) "restored table verifies" true
    (K.System.verify_syscall_table sys);
  (* inactive without PAuth *)
  let sys0 = boot ~config:C.Config.compat ~has_pauth:false () in
  Alcotest.(check bool) "inactive on v8.0" true (K.System.verify_syscall_table sys0)

let suite =
  suite
  @ [
      Alcotest.test_case "PACGA integrity monitor (GA key)" `Quick
        test_integrity_monitor;
    ]

(* The hardened syscall ABI (Section 8 future work): read with a
   DA-signed buffer pointer. *)

let secure_read_program ~sign =
  let prog = Asm.create () in
  Asm.add_function prog ~name:"main"
    ([
       Asm.ins (Insn.Movz (Insn.R 0, 1, 0));
       Asm.ins (Insn.Svc K.Kbuild.sys_open);
       Asm.ins (Insn.Mov (Insn.R 19, Insn.R 0));
       (* buffer pointer in x1 *)
       Asm.ins (Insn.Movz (Insn.R 1, 0, 0));
       Asm.ins (Insn.Movk (Insn.R 1, 0x0080, 16));
     ]
    @ (if sign then
         [ Asm.ins (Insn.Movz (Insn.R 9, 0, 0)); Asm.ins (Insn.Pac (Sysreg.DA, Insn.R 1, Insn.R 9)) ]
       else [])
    @ [
        Asm.ins (Insn.Mov (Insn.R 0, Insn.R 19));
        Asm.ins (Insn.Movz (Insn.R 2, 16, 0));
        Asm.ins (Insn.Svc K.Kbuild.sys_read_secure);
        Asm.ins (Insn.Svc K.Kbuild.sys_exit);
      ]);
  prog

let test_secure_read_signed () =
  let sys = boot () in
  K.Kmem.map_user_region (K.System.cpu sys) ~base:K.Layout.user_data_base ~bytes:4096
    Mmu.rw;
  let layout = K.System.map_user_program sys (secure_read_program ~sign:true) in
  match K.System.run_user sys ~entry:(Asm.symbol layout "main") with
  | K.System.Exited v -> Alcotest.(check int64) "read 16 bytes" 16L v
  | other ->
      Alcotest.failf "signed secure read: %s"
        (match other with
        | K.System.User_killed m | K.System.User_panicked m -> m
        | K.System.Watchdog_expired _ as e -> K.System.user_exit_to_string e
        | K.System.Exited _ -> assert false)

let test_secure_read_unsigned_rejected () =
  let sys = boot () in
  K.Kmem.map_user_region (K.System.cpu sys) ~base:K.Layout.user_data_base ~bytes:4096
    Mmu.rw;
  let layout = K.System.map_user_program sys (secure_read_program ~sign:false) in
  match K.System.run_user sys ~entry:(Asm.symbol layout "main") with
  | K.System.User_killed _ -> ()
  | K.System.Exited v -> Alcotest.failf "unsigned pointer accepted (ret %Ld)" v
  | K.System.User_panicked m -> Alcotest.failf "panic: %s" m
  | K.System.Watchdog_expired _ as e -> Alcotest.failf "%s" (K.System.user_exit_to_string e)

let test_plain_read_still_works () =
  (* the hardened ABI is additive: the legacy read path is unchanged *)
  let sys = boot () in
  K.Kmem.map_user_region (K.System.cpu sys) ~base:K.Layout.user_data_base ~bytes:4096
    Mmu.rw;
  let prog = Asm.create () in
  Asm.add_function prog ~name:"main"
    [
      Asm.ins (Insn.Movz (Insn.R 0, 1, 0));
      Asm.ins (Insn.Svc K.Kbuild.sys_open);
      Asm.ins (Insn.Movz (Insn.R 1, 0, 0));
      Asm.ins (Insn.Movk (Insn.R 1, 0x0080, 16));
      Asm.ins (Insn.Movz (Insn.R 2, 16, 0));
      Asm.ins (Insn.Svc K.Kbuild.sys_read);
      Asm.ins (Insn.Svc K.Kbuild.sys_exit);
    ];
  let layout = K.System.map_user_program sys prog in
  match K.System.run_user sys ~entry:(Asm.symbol layout "main") with
  | K.System.Exited v -> Alcotest.(check int64) "read 16" 16L v
  | other ->
      Alcotest.failf "plain read: %s"
        (match other with
        | K.System.User_killed m | K.System.User_panicked m -> m
        | K.System.Watchdog_expired _ as e -> K.System.user_exit_to_string e
        | K.System.Exited _ -> assert false)

let suite =
  suite
  @ [
      Alcotest.test_case "hardened ABI: signed buffer accepted" `Quick
        test_secure_read_signed;
      Alcotest.test_case "hardened ABI: unsigned buffer rejected" `Quick
        test_secure_read_unsigned_rejected;
      Alcotest.test_case "hardened ABI is additive" `Quick test_plain_read_still_works;
    ]

(* Sockets, poll and timers: the additional protected-pointer surfaces. *)

let test_socketpair_roundtrip () =
  List.iter
    (fun (name, config, has_pauth) ->
      let sys = boot ~config ~has_pauth () in
      let ubuf = K.Layout.user_data_base in
      K.Kmem.map_user_region (K.System.cpu sys) ~base:ubuf ~bytes:4096 Mmu.rw;
      let fd1 =
        expect_ok "socketpair" (K.System.syscall sys ~nr:K.Kbuild.sys_socketpair ~args:[])
      in
      Alcotest.(check bool) (name ^ ": got fd") true (fd1 >= 3L);
      let fd2 = Int64.add fd1 1L in
      write_user_bytes sys ubuf "socket-payload!!";
      let sent =
        expect_ok "send"
          (K.System.syscall sys ~nr:K.Kbuild.sys_write ~args:[ fd1; ubuf; 16L ])
      in
      Alcotest.(check int64) (name ^ ": sent") 16L sent;
      let dst = Int64.add ubuf 512L in
      let got =
        expect_ok "recv"
          (K.System.syscall sys ~nr:K.Kbuild.sys_read ~args:[ fd2; dst; 16L ])
      in
      Alcotest.(check int64) (name ^ ": received") 16L got;
      Alcotest.(check string)
        (name ^ ": payload")
        "socket-payload!!" (read_user_bytes sys dst 16);
      (* reading the other direction: nothing available *)
      let got =
        expect_ok "empty recv"
          (K.System.syscall sys ~nr:K.Kbuild.sys_read ~args:[ fd1; dst; 16L ])
      in
      Alcotest.(check int64) (name ^ ": empty") 0L got)
    configs

let test_poll () =
  let sys = boot () in
  let ubuf = K.Layout.user_data_base in
  K.Kmem.map_user_region (K.System.cpu sys) ~base:ubuf ~bytes:4096 Mmu.rw;
  (* one ramfs fd with data (pos > 0 after write), one without, one
     socket pair with one pending direction *)
  let fd_data = expect_ok "open" (K.System.syscall sys ~nr:K.Kbuild.sys_open ~args:[ 1L ]) in
  let fd_empty = expect_ok "open" (K.System.syscall sys ~nr:K.Kbuild.sys_open ~args:[ 1L ]) in
  ignore (expect_ok "write" (K.System.syscall sys ~nr:K.Kbuild.sys_write ~args:[ fd_data; ubuf; 8L ]));
  let sfd = expect_ok "sp" (K.System.syscall sys ~nr:K.Kbuild.sys_socketpair ~args:[]) in
  ignore (expect_ok "send" (K.System.syscall sys ~nr:K.Kbuild.sys_write ~args:[ sfd; ubuf; 4L ]));
  (* fds array in user memory: fd_data, fd_empty, sfd (no rx), sfd+1 (rx) *)
  let arr = Int64.add ubuf 2048L in
  List.iteri
    (fun idx fd -> K.Kmem.write64 (K.System.cpu sys) (Int64.add arr (Int64.of_int (8 * idx))) fd)
    [ fd_data; fd_empty; sfd; Int64.add sfd 1L ];
  let ready =
    expect_ok "poll" (K.System.syscall sys ~nr:K.Kbuild.sys_poll ~args:[ arr; 4L ])
  in
  Alcotest.(check int64) "two ready" 2L ready

let test_timers () =
  let sys = boot () in
  (* slot 1, zero delay, handler 1 = notifier_count *)
  let v =
    expect_ok "timer_set"
      (K.System.syscall sys ~nr:K.Kbuild.sys_timer_set ~args:[ 1L; 0L; 1L ])
  in
  Alcotest.(check int64) "armed" 0L v;
  (match K.System.run_timers sys with
  | K.System.Ok _ -> ()
  | K.System.Killed m | K.System.Panicked m -> Alcotest.failf "run_timers: %s" m);
  let counter = K.System.kernel_symbol sys "notifier_count_cell" in
  Alcotest.(check int64) "fired once" 1L (K.Kmem.read64 (K.System.cpu sys) counter);
  (* a fired slot does not fire again *)
  (match K.System.run_timers sys with
  | K.System.Ok _ -> ()
  | K.System.Killed m | K.System.Panicked m -> Alcotest.failf "run_timers 2: %s" m);
  Alcotest.(check int64) "one-shot" 1L (K.Kmem.read64 (K.System.cpu sys) counter);
  (* a timer far in the future does not fire *)
  ignore
    (expect_ok "timer_set far"
       (K.System.syscall sys ~nr:K.Kbuild.sys_timer_set ~args:[ 2L; 1000000000L; 1L ]));
  (match K.System.run_timers sys with
  | K.System.Ok _ -> ()
  | K.System.Killed m | K.System.Panicked m -> Alcotest.failf "run_timers 3: %s" m);
  Alcotest.(check int64) "not yet" 1L (K.Kmem.read64 (K.System.cpu sys) counter)

let test_timer_hijack_detected () =
  (* the timer callback is a protected lone function pointer: a raw
     overwrite through the kernel bug must be caught at dispatch *)
  let sys = boot () in
  ignore
    (expect_ok "timer_set"
       (K.System.syscall sys ~nr:K.Kbuild.sys_timer_set ~args:[ 0L; 0L; 0L ]));
  let slab = K.System.kernel_symbol sys "timer_slab" in
  let gadget = K.System.kernel_symbol sys "work_counter" in
  (match
     K.System.syscall sys ~nr:K.Kbuild.sys_vuln_write
       ~args:[ Int64.add slab (Int64.of_int K.Kobject.Timer.off_func); gadget ]
   with
  | K.System.Ok _ -> ()
  | K.System.Killed m | K.System.Panicked m -> Alcotest.failf "corrupt: %s" m);
  match K.System.run_timers sys with
  | K.System.Killed m when String.length m >= 3 && String.sub m 0 3 = "PAC" -> ()
  | other ->
      Alcotest.failf "expected PAC failure, got %s"
        (match other with
        | K.System.Ok v -> Printf.sprintf "ok %Ld" v
        | K.System.Killed m | K.System.Panicked m -> m)

let suite =
  suite
  @ [
      Alcotest.test_case "socketpair send/recv across configs" `Quick
        test_socketpair_roundtrip;
      Alcotest.test_case "poll authenticates per-fd ops" `Quick test_poll;
      Alcotest.test_case "timers: arm, fire once, future" `Quick test_timers;
      Alcotest.test_case "timer callback hijack detected" `Quick
        test_timer_hijack_detected;
    ]

let test_console () =
  let sys = boot () in
  let ubuf = K.Layout.user_data_base in
  K.Kmem.map_user_region (K.System.cpu sys) ~base:ubuf ~bytes:4096 Mmu.rw;
  write_user_bytes sys ubuf "hello, console";
  let wrote =
    expect_ok "write fd1" (K.System.syscall sys ~nr:K.Kbuild.sys_write ~args:[ 1L; ubuf; 14L ])
  in
  Alcotest.(check int64) "wrote" 14L wrote;
  write_user_bytes sys ubuf "!\n";
  ignore (expect_ok "write fd2" (K.System.syscall sys ~nr:K.Kbuild.sys_write ~args:[ 2L; ubuf; 2L ]));
  Alcotest.(check string) "console collected" "hello, console!\n"
    (K.System.console_output sys);
  (* reading the console yields EOF *)
  let got =
    expect_ok "read fd1" (K.System.syscall sys ~nr:K.Kbuild.sys_read ~args:[ 1L; ubuf; 8L ])
  in
  Alcotest.(check int64) "console EOF" 0L got;
  (* forked children inherit the console *)
  match K.System.fork sys with
  | Result.Error m -> Alcotest.failf "fork: %s" m
  | Result.Ok child -> (
      match K.System.switch_to sys child with
      | K.System.Ok _ ->
          write_user_bytes sys ubuf "child";
          ignore
            (expect_ok "child write"
               (K.System.syscall sys ~nr:K.Kbuild.sys_write ~args:[ 1L; ubuf; 5L ]));
          Alcotest.(check string) "appended" "hello, console!\nchild"
            (K.System.console_output sys)
      | K.System.Killed m | K.System.Panicked m -> Alcotest.failf "switch: %s" m)

let suite =
  suite @ [ Alcotest.test_case "console device on fd 1/2" `Quick test_console ]

(* Watchdog and structured oops records. *)

let counting_loop ~iters ~exit_code =
  let prog = Asm.create () in
  Asm.add_function prog ~name:"main"
    [
      Asm.ins (Insn.Movz (Insn.R 20, iters, 0));
      Asm.label "work";
      Asm.ins (Insn.Sub_imm (Insn.R 20, Insn.R 20, 1));
      Asm.cbnz_to (Insn.R 20) "work";
      Asm.ins (Insn.Movz (Insn.R 0, exit_code, 0));
      Asm.ins (Insn.Svc K.Kbuild.sys_exit);
    ];
  prog

let test_watchdog_retries_transient_stall () =
  let sys = boot () in
  let layout = K.System.map_user_program sys (counting_loop ~iters:80 ~exit_code:99) in
  (* ~163 instructions of work against a 100-instruction budget: the
     first attempt blows the budget, the doubled retry completes *)
  match K.System.run_user sys ~max_insns:100 ~entry:(Asm.symbol layout "main") with
  | K.System.Exited v ->
      Alcotest.(check int64) "completed on retry" 99L v;
      Alcotest.(check bool) "watchdog logged the grace period" true
        (List.exists
           (fun line ->
             let n = String.length line in
             let rec go i = i + 8 <= n && (String.sub line i 8 = "watchdog" || go (i + 1)) in
             go 0)
           (K.System.log sys))
  | other -> Alcotest.failf "expected recovery: %s" (K.System.user_exit_to_string other)

let test_watchdog_escalates_genuine_hang () =
  let sys = boot () in
  let prog = Asm.create () in
  Asm.add_function prog ~name:"main"
    [ Asm.label "spin"; Asm.ins (Insn.Add_imm (Insn.R 9, Insn.R 9, 1)); Asm.b_to "spin" ];
  let layout = K.System.map_user_program sys prog in
  match K.System.run_user sys ~max_insns:50 ~entry:(Asm.symbol layout "main") with
  | K.System.Watchdog_expired { budget; retries } ->
      Alcotest.(check int) "two grace periods granted" 2 retries;
      Alcotest.(check int) "budget doubled twice" 200 budget;
      (* the escalation leaves a structured oops with a register dump *)
      (match K.System.oopses sys with
      | [] -> Alcotest.fail "no oops recorded"
      | o :: _ ->
          Alcotest.(check int) "oops on the boot cpu" 0 o.K.System.oops_cpu;
          Alcotest.(check bool) "cause names the watchdog" true
            (String.length o.K.System.oops_cause >= 8
             && String.sub o.K.System.oops_cause 0 8 = "watchdog");
          Alcotest.(check bool) "dump carries the trace ring" true
            (String.length o.K.System.oops_dump > 0))
  | other -> Alcotest.failf "expected escalation: %s" (K.System.user_exit_to_string other)

(* The budget counts user instructions across syscalls: a loop that
   traps on every third instruction must still exhaust it. 5,000 getpid
   rounds retire ~15,000 user instructions against 1,000 + 2,000 +
   4,000. *)
let test_watchdog_counts_across_syscalls () =
  let sys = boot () in
  let prog = Asm.create () in
  Asm.add_function prog ~name:"main"
    [
      Asm.ins (Insn.Movz (Insn.R 20, 5000, 0));
      Asm.label "spin";
      Asm.ins (Insn.Svc K.Kbuild.sys_getpid);
      Asm.ins (Insn.Sub_imm (Insn.R 20, Insn.R 20, 1));
      Asm.cbnz_to (Insn.R 20) "spin";
      Asm.ins (Insn.Movz (Insn.R 0, 0, 0));
      Asm.ins (Insn.Svc K.Kbuild.sys_exit);
    ];
  let layout = K.System.map_user_program sys prog in
  match K.System.run_user sys ~max_insns:1000 ~entry:(Asm.symbol layout "main") with
  | K.System.Watchdog_expired { budget; retries } ->
      Alcotest.(check int) "two grace periods granted" 2 retries;
      Alcotest.(check int) "budget doubled twice" 4000 budget
  | other -> Alcotest.failf "expected escalation: %s" (K.System.user_exit_to_string other)

let test_kernel_oops_records_cpu_dump () =
  let sys = boot () in
  (* arbitrary-write syscall against an unmapped kernel address: the
     handler faults, the task is killed, and the oops captures state *)
  (match Attacks.Primitives.kwrite sys 0xffff0000deadb000L 1L with
  | Result.Error _ -> ()
  | Result.Ok () -> Alcotest.fail "write to unmapped kernel memory succeeded");
  match K.System.oopses sys with
  | [] -> Alcotest.fail "no oops recorded"
  | o :: _ ->
      let dump = o.K.System.oops_dump in
      let has sub =
        let n = String.length sub and m = String.length dump in
        let rec go i = i + n <= m && (String.sub dump i n = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "dump shows the register file" true (has "x0 ");
      Alcotest.(check bool) "dump shows the trace ring" true (has "trace");
      Alcotest.(check bool) "dump names the core" true (has "cpu0")

let suite =
  suite
  @ [
      Alcotest.test_case "watchdog retries a transient stall" `Quick
        test_watchdog_retries_transient_stall;
      Alcotest.test_case "watchdog escalates a genuine hang" `Quick
        test_watchdog_escalates_genuine_hang;
      Alcotest.test_case "kernel oops records a CPU dump" `Quick
        test_kernel_oops_records_cpu_dump;
      Alcotest.test_case "watchdog counts user insns across syscalls" `Quick
        test_watchdog_counts_across_syscalls;
    ]
