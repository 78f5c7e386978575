module K = Kernel

type verdict = { surface : string; fatal : bool; logged : bool }

let garbage = 0xffff0000deadf000L

let must label = function
  | K.System.Ok v -> v
  | K.System.Killed m | K.System.Panicked m ->
      failwith (Printf.sprintf "oracle sweep %s: %s" label m)

let kwrite_must sys addr v =
  match Primitives.kwrite sys addr v with
  | Result.Ok () -> ()
  | Result.Error m -> failwith ("oracle sweep kwrite: " ^ m)

(* Each surface: arrange state, corrupt the protected pointer with a raw
   value, return the outcome of the authenticating path. *)
let surfaces =
  [
    ( "file.f_ops (read path)",
      fun sys ->
        let fd = must "open" (K.System.syscall sys ~nr:K.Kbuild.sys_open ~args:[ 1L ]) in
        let task = (K.System.current sys).K.System.va in
        let file =
          K.Kmem.read64 (K.System.cpu sys)
            (Int64.add task
               (Int64.of_int (K.Kobject.Task.off_fd_table + (8 * Int64.to_int fd))))
        in
        kwrite_must sys (Int64.add file (Int64.of_int K.Kobject.File.off_f_ops)) garbage;
        K.System.syscall sys ~nr:K.Kbuild.sys_read
          ~args:[ fd; K.Layout.user_data_base; 8L ] );
    ( "file.f_ops (poll path)",
      fun sys ->
        let fd = must "open" (K.System.syscall sys ~nr:K.Kbuild.sys_open ~args:[ 1L ]) in
        let task = (K.System.current sys).K.System.va in
        let file =
          K.Kmem.read64 (K.System.cpu sys)
            (Int64.add task
               (Int64.of_int (K.Kobject.Task.off_fd_table + (8 * Int64.to_int fd))))
        in
        kwrite_must sys (Int64.add file (Int64.of_int K.Kobject.File.off_f_ops)) garbage;
        let arr = K.Layout.user_data_base in
        K.Kmem.write64 (K.System.cpu sys) arr fd;
        K.System.syscall sys ~nr:K.Kbuild.sys_poll ~args:[ arr; 1L ] );
    ( "task.cred (getuid path)",
      fun sys ->
        let task = (K.System.current sys).K.System.va in
        kwrite_must sys (Int64.add task (Int64.of_int K.Kobject.Task.off_cred)) garbage;
        K.System.syscall sys ~nr:K.Kbuild.sys_getuid ~args:[] );
    ( "notifier.handler (dispatch path)",
      fun sys ->
        ignore
          (must "register"
             (K.System.syscall sys ~nr:K.Kbuild.sys_notifier_register ~args:[ 0L; 0L ]));
        let task = (K.System.current sys).K.System.va in
        kwrite_must sys
          (Int64.add task (Int64.of_int K.Kobject.Task.off_notifiers))
          garbage;
        K.System.syscall sys ~nr:K.Kbuild.sys_notifier_call ~args:[ 0L ] );
    ( "timer.func (expiry path)",
      fun sys ->
        ignore
          (must "timer_set"
             (K.System.syscall sys ~nr:K.Kbuild.sys_timer_set ~args:[ 0L; 0L; 0L ]));
        let slab = K.System.kernel_symbol sys "timer_slab" in
        kwrite_must sys (Int64.add slab (Int64.of_int K.Kobject.Timer.off_func)) garbage;
        K.System.run_timers sys );
    ( "work_struct.func (workqueue path)",
      fun sys ->
        let work = K.System.kernel_symbol sys "static_work" in
        kwrite_must sys (Int64.add work (Int64.of_int K.Kobject.Work.off_func)) garbage;
        K.System.run_work sys ~work_va:work );
    ( "task.kernel_sp (context switch path)",
      fun sys ->
        let victim = K.System.create_task sys in
        kwrite_must sys
          (Int64.add victim.K.System.va (Int64.of_int K.Kobject.Task.off_kernel_sp))
          garbage;
        K.System.switch_to sys victim );
    ( "saved LR in switch frame (return path)",
      fun sys ->
        let victim = K.System.create_task sys in
        let frame_lr =
          Int64.sub (K.Layout.task_stack_top ~slot:victim.K.System.slot) 8L
        in
        kwrite_must sys frame_lr garbage;
        K.System.switch_to sys victim );
  ]

let pac_logged sys =
  List.exists
    (fun l -> String.length l >= 3 && String.sub l 0 3 = "PAC")
    (K.System.log sys)

let sweep () =
  List.map
    (fun (surface, attack) ->
      let sys =
        K.System.boot
          ~config:{ Camouflage.Config.full with bruteforce_threshold = 1000 }
          ~seed:2718L ()
      in
      K.Kmem.map_user_region (K.System.cpu sys) ~base:K.Layout.user_data_base
        ~bytes:4096 Aarch64.Mmu.rw;
      let outcome = attack sys in
      let fatal =
        match outcome with
        | K.System.Ok _ -> false
        | K.System.Killed _ | K.System.Panicked _ -> true
      in
      { surface; fatal; logged = pac_logged sys })
    surfaces

let all_closed verdicts = List.for_all (fun v -> v.fatal && v.logged) verdicts

let verdict_to_string v =
  Printf.sprintf "%-42s fatal=%-5b logged=%-5b %s" v.surface v.fatal v.logged
    (if v.fatal && v.logged then "closed" else "ORACLE?")
