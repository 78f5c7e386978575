open Aarch64
module C = Camouflage

type task = { va : int64; slot : int; pid : int }

type syscall_outcome = Ok of int64 | Killed of string | Panicked of string

type user_exit =
  | Exited of int64
  | User_killed of string
  | User_panicked of string
  | Watchdog_expired of { budget : int; retries : int }

let user_exit_to_string = function
  | Exited v -> Printf.sprintf "exited %Ld" v
  | User_killed m -> Printf.sprintf "killed (%s)" m
  | User_panicked m -> Printf.sprintf "panicked (%s)" m
  | Watchdog_expired { budget; retries } ->
      Printf.sprintf "watchdog expired (budget %d after %d retries)" budget retries

(* Structured oops record: everything the kernel knew about a fault at
   the moment it decided to kill rather than panic. *)
type oops = {
  oops_cpu : int;
  oops_pid : int;
  oops_cause : string;
  oops_pc : int64;
  oops_dump : string;  (** [Cpu.dump_state] at the stop *)
}

(* Per-core scheduler state mirrored by the in-memory per-CPU area:
   [cur] is the core's current task while the core is not the active
   (host-driven) one. *)
type cpu_state = { pc : Percpu.t; mutable cur : task; mutable idle : task option }

(* The host-kernel ABI: every kernel symbol this module's own paths
   (syscall dispatch, context switch, task setup, deferred work, the
   console drain, the table MAC) use, resolved once when the image is
   loaded instead of by name on every call. An image that lacks one of
   them fails at boot. Other callers look symbols up with
   [kernel_symbol]. *)
type abi = {
  sys_call_table : int64;
  table_mac : int64;
  cpu_switch_to : int64;
  run_work : int64;
  run_timers : int64;
  task_slab_next : int64;
  file_slab_next : int64;
  console_fops : int64;
  root_cred : int64;
  user_cred : int64;
  console_ring : int64;
  console_state : int64;
}

let resolve_abi sym =
  {
    sys_call_table = sym "sys_call_table";
    table_mac = sym "table_mac";
    cpu_switch_to = sym "cpu_switch_to";
    run_work = sym "run_work";
    run_timers = sym "run_timers";
    task_slab_next = sym "task_slab_next";
    file_slab_next = sym "file_slab_next";
    console_fops = sym "console_fops";
    root_cred = sym "root_cred";
    user_cred = sym "user_cred";
    console_ring = sym "console_ring";
    console_state = sym "console_state";
  }

type t = {
  machine : Machine.t;
  mutable cpu : Cpu.t;  (** the active core — all helpers run on it *)
  mutable active : int;
  mutable percpu : cpu_state array;
  config : C.Config.t;
  registry : C.Pointer_integrity.registry;
  hyp : Hypervisor.t;
  xom : Xom.t;
  bruteforce : C.Bruteforce.t;
  (* the kernel image and its ABI: set once at boot, then fixed *)
  mutable kernel : Kelf.Loader.placed;
  mutable abi : abi;
  rng : Camo_util.Rng.t;
  mutable current : task;
  mutable tasks : task list;
  mutable next_pid : int;
  mutable next_stack_slot : int;
  mutable module_alloc : int64;
  mutable log : (int64 * string) list;  (* (cycle stamp, line), newest first *)
  mutable panicked : bool;
  mutable oopses : oops list;  (* newest first *)
  mutable table_mac_golden : int64;
  (* X7: saved-context attestation MACs, pid -> MAC (host-held, like the
     table MAC: state the attacker cannot reach) *)
  context_macs : (int, int64) Hashtbl.t;
  mutable context_key : Pac.key;  (** monitor key, host-held *)
}

(* GPR save/restore on the kernel entry/exit path, charged rather than
   executed: the registers saved belong to the interrupted user context
   which host-driven entries do not have. 31 stores or loads at the
   store/load cost of the A53 profile, plus bookkeeping. *)
let entry_overhead_cycles = 35
let exit_overhead_cycles = 35

(* Page-table and mm copying that the model's fork elides. *)
let fork_vm_copy_cycles = 1200

(* Run-queue manipulation and task-selection work of the scheduler that
   the model's switch path elides (it jumps straight to cpu_switch_to). *)
let sched_pick_cycles = 150

let cpu t = t.cpu
let machine t = t.machine
let cpus t = Machine.cpus t.machine
let config t = t.config
let xom t = t.xom
let current t = t.current
let tasks t = t.tasks
let panicked t = t.panicked
let log t = List.rev_map (fun (_, line) -> line) t.log
let log_events t = List.rev t.log
let bruteforce t = t.bruteforce
let oopses t = List.rev t.oopses

(* The per-core telemetry sink of the active core, when the system was
   booted with telemetry. *)
let sink t = Cpu.telemetry t.cpu
let telemetry t = Machine.telemetry t.machine

let emit_event t payload =
  match sink t with
  | Some s -> Telemetry.Sink.emit s ~ts:(Cpu.cycles t.cpu) payload
  | None -> ()

let logf t fmt =
  Printf.ksprintf
    (fun s ->
      t.log <- (Cpu.cycles t.cpu, s) :: t.log;
      emit_event t (Telemetry.Event.Log { line = s }))
    fmt

(* [with_core t cid f] — run [f] with core [cid] as the active core:
   [t.cpu]/[t.current] become that core's view, so every helper (key
   install, syscall dispatch, fault policy) executes on it. The per-CPU
   state is written back afterwards. *)
let with_core t cid f =
  if cid = t.active then f ()
  else begin
    let prev_active = t.active in
    t.percpu.(prev_active).cur <- t.current;
    t.cpu <- Machine.core t.machine cid;
    t.active <- cid;
    t.current <- t.percpu.(cid).cur;
    let restore () =
      t.percpu.(cid).cur <- t.current;
      t.cpu <- Machine.core t.machine prev_active;
      t.active <- prev_active;
      t.current <- t.percpu.(prev_active).cur
    in
    match f () with
    | v ->
        restore ();
        v
    | exception e ->
        restore ();
        raise e
  end

(* Log with a cpu tag on multi-core machines; single-core logs keep
   their historical shape. *)
let logcpu t fmt =
  if Machine.cpus t.machine > 1 then logf t ("cpu%d: " ^^ fmt) t.active else logf t fmt

let kernel_symbol t name = Kelf.Loader.symbol t.kernel name

let kernel_uses_pauth t =
  Cpu.has_pauth t.cpu
  && (t.config.C.Config.scheme <> C.Modifier.No_cfi || t.config.C.Config.protect_pointers)

(* Call one of the audited XOM key routines: its generated MOVZ/MOVK
   stream is charged like any other code, but telemetry attributes the
   cycles to the key-switch origin and logs a key-switch event. *)
let xom_key_call t ~domain ~err addr =
  emit_event t
    (Telemetry.Event.Key_switch { domain; pid = t.current.pid });
  let call () =
    match Cpu.call t.cpu addr with
    | Cpu.Sentinel_return -> ()
    | other -> failwith (err ^ Cpu.stop_to_string other)
  in
  match sink t with
  | Some s ->
      Telemetry.Counters.count_key_install (Telemetry.Sink.counters s);
      Telemetry.Sink.with_origin s Telemetry.Profile.Cfi_key_switch call
  | None -> call ()

let install_kernel_keys t =
  xom_key_call t ~domain:"kernel" ~err:"key setter did not return: "
    t.xom.Xom.setter_addr;
  (* per-CPU accounting; the array is empty only during early boot of
     the boot core, before the per-CPU areas exist *)
  if t.active < Array.length t.percpu then
    Percpu.count_key_install t.cpu t.percpu.(t.active).pc

(* Per-CPU key-install verification: probe every core's key registers
   against the boot keys. A core is reported when any key register does
   not hold the setter's material — e.g. it skipped the setter. *)
let unkeyed_cpus t =
  List.filter_map
    (fun core ->
      match
        C.Keys.missing_keys ~expected:t.xom.Xom.kernel_keys ~read:(Cpu.pac_key core)
      with
      | [] -> None
      | missing -> Some (Cpu.id core, missing))
    (Machine.cores t.machine)

let key_installs_on t ~cpu:cid =
  let core = Machine.core t.machine cid in
  Percpu.key_installs core t.percpu.(cid).pc

let restore_user_keys t =
  Cpu.set_reg t.cpu (Insn.R 0) t.current.va;
  xom_key_call t ~domain:"user" ~err:"key restore did not return: "
    t.xom.Xom.restore_addr

(* Host-side mirror of the backward-edge signing, used to prefabricate
   the switch frame of a fresh task (Section 5.2, cpu_switch_to). *)
let sign_return_address t ~sp ~func_addr value =
  match t.config.C.Config.scheme with
  | C.Modifier.No_cfi -> value
  | scheme ->
      if not (Cpu.has_pauth t.cpu) then value
      else begin
        let key =
          Cpu.pac_key t.cpu (C.Keys.key_for t.config.C.Config.mode C.Keys.Backward)
        in
        let modifier = C.Modifier.return_modifier scheme ~sp ~func_addr in
        Pac.compute ~cipher:(Cpu.cipher t.cpu) ~key ~cfg:(Cpu.kernel_cfg t.cpu) ~modifier
          value
      end

let task_stack_top task = Layout.task_stack_top ~slot:task.slot

(* Host-orchestrated kernel work (task setup, scheduling, workqueues)
   conceptually runs between kernel entry and exit: the kernel keys must
   be live in the key registers, not the interrupted user's. *)
let enter_kernel_context t = if kernel_uses_pauth t then install_kernel_keys t

(* Write the prefabricated frame a fresh task is "resumed" from: popping
   it inside cpu_switch_to authenticates LR and returns to the host
   sentinel. *)
let prepare_switch_frame t task =
  enter_kernel_context t;
  let top = task_stack_top task in
  let sp = Int64.sub top 16L in
  let switch_addr = t.abi.cpu_switch_to in
  let signed_lr =
    sign_return_address t ~sp:top ~func_addr:switch_addr Cpu.sentinel
  in
  Kmem.write64 t.cpu sp 0L;
  Kmem.write64 t.cpu (Int64.add sp 8L) signed_lr;
  let stored_sp =
    C.Pointer_integrity.sign_value t.cpu t.config t.registry ~type_name:"task"
      ~member_name:"kernel_sp" ~obj_addr:task.va sp
  in
  Kmem.write64 t.cpu (Int64.add task.va (Int64.of_int Kobject.Task.off_kernel_sp)) stored_sp

let write_user_keys t task =
  List.iteri
    (fun idx _key ->
      let hi, lo = Camo_util.Rng.key128 t.rng in
      let base = Int64.add task.va (Int64.of_int (Kobject.Task.off_user_keys + (16 * idx))) in
      Kmem.write64 t.cpu base hi;
      Kmem.write64 t.cpu (Int64.add base 8L) lo)
    Sysreg.[ IA; IB; DA; DB; GA ]

let alloc_task_struct t =
  let cell = t.abi.task_slab_next in
  let va = Kmem.read64 t.cpu cell in
  Kmem.write64 t.cpu cell (Int64.add va (Int64.of_int Kobject.Task.size));
  va

let init_task_fields t task =
  Kmem.write64 t.cpu
    (Int64.add task.va (Int64.of_int Kobject.Task.off_pid))
    (Int64.of_int task.pid);
  Kmem.write64 t.cpu (Int64.add task.va (Int64.of_int Kobject.Task.off_state)) 0L;
  Kmem.write64 t.cpu
    (Int64.add task.va (Int64.of_int Kobject.Task.off_kstack_base))
    (Int64.sub (task_stack_top task) (Int64.of_int Layout.task_stack_bytes))

(* Install a signed credentials pointer: pid 1 (init) runs as root, all
   other tasks get the unprivileged user credentials. *)
let assign_cred t task =
  enter_kernel_context t;
  let cred = if task.pid = 1 then t.abi.root_cred else t.abi.user_cred in
  let signed =
    C.Pointer_integrity.sign_value t.cpu t.config t.registry ~type_name:"task"
      ~member_name:"cred" ~obj_addr:task.va cred
  in
  Kmem.write64 t.cpu (Int64.add task.va (Int64.of_int Kobject.Task.off_cred)) signed

(* Give a task the console on stdout/stderr: a file object whose signed
   ops pointer targets the console ops table. *)
let install_console_fds t task =
  let cell = t.abi.file_slab_next in
  let file = Kmem.read64 t.cpu cell in
  Kmem.write64 t.cpu cell (Int64.add file (Int64.of_int Kobject.File.size));
  let fops = t.abi.console_fops in
  enter_kernel_context t;
  let signed =
    C.Pointer_integrity.sign_value t.cpu t.config t.registry ~type_name:"file"
      ~member_name:"f_ops" ~obj_addr:file fops
  in
  Kmem.write64 t.cpu (Int64.add file (Int64.of_int Kobject.File.off_f_ops)) signed;
  List.iter
    (fun fd ->
      Kmem.write64 t.cpu
        (Int64.add task.va (Int64.of_int (Kobject.Task.off_fd_table + (8 * fd))))
        file)
    [ 1; 2 ]

let create_task t =
  let va = alloc_task_struct t in
  let task = { va; slot = t.next_stack_slot; pid = t.next_pid } in
  t.next_pid <- t.next_pid + 1;
  t.next_stack_slot <- t.next_stack_slot + 1;
  init_task_fields t task;
  write_user_keys t task;
  prepare_switch_frame t task;
  assign_cred t task;
  install_console_fds t task;
  t.tasks <- t.tasks @ [ task ];
  task

let mark_dead t task =
  Kmem.write64 t.cpu (Int64.add task.va (Int64.of_int Kobject.Task.off_state)) 1L

(* Capture a structured oops record (cause, registers, recent-trace
   disassembly) for the current task on the active core; returns the
   state dump so callers can also log it. The dump is architectural
   only: the state fingerprint hashes it and the log it is copied
   into, so telemetry must not reach it. *)
let record_oops t ~cause ~pc =
  emit_event t (Telemetry.Event.Oops { pid = t.current.pid; cause });
  let dump = Cpu.dump_state t.cpu in
  t.oopses <-
    {
      oops_cpu = t.active;
      oops_pid = t.current.pid;
      oops_cause = cause;
      oops_pc = pc;
      oops_dump = dump;
    }
    :: t.oopses;
  dump

let log_dump t dump =
  List.iter
    (fun line -> if line <> "" then logf t "  %s" line)
    (String.split_on_char '\n' dump)

(* Classify a machine stop on the kernel path. *)
let handle_kernel_stop t stop =
  match stop with
  | Cpu.Sentinel_return -> Ok (Cpu.reg t.cpu (Insn.R 0))
  | Cpu.Fault { fault = Cpu.Mmu_fault f; pc } ->
      let poisoned =
        Vaddr.is_poisoned (Cpu.kernel_cfg t.cpu) f.Mmu.va
        || Vaddr.is_poisoned (Cpu.user_cfg t.cpu) f.Mmu.va
      in
      if poisoned then begin
        emit_event t
          (Telemetry.Event.Auth_failure { pid = t.current.pid; va = f.Mmu.va });
        logcpu t "PAC authentication failure: pid %d at pc=0x%Lx va=0x%Lx" t.current.pid
          pc f.Mmu.va;
        ignore
          (record_oops t ~pc
             ~cause:(Printf.sprintf "PAC authentication failure (va=0x%Lx)" f.Mmu.va));
        match
          C.Bruteforce.record_failure t.bruteforce ~cpu:t.active ~pid:t.current.pid
            ~faulting_va:f.Mmu.va
        with
        | C.Bruteforce.Kill_process ->
            mark_dead t t.current;
            Killed "PAC failure: SIGKILL"
        | C.Bruteforce.Panic ->
            t.panicked <- true;
            logf t "kernel panic: PAC failure threshold exceeded (%d failures)"
              (C.Bruteforce.failures t.bruteforce);
            Panicked "PAC failure threshold exceeded"
      end
      else begin
        logf t "kernel oops: pid %d %s at pc=0x%Lx" t.current.pid (Mmu.fault_to_string f) pc;
        log_dump t (record_oops t ~pc ~cause:(Mmu.fault_to_string f));
        mark_dead t t.current;
        Killed "kernel oops: SIGKILL"
      end
  | Cpu.Fault { fault; pc } ->
      logf t "kernel oops: pid %d %s at pc=0x%Lx" t.current.pid
        (Cpu.stop_to_string (Cpu.Fault { fault; pc }))
        pc;
      log_dump t (record_oops t ~pc ~cause:(Cpu.fault_to_string fault));
      mark_dead t t.current;
      Killed "kernel oops: SIGKILL"
  | Cpu.Hlt code ->
      t.panicked <- true;
      logf t "kernel halted (hlt #%d)" code;
      log_dump t
        (record_oops t ~pc:(Cpu.pc t.cpu)
           ~cause:(Printf.sprintf "kernel halted (hlt #%d)" code));
      Panicked (Printf.sprintf "hlt #%d" code)
  | Cpu.Svc _ | Cpu.Brk _ | Cpu.Eret_done | Cpu.Insn_limit ->
      logf t "kernel oops: unexpected stop %s" (Cpu.stop_to_string stop);
      log_dump t
        (record_oops t ~pc:(Cpu.pc t.cpu)
           ~cause:("unexpected stop: " ^ Cpu.stop_to_string stop));
      mark_dead t t.current;
      Killed "kernel oops: SIGKILL"

let kernel_entry ?(trap_charged = false) t =
  (* the SVC instruction charges the trap cost when the entry comes from
     machine-executed user code; host-driven entries pay it here (and
     count it — a machine-executed SVC counts itself) *)
  if not trap_charged then begin
    Cpu.charge t.cpu (Cpu.cost_profile t.cpu).Cost.exception_entry;
    match sink t with
    | Some s ->
        Telemetry.Counters.count_exception_entry (Telemetry.Sink.counters s)
    | None -> ()
  end;
  Cpu.charge t.cpu entry_overhead_cycles;
  Cpu.set_el t.cpu El.El1;
  Cpu.set_sp_of t.cpu El.El1 (task_stack_top t.current);
  if kernel_uses_pauth t then install_kernel_keys t;
  Cpu.set_reg t.cpu (Insn.R 28) t.current.va

let kernel_exit t =
  if kernel_uses_pauth t then restore_user_keys t;
  Cpu.charge t.cpu exit_overhead_cycles;
  Cpu.charge t.cpu (Cpu.cost_profile t.cpu).Cost.eret;
  match sink t with
  | Some s ->
      Telemetry.Counters.count_exception_return (Telemetry.Sink.counters s)
  | None -> ()

let call_handler t addr =
  let stop = Cpu.call t.cpu addr in
  handle_kernel_stop t stop

let syscall_gen ?trap_charged t ~nr ~args =
  if t.panicked then Panicked "system halted"
  else begin
    let name = Kbuild.syscall_name nr in
    emit_event t
      (Telemetry.Event.Syscall_enter { nr; name; pid = t.current.pid });
    kernel_entry ?trap_charged t;
    List.iteri (fun idx v -> Cpu.set_reg t.cpu (Insn.R idx) v) args;
    Cpu.set_reg t.cpu (Insn.R 28) t.current.va;
    let table = t.abi.sys_call_table in
    let handler =
      if nr < 0 || nr >= Kbuild.syscall_count then 0L
      else Kmem.read64 t.cpu (Int64.add table (Int64.of_int (8 * nr)))
    in
    let outcome =
      if handler = 0L then Ok (-38L) (* -ENOSYS *) else call_handler t handler
    in
    (match outcome with
    | Ok _ | Killed _ -> kernel_exit t
    | Panicked _ -> ());
    let result =
      match outcome with Ok v -> v | Killed _ | Panicked _ -> -1L
    in
    emit_event t
      (Telemetry.Event.Syscall_exit { nr; name; pid = t.current.pid; result });
    outcome
  end

let syscall t ~nr ~args = syscall_gen t ~nr ~args

let fork t =
  match syscall t ~nr:Kbuild.sys_fork ~args:[] with
  | Ok child_va ->
      Cpu.charge t.cpu fork_vm_copy_cycles;
      let child = { va = child_va; slot = t.next_stack_slot; pid = t.next_pid } in
      t.next_pid <- t.next_pid + 1;
      t.next_stack_slot <- t.next_stack_slot + 1;
      init_task_fields t child;
      (* fork inherits the parent's user keys (already copied with the
         task struct); the stored kernel SP and credentials pointer must
         be re-signed for the child object, exactly the struct-copy
         hazard of Section 6.3. *)
      prepare_switch_frame t child;
      assign_cred t child;
      t.tasks <- t.tasks @ [ child ];
      Result.Ok child
  | Killed m | Panicked m -> Result.Error m

let switch_to t next =
  if t.panicked then Panicked "system halted"
  else begin
    let prev = t.current in
    emit_event t
      (Telemetry.Event.Context_switch { from_pid = prev.pid; to_pid = next.pid });
    Cpu.set_el t.cpu El.El1;
    enter_kernel_context t;
    (* the scheduler runs on the outgoing task's kernel stack; establish
       it unless a syscall already did *)
    let top = task_stack_top prev in
    let sp = Cpu.sp_of t.cpu El.El1 in
    let base = Int64.sub top (Int64.of_int Layout.task_stack_bytes) in
    if Int64.unsigned_compare sp base <= 0 || Int64.unsigned_compare sp top > 0 then
      Cpu.set_sp_of t.cpu El.El1 top;
    Cpu.set_reg t.cpu (Insn.R 0) prev.va;
    Cpu.set_reg t.cpu (Insn.R 1) next.va;
    Cpu.charge t.cpu sched_pick_cycles;
    (* the switch runs on the previous task's current kernel stack *)
    let outcome = call_handler t t.abi.cpu_switch_to in
    (match outcome with
    | Ok _ ->
        t.current <- next;
        (* closes the Context_switch marker above so the span layer can
           derive the switch cost; pure observation, no cycles charged *)
        emit_event t
          (Telemetry.Event.Switch_done
             { from_pid = prev.pid; to_pid = next.pid })
    | Killed _ | Panicked _ -> ());
    outcome
  end

let run_work t ~work_va =
  if t.panicked then Panicked "system halted"
  else begin
    Cpu.set_el t.cpu El.El1;
    enter_kernel_context t;
    Cpu.set_sp_of t.cpu El.El1 (task_stack_top t.current);
    Cpu.set_reg t.cpu (Insn.R 0) work_va;
    call_handler t t.abi.run_work
  end

(* Timer dispatch: fire expired timers against the virtual counter,
   authenticating every callback pointer on the way (timer.func is a
   protected lone function pointer). *)
let run_timers t =
  if t.panicked then Panicked "system halted"
  else begin
    Cpu.set_el t.cpu El.El1;
    enter_kernel_context t;
    Cpu.set_sp_of t.cpu El.El1 (task_stack_top t.current);
    Cpu.set_reg t.cpu (Insn.R 0) (Cpu.cycles t.cpu);
    call_handler t t.abi.run_timers
  end

(* Symbol tables for the telemetry profiler: half-open PC ranges from a
   placed layout, and the whole kernel (text plus the audited XOM
   routines, which live outside the image). *)
let layout_ranges (lay : Asm.layout) =
  Telemetry.Profile.ranges ~symbols:lay.Asm.symbols
    ~limit:(Int64.add lay.Asm.base (Int64.of_int lay.Asm.size))

let symbol_ranges t =
  let text = t.kernel.Kelf.Loader.text_layout in
  layout_ranges text
  @ Telemetry.Profile.ranges
      ~symbols:
        [
          ("kernel_key_setter", t.xom.Xom.setter_addr);
          ("user_key_restore", t.xom.Xom.restore_addr);
          ("uaccess_authda", t.xom.Xom.uaccess_authda_addr);
        ]
      ~limit:(Int64.add t.xom.Xom.base (Int64.of_int t.xom.Xom.bytes))

(* Host-side console drain: what the virtual UART has received. The
   head counter is guest memory, so a fault can leave any value there;
   the read is clamped to the ring. *)
let console_output t =
  let ring = t.abi.console_ring in
  let head = Int64.to_int (Kmem.read64 t.cpu t.abi.console_state) in
  let len = max 0 (min head 8192) in
  Kmem.read_string t.cpu ring len

(* Module loading. *)

let loader_env t =
  {
    Kelf.Loader.place =
      (fun ~text_bytes ~rodata_bytes ~data_bytes ->
        let text = t.module_alloc in
        let rodata = Int64.add text (Int64.of_int (Layout.round_pages text_bytes)) in
        let data = Int64.add rodata (Int64.of_int (Layout.round_pages rodata_bytes)) in
        t.module_alloc <- Int64.add data (Int64.of_int (Layout.round_pages data_bytes));
        (text, rodata, data));
    map_region =
      (fun ~base ~bytes purpose ->
        match purpose with
        | Kelf.Loader.Text ->
            Kmem.map_kernel_region t.cpu ~base ~bytes Mmu.rx;
            Hypervisor.protect_text t.hyp ~base ~bytes
        | Kelf.Loader.Rodata ->
            Kmem.map_kernel_region t.cpu ~base ~bytes Mmu.ro;
            Hypervisor.protect_rodata t.hyp ~base ~bytes
        | Kelf.Loader.Data -> Kmem.map_kernel_region t.cpu ~base ~bytes Mmu.rw);
    unmap_region =
      (fun ~base ~bytes purpose ->
        Kmem.unmap_region t.cpu ~base ~bytes;
        match purpose with
        | Kelf.Loader.Text | Kelf.Loader.Rodata ->
            (* lift the stage-2 write protection so the frames are
               reusable by the next load at this address *)
            Hypervisor.release t.hyp ~base ~bytes
        | Kelf.Loader.Data -> ());
    read32 = Kmem.read32 t.cpu;
    write32 = Kmem.write32 t.cpu;
    read64 = Kmem.read64 t.cpu;
    write64 = Kmem.write64 t.cpu;
    extra_symbols =
      List.filter_map
        (fun name ->
          match kernel_symbol t name with
          | addr -> Some (name, addr)
          | exception Not_found -> None)
        Kbuild.exported_symbols;
    allowed_key_writer = Xom.allowed_key_writer t.xom;
  }

let load_module t obj =
  let result =
    Kelf.Loader.load ~cpu:t.cpu ~config:t.config ~registry:t.registry ~env:(loader_env t)
      obj
  in
  (match result with
  | Result.Ok placed ->
      logf t "module %s loaded at 0x%Lx" placed.Kelf.Loader.object_name
        placed.Kelf.Loader.text_base
  | Result.Error e ->
      logf t "module %s rejected: %s" obj.Kelf.Object_file.obj_name
        (Kelf.Loader.error_to_string e));
  result

(* Unload a module: unmap text/rodata/data (lifting stage-2 protection)
   and, when the module is the most recent allocation, roll the bump
   allocator back so the next load reuses the same addresses — the
   decoded-instruction cache must observe new code at old addresses
   (covered by the invalidation regression tests). *)
let unload_module t (placed : Kelf.Loader.placed) =
  Kelf.Loader.unload ~env:(loader_env t) placed;
  let region_end =
    Int64.add placed.Kelf.Loader.data_base
      (Int64.of_int (Layout.round_pages placed.Kelf.Loader.data_bytes))
  in
  if region_end = t.module_alloc then t.module_alloc <- placed.Kelf.Loader.text_base;
  logf t "module %s unloaded from 0x%Lx" placed.Kelf.Loader.object_name
    placed.Kelf.Loader.text_base

(* User execution. *)

let map_user_program t prog =
  let layout = Asm.assemble prog ~base:Layout.user_text_base in
  Kmem.map_user_region t.cpu ~base:Layout.user_text_base
    ~bytes:(max 4096 layout.Asm.size) Mmu.rx;
  Kmem.map_user_region t.cpu
    ~base:(Int64.sub Layout.user_stack_top 0x10000L)
    ~bytes:0x10000 Mmu.rw;
  Kmem.map_user_region t.cpu ~base:Layout.user_data_base ~bytes:0x10000 Mmu.rw;
  Asm.encode_into layout ~write32:(Kmem.write32 t.cpu);
  layout

let save_user_gprs t = Array.init 31 (fun idx -> Cpu.reg t.cpu (Insn.R idx))

let restore_user_gprs t saved = Array.iteri (fun idx v -> Cpu.set_reg t.cpu (Insn.R idx) v) saved

(* The user-mode loop under [run_user] and [run_smp]: run the active
   core's current task at EL0 until it stops, dispatching its syscalls
   on the way (the GPRs are saved around the handler and x0 carries the
   result back). User instructions count against [budget] across
   syscalls; the kernel-side work does not. [None] means the budget ran
   out with the task still live. *)
let rec run_user_mode t budget =
  if budget <= 0 then None
  else begin
    let insns_before = Cpu.insns_retired t.cpu in
    match Cpu.run ~max_insns:budget t.cpu with
    | Cpu.Insn_limit -> None
    | Cpu.Svc nr when nr = Kbuild.sys_exit -> Some (Exited (Cpu.reg t.cpu (Insn.R 0)))
    | Cpu.Svc nr -> (
        let spent = Int64.to_int (Int64.sub (Cpu.insns_retired t.cpu) insns_before) in
        let user_pc = Cpu.pc t.cpu in
        let saved = save_user_gprs t in
        let args = [ saved.(0); saved.(1); saved.(2) ] in
        match syscall_gen ~trap_charged:true t ~nr ~args with
        | Ok result ->
            restore_user_gprs t saved;
            Cpu.set_reg t.cpu (Insn.R 0) result;
            Cpu.set_el t.cpu El.El0;
            Cpu.set_pc t.cpu user_pc;
            run_user_mode t (budget - spent)
        | Killed m -> Some (User_killed m)
        | Panicked m -> Some (User_panicked m))
    | Cpu.Sentinel_return -> Some (Exited (Cpu.reg t.cpu (Insn.R 0)))
    | Cpu.Hlt code -> Some (User_killed (Printf.sprintf "hlt #%d in user mode" code))
    | Cpu.Brk code -> Some (User_killed (Printf.sprintf "brk #%d" code))
    | Cpu.Fault { fault; pc } ->
        logcpu t "segfault: pid %d %s at pc=0x%Lx" t.current.pid
          (match fault with
          | Cpu.Mmu_fault f -> Mmu.fault_to_string f
          | Cpu.Undefined_instruction w -> Printf.sprintf "undefined insn 0x%08lx" w
          | Cpu.Hyp_denied sr | Cpu.El_denied sr -> "denied access to " ^ Sysreg.name sr)
          pc;
        mark_dead t t.current;
        Some (User_killed "SIGSEGV")
    | Cpu.Eret_done -> run_user_mode t budget
  end

(* Cost of one watchdog intervention: timer interrupt, inspection of the
   stuck task, reprogramming the budget. *)
let watchdog_backoff_cycles = 400

(* Grace periods a task that blows its budget gets before the SIGKILL. *)
let watchdog_retries = 2

let run_user ?(max_insns = 10_000_000) t ~entry =
  (* entering EL0: the task's own keys must be live (R5) *)
  if Cpu.has_pauth t.cpu then restore_user_keys t;
  Cpu.set_el t.cpu El.El0;
  Cpu.set_sp_of t.cpu El.El0 Layout.user_stack_top;
  Cpu.set_reg t.cpu Insn.lr Cpu.sentinel;
  Cpu.set_pc t.cpu entry;
  (* Watchdog: treat a blown instruction budget as a possibly transient
     stall — retry with a doubled budget and a charged backoff, a
     bounded number of times, before escalating. *)
  let rec attempt budget retries =
    match run_user_mode t budget with
    | Some status -> status
    | None when retries < watchdog_retries ->
        let retries = retries + 1 and budget = budget * 2 in
        Cpu.charge t.cpu (watchdog_backoff_cycles * retries);
        logcpu t "watchdog: pid %d blew its instruction budget; retry %d/%d (budget %d)"
          t.current.pid retries watchdog_retries budget;
        attempt budget retries
    | None ->
        logcpu t "watchdog: pid %d unresponsive after %d retries; escalating to SIGKILL"
          t.current.pid retries;
        log_dump t
          (record_oops t ~pc:(Cpu.pc t.cpu) ~cause:"watchdog: instruction budget exhausted");
        mark_dead t t.current;
        Watchdog_expired { budget; retries }
  in
  attempt max_insns 0

(* Kernel integrity monitor: a chained PACGA MAC over the syscall table
   under the generic-data key. The golden value is taken at boot and
   kept host-side (playing the role of attestation state the attacker
   cannot reach); re-measuring detects any tampering that slipped past
   the stage-2 write protection. *)

let measure_syscall_table t =
  enter_kernel_context t;
  Cpu.set_el t.cpu El.El1;
  Cpu.set_sp_of t.cpu El.El1 (task_stack_top t.current);
  Cpu.set_reg t.cpu (Insn.R 0) t.abi.sys_call_table;
  Cpu.set_reg t.cpu (Insn.R 1) (Int64.of_int Kbuild.syscall_count);
  match Cpu.call t.cpu t.abi.table_mac with
  | Cpu.Sentinel_return -> Cpu.reg t.cpu (Insn.R 0)
  | other -> failwith ("table_mac: " ^ Cpu.stop_to_string other)

let record_table_mac t = t.table_mac_golden <- measure_syscall_table t

let verify_syscall_table t =
  if not (Cpu.has_pauth t.cpu) then true
  else begin
  let current = measure_syscall_table t in
  let ok = current = t.table_mac_golden in
  if not ok then logf t "integrity monitor: syscall table MAC mismatch";
  ok
  end

(* X7 (Section 8 future work, register spills / interrupt handler): a
   chained PACGA MAC over a task's saved user context. Host-side mirror
   of the machine's table_mac, with the machine's GA key; the cycle cost
   of the 33 MAC operations is charged. *)
let context_mac t task =
  let cipher = Cpu.cipher t.cpu in
  let key = t.context_key in
  let words =
    List.init 31 (fun idx -> Kmem.read64 t.cpu (Int64.add task.va (Int64.of_int (Kobject.Task.off_gprs + (8 * idx)))))
    @ [
        Kmem.read64 t.cpu (Int64.add task.va (Int64.of_int Kobject.Task.off_saved_pc));
        Kmem.read64 t.cpu (Int64.add task.va (Int64.of_int Kobject.Task.off_saved_sp));
      ]
  in
  Cpu.charge t.cpu (33 * (Cpu.cost_profile t.cpu).Cost.pauth);
  List.fold_left
    (fun acc w ->
      Pac.generic ~cipher ~key ~value:(Int64.logxor w acc) ~modifier:acc)
    0L words

(* Preemptive round-robin scheduling: user tasks run in timer quanta;
   quantum expiry triggers an IRQ-style kernel entry and a switch to the
   next runnable task. User context lives in the task structure. *)

let off_gpr idx = Kobject.Task.off_gprs + (8 * idx)

let save_user_context t task =
  for idx = 0 to 30 do
    Kmem.write64 t.cpu
      (Int64.add task.va (Int64.of_int (off_gpr idx)))
      (Cpu.reg t.cpu (Insn.R idx))
  done;
  Kmem.write64 t.cpu
    (Int64.add task.va (Int64.of_int Kobject.Task.off_saved_pc))
    (Cpu.pc t.cpu);
  Kmem.write64 t.cpu
    (Int64.add task.va (Int64.of_int Kobject.Task.off_saved_sp))
    (Cpu.sp_of t.cpu El.El0)

let restore_user_context t task =
  for idx = 0 to 30 do
    Cpu.set_reg t.cpu (Insn.R idx)
      (Kmem.read64 t.cpu (Int64.add task.va (Int64.of_int (off_gpr idx))))
  done;
  Cpu.set_pc t.cpu
    (Kmem.read64 t.cpu (Int64.add task.va (Int64.of_int Kobject.Task.off_saved_pc)));
  Cpu.set_sp_of t.cpu El.El0
    (Kmem.read64 t.cpu (Int64.add task.va (Int64.of_int Kobject.Task.off_saved_sp)))

(* Per-task user stacks, one MiB apart below the common stack top. *)
let user_stack_top_of task =
  Int64.sub Layout.user_stack_top (Int64.of_int (task.slot * 0x100000))

let spawn_user_task t ~entry =
  let task = create_task t in
  let stack_top = user_stack_top_of task in
  Kmem.map_user_region t.cpu ~base:(Int64.sub stack_top 0x10000L) ~bytes:0x10000 Mmu.rw;
  Kmem.write64 t.cpu (Int64.add task.va (Int64.of_int Kobject.Task.off_saved_pc)) entry;
  Kmem.write64 t.cpu (Int64.add task.va (Int64.of_int Kobject.Task.off_saved_sp)) stack_top;
  (* LR starts at the host sentinel so falling off main exits cleanly *)
  Kmem.write64 t.cpu (Int64.add task.va (Int64.of_int (off_gpr 30))) Cpu.sentinel;
  task

(* SMP scheduling: per-CPU round-robin run queues driven by a
   cycle-interleaved host loop. Each scheduling round visits the cores
   in order and runs one quantum on each, so simulated time advances in
   lockstep while every core's kernel entries (key installs included)
   execute on that core's own register file. Every [balance_interval]
   rounds an imbalanced core rings the idlest core's doorbell with a
   Reschedule IPI; the receiver acknowledges it and pulls a task.
   Everything is driven by deterministic state, so a given seed and cpu
   count always produce the same exit order and cycle totals. *)

type smp_stats = {
  smp_exits : (int * int * user_exit) list;  (** cpu, pid, exit status *)
  smp_slices : int;
  smp_preemptions : int;
  smp_migrations : int;  (** tasks pulled across cores by IPIs *)
  smp_ipis : int;  (** doorbell rings during the run *)
  smp_offlined : int list;  (** cores quarantined during the run, in order *)
  per_cpu_cycles : int64 array;  (** each core's clock at the end *)
  makespan : int64;  (** busiest core's clock: parallel simulated time *)
}

let run_smp ?(quantum = 2000) ?(max_slices = 50_000) ?(balance_interval = 8)
    ?quarantine_after ?(context_integrity = false) t ~tasks:scheduled =
  let n = Machine.cpus t.machine in
  let queues = Array.init n (fun _ -> Queue.create ()) in
  List.iteri (fun idx task -> Queue.add task queues.(idx mod n)) scheduled;
  let exits = ref [] in
  let slices = ref 0 in
  let preemptions = ref 0 in
  let migrations = ref 0 in
  let ipis_before = Machine.ipis_sent t.machine in
  let update_rq cid =
    let core = Machine.core t.machine cid in
    Percpu.set_rq_len core t.percpu.(cid).pc (Queue.length queues.(cid))
  in
  Array.iteri (fun cid _ -> update_rq cid) queues;
  let finish cid task status = exits := (cid, task.pid, status) :: !exits in
  let integrity = context_integrity && Cpu.has_pauth t.cpu in
  (* X7: a task resumes only if its saved context still carries the MAC
     taken when it was preempted (a task never preempted has none). *)
  let context_intact task =
    (not integrity)
    ||
    match Hashtbl.find_opt t.context_macs task.pid with
    | Some golden when context_mac t task <> golden ->
        logcpu t "context-integrity violation: pid %d saved state tampered" task.pid;
        mark_dead t task;
        false
    | Some _ | None -> true
  in
  (* One quantum of task [task] on core [cid]: [None] when the timer
     preempted it, [Some] exit status when it stopped. *)
  let run_one_slice cid task =
    with_core t cid (fun () ->
        (* slice prologue is a kernel entry on this core *)
        Cpu.set_el t.cpu El.El1;
        enter_kernel_context t;
        let switched =
          if t.current.pid = task.pid then `Switched
          else
            match switch_to t task with
            | Ok _ ->
                Percpu.set_current t.cpu t.percpu.(cid).pc task.va;
                `Switched
            | Killed m ->
                (* the incoming task's switch frame failed authentication:
                   kill that task, keep the core running *)
                logcpu t "scheduler: switch to pid %d failed (%s); killing it" task.pid m;
                mark_dead t task;
                `Stopped (User_killed m)
            | Panicked m -> `Stopped (User_panicked m)
        in
        match switched with
        | `Stopped status -> Some status
        | `Switched when not (context_intact task) ->
            Some (User_killed "context integrity: SIGKILL")
        | `Switched -> (
            restore_user_context t task;
            if Cpu.has_pauth t.cpu then begin
              Cpu.set_reg t.cpu (Insn.R 0) task.va;
              xom_key_call t ~domain:"user" ~err:"key restore: "
                t.xom.Xom.restore_addr;
              restore_user_context t task
            end;
            Cpu.set_el t.cpu El.El0;
            match run_user_mode t quantum with
            | Some status -> Some status
            | None ->
                (* timer IRQ: save (and under X7 MAC) the user context,
                   re-enter the kernel (the entry installs this core's
                   keys like any other) *)
                Cpu.charge t.cpu (Cpu.cost_profile t.cpu).Cost.exception_entry;
                Cpu.charge t.cpu entry_overhead_cycles;
                save_user_context t task;
                if integrity then
                  Hashtbl.replace t.context_macs task.pid (context_mac t task);
                Cpu.set_el t.cpu El.El1;
                enter_kernel_context t;
                None))
  in
  (* Reschedule-IPI receive path: acknowledge the doorbell and pull one
     task from each requester that is still busier than we are. *)
  let drain_ipis cid =
    List.iter
      (fun ipi ->
        let requesters = Machine.ack t.machine ~cpu:cid ipi in
        let core = Machine.core t.machine cid in
        Percpu.count_ipi core t.percpu.(cid).pc;
        Cpu.charge core (Cpu.cost_profile core).Cost.exception_entry;
        match ipi with
        | Machine.Reschedule ->
            Percpu.count_resched core t.percpu.(cid).pc;
            List.iter
              (fun src ->
                if Queue.length queues.(src) > Queue.length queues.(cid) + 1 then
                  match Queue.take_opt queues.(src) with
                  | Some pulled ->
                      Queue.add pulled queues.(cid);
                      incr migrations;
                      update_rq src;
                      update_rq cid;
                      logcpu t "pulled pid %d from cpu%d" pulled.pid src
                  | None -> ())
              requesters
        | Machine.Stop | Machine.Call_function -> ())
      (Machine.pending t.machine ~cpu:cid)
  in
  (* Per-CPU quarantine: a core that has accumulated [quarantine_after]
     PAC failures is taken offline — it stops scheduling, and its queue
     migrates round-robin onto the remaining online cores. The last
     online core is never quarantined. *)
  let offline = Array.make n false in
  let offlined = ref [] in
  let online_count () =
    Array.fold_left (fun acc o -> if o then acc else acc + 1) 0 offline
  in
  let quarantine_check cid =
    match quarantine_after with
    | Some limit
      when (not offline.(cid))
           && online_count () > 1
           && C.Bruteforce.failures_on t.bruteforce ~cpu:cid >= limit ->
        offline.(cid) <- true;
        offlined := !offlined @ [ cid ];
        (let core = Machine.core t.machine cid in
         match Cpu.telemetry core with
         | Some s ->
             Telemetry.Sink.emit s ~ts:(Cpu.cycles core)
               (Telemetry.Event.Quarantine { victim = cid })
         | None -> ());
        logf t "cpu%d: quarantined after %d PAC failures; offlining" cid
          (C.Bruteforce.failures_on t.bruteforce ~cpu:cid);
        let targets =
          List.filter (fun c -> not offline.(c)) (List.init n (fun c -> c))
        in
        let ti = ref 0 in
        while not (Queue.is_empty queues.(cid)) do
          let dst = List.nth targets (!ti mod List.length targets) in
          incr ti;
          let task = Queue.pop queues.(cid) in
          Queue.add task queues.(dst);
          incr migrations;
          update_rq dst;
          logf t "cpu%d: migrated pid %d to cpu%d" cid task.pid dst
        done;
        update_rq cid
    | _ -> ()
  in
  (* Periodic load balancing: the busiest online core rings the idlest. *)
  let balance () =
    let busiest = ref (-1) and idlest = ref (-1) in
    Array.iteri
      (fun cid q ->
        if not offline.(cid) then begin
          if !busiest < 0 || Queue.length q > Queue.length queues.(!busiest) then
            busiest := cid;
          if !idlest < 0 || Queue.length q < Queue.length queues.(!idlest) then
            idlest := cid
        end)
      queues;
    if
      !busiest >= 0 && !idlest >= 0
      && Queue.length queues.(!busiest) - Queue.length queues.(!idlest) >= 2
    then Machine.send_ipi t.machine ~src:!busiest ~dst:!idlest Machine.Reschedule
  in
  let any_runnable () = Array.exists (fun q -> not (Queue.is_empty q)) queues in
  let round = ref 0 in
  while (not t.panicked) && any_runnable () && !slices < max_slices do
    for cid = 0 to n - 1 do
      if (not t.panicked) && !slices < max_slices && not offline.(cid) then begin
        drain_ipis cid;
        (match Queue.take_opt queues.(cid) with
        | None -> ()
        | Some task ->
            incr slices;
            (match run_one_slice cid task with
            | Some status -> finish cid task status
            | None ->
                incr preemptions;
                Queue.add task queues.(cid));
            update_rq cid);
        quarantine_check cid
      end
    done;
    incr round;
    if !round mod balance_interval = 0 then balance ()
  done;
  {
    smp_exits = List.rev !exits;
    smp_slices = !slices;
    smp_preemptions = !preemptions;
    smp_migrations = !migrations;
    smp_ipis = Machine.ipis_sent t.machine - ipis_before;
    smp_offlined = !offlined;
    per_cpu_cycles =
      Array.init n (fun cid -> Cpu.cycles (Machine.core t.machine cid));
    makespan = Machine.max_cycles t.machine;
  }

(* Boot. *)

let check_config (config : C.Config.t) =
  match config.C.Config.scheme with
  | C.Modifier.Chained ->
      Error
        "the chained scheme cannot prefabricate switch frames and is \
         evaluated as a microbenchmark ablation only (see bench a5)"
  | C.Modifier.No_cfi | C.Modifier.Sp_only | C.Modifier.Parts _ | C.Modifier.Camouflage
    ->
      Ok ()

let boot ?(config = C.Config.full) ?(seed = 42L) ?(has_pauth = true)
    ?(cost = Cost.cortex_a53) ?(cpus = 1) ?(telemetry = false) ?tier () =
  Result.iter_error (fun m -> failwith ("System.boot: " ^ m)) (check_config config);
  if cpus < 1 || cpus > 16 then invalid_arg "System.boot: cpus must be in 1..16";
  let cipher = Qarma.Block.create () in
  let machine =
    Machine.create ~cost ~has_pauth ~cipher ~cpus ~telemetry ?tier ()
  in
  let cpu = Machine.boot_core machine in
  (* Bootloader: map the kernel's working memory (shared by all cores). *)
  Kmem.map_kernel_region cpu ~base:Layout.heap_base ~bytes:Layout.heap_bytes Mmu.rw;
  Kmem.map_kernel_region cpu ~base:Layout.stack_area_base
    ~bytes:(Layout.max_task_slots * Layout.task_stack_bytes)
    Mmu.rw;
  (* The bootloader configures every core's SCTLR before lockdown (key
     enable bits are per-core state, like the key registers). *)
  if has_pauth then begin
    let sctlr =
      List.fold_left
        (fun acc k -> Camo_util.Val64.set_bit (Sysreg.sctlr_enable_bit k) true acc)
        0L
        Sysreg.[ IA; IB; DA; DB ]
    in
    List.iter
      (fun core -> Cpu.set_sysreg core Sysreg.SCTLR_EL1 sctlr)
      (Machine.cores machine)
  end;
  let hyp = Hypervisor.install cpu in
  (* The hypervisor locks the MMU-control registers of every core; the
     stage-2 tables are already shared through the common Mmu.t. *)
  List.iter
    (fun core ->
      if Cpu.id core <> 0 then Cpu.set_sysreg_lock core (Hypervisor.is_locked_register hyp))
    (Machine.cores machine);
  let rng = Camo_util.Rng.create seed in
  let xom = Xom.install cpu hyp ~rng ~mode:config.C.Config.mode in
  let registry = C.Pointer_integrity.create_registry () in
  Kobject.register_protected_members registry;
  let t =
    {
      machine;
      cpu;
      active = 0;
      percpu = [||];
      config;
      registry;
      hyp;
      xom;
      bruteforce = C.Bruteforce.create ~threshold:config.C.Config.bruteforce_threshold;
      kernel =
        (* placeholder; replaced below once the image is loaded *)
        {
          Kelf.Loader.object_name = "";
          text_layout = Asm.assemble (Asm.create ()) ~base:Layout.text_base;
          text_base = Layout.text_base;
          text_bytes = 0;
          rodata_base = Layout.rodata_base;
          rodata_bytes = 0;
          data_base = Layout.data_base;
          data_bytes = 0;
          lint_warnings = [];
          symbol_table = Hashtbl.create 0;
        };
      abi = resolve_abi (fun _ -> 0L);
      rng;
      current = { va = 0L; slot = 0; pid = 0 };
      tasks = [];
      next_pid = 1;
      next_stack_slot = 0;
      module_alloc = Layout.module_area_base;
      log = [];
      panicked = false;
      oopses = [];
      table_mac_golden = 0L;
      context_macs = Hashtbl.create 16;
      context_key = Pac.{ hi = 0L; lo = 0L };
    }
  in
  (* Install the kernel keys before anything signs pointers (the loader
     signs the .pauth_static entries). *)
  if has_pauth then install_kernel_keys t;
  let kernel_env =
    {
      (loader_env t) with
      Kelf.Loader.place =
        (fun ~text_bytes:_ ~rodata_bytes:_ ~data_bytes:_ ->
          (Layout.text_base, Layout.rodata_base, Layout.data_base));
      (* the audited bootloader routines are linked like firmware calls *)
      extra_symbols =
        [
          ("kernel_key_setter", xom.Xom.setter_addr);
          ("user_key_restore", xom.Xom.restore_addr);
          ("uaccess_authda", xom.Xom.uaccess_authda_addr);
        ];
    }
  in
  let kernel_obj = Kbuild.build config registry in
  let kernel =
    match
      Kelf.Loader.load ~cpu ~config ~registry ~env:kernel_env kernel_obj
    with
    | Result.Ok placed -> placed
    | Result.Error e -> failwith ("kernel image rejected: " ^ Kelf.Loader.error_to_string e)
  in
  t.kernel <- kernel;
  t.abi <- resolve_abi (Kelf.Loader.symbol kernel);
  List.iter
    (fun d -> logf t "paclint: %s" (Paclint.Diag.to_string d))
    kernel.Kelf.Loader.lint_warnings;
  let chi, clo = Camo_util.Rng.key128 rng in
  t.context_key <- Pac.{ hi = chi; lo = clo };
  if has_pauth then record_table_mac t;
  logf t "camouflage kernel booted (%s)" (C.Config.name config);
  let init = create_task t in
  t.current <- init;
  (* SMP bring-up: a per-CPU data area for every core, then secondary
     cores come online one by one. Each secondary executes the XOM key
     setter itself — the key registers are per-core, so the boot core's
     install does nothing for its siblings — and parks on a private idle
     task. With [cpus = 1] nothing here changes observable state, so
     single-core pid numbering is untouched. *)
  t.percpu <-
    Array.init cpus (fun cid ->
        let core = Machine.core machine cid in
        let pc = Percpu.init core ~cid in
        Percpu.set_current core pc init.va;
        { pc; cur = init; idle = None });
  for cid = 1 to cpus - 1 do
    with_core t cid (fun () ->
        Cpu.set_el t.cpu El.El1;
        if kernel_uses_pauth t then install_kernel_keys t;
        let idle = create_task t in
        t.percpu.(cid).idle <- Some idle;
        t.current <- idle;
        Percpu.set_current t.cpu t.percpu.(cid).pc idle.va;
        Percpu.set_idle t.cpu t.percpu.(cid).pc idle.va;
        Cpu.set_sp_of t.cpu El.El1 (task_stack_top idle);
        logf t "cpu%d online (idle pid %d)" cid idle.pid)
  done;
  t

(* System snapshots: the machine snapshot (memory CoW + cores + GIC +
   telemetry) plus every host-side kernel field the guest cannot see —
   scheduler mirrors, task lists, the console/oops logs, the RNG stream
   position, brute-force accounting, and the held-out attestation MACs.
   Immutable-after-boot structures (config, registry, hypervisor, XOM
   layout, per-CPU bases, the kernel image and its ABI record) are
   shared, not copied. *)
type snapshot = {
  snap_machine : Machine.snapshot;
  snap_active : int;
  snap_percpu : (task * task option) array;
  snap_rng : int64;
  snap_current : task;
  snap_tasks : task list;
  snap_next_pid : int;
  snap_next_stack_slot : int;
  snap_module_alloc : int64;
  snap_log : (int64 * string) list;
  snap_panicked : bool;
  snap_oopses : oops list;
  snap_table_mac_golden : int64;
  snap_context_macs : (int, int64) Hashtbl.t;
  snap_context_key : Pac.key;
  snap_bruteforce : C.Bruteforce.captured;
}

let snapshot t =
  {
    snap_machine = Machine.snapshot t.machine;
    snap_active = t.active;
    snap_percpu = Array.map (fun st -> (st.cur, st.idle)) t.percpu;
    snap_rng = Camo_util.Rng.state t.rng;
    snap_current = t.current;
    snap_tasks = t.tasks;
    snap_next_pid = t.next_pid;
    snap_next_stack_slot = t.next_stack_slot;
    snap_module_alloc = t.module_alloc;
    snap_log = t.log;
    snap_panicked = t.panicked;
    snap_oopses = t.oopses;
    snap_table_mac_golden = t.table_mac_golden;
    snap_context_macs = Hashtbl.copy t.context_macs;
    snap_context_key = t.context_key;
    snap_bruteforce = C.Bruteforce.capture t.bruteforce;
  }

let restore t s =
  Machine.restore t.machine s.snap_machine;
  t.active <- s.snap_active;
  t.cpu <- Machine.core t.machine s.snap_active;
  Array.iteri
    (fun i (cur, idle) ->
      t.percpu.(i).cur <- cur;
      t.percpu.(i).idle <- idle)
    s.snap_percpu;
  Camo_util.Rng.set_state t.rng s.snap_rng;
  t.current <- s.snap_current;
  t.tasks <- s.snap_tasks;
  t.next_pid <- s.snap_next_pid;
  t.next_stack_slot <- s.snap_next_stack_slot;
  t.module_alloc <- s.snap_module_alloc;
  t.log <- s.snap_log;
  t.panicked <- s.snap_panicked;
  t.oopses <- s.snap_oopses;
  t.table_mac_golden <- s.snap_table_mac_golden;
  Hashtbl.reset t.context_macs;
  Hashtbl.iter (fun k v -> Hashtbl.replace t.context_macs k v) s.snap_context_macs;
  t.context_key <- s.snap_context_key;
  C.Bruteforce.restore t.bruteforce s.snap_bruteforce
