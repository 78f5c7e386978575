open Aarch64

(* Canonical serialization of everything the replay contract promises to
   reproduce. Every component is folded in a deterministic order (sorted
   frame indices, sorted translation-table keys, sorted sysregs, cores
   by id), so two states fingerprint equal iff they are architecturally
   identical — hash-table iteration order never leaks in. *)

let add_i64 b v = Buffer.add_int64_le b v
let add_int b v = Buffer.add_int64_le b (Int64.of_int v)

let add_str b s =
  add_int b (String.length s);
  Buffer.add_string b s

let add_bool b v = Buffer.add_char b (if v then '\001' else '\000')

let add_perm b (p : Mmu.perm) =
  Buffer.add_char b
    (Char.chr
       ((if p.r then 4 else 0) lor (if p.w then 2 else 0) lor if p.x then 1 else 0))

let el_code = function El.El0 -> 0 | El.El1 -> 1 | El.El2 -> 2

let add_core b core =
  add_int b (Cpu.id core);
  add_i64 b (Cpu.pc core);
  add_int b (el_code (Cpu.el core));
  add_i64 b (Cpu.sp_of core El.El0);
  add_i64 b (Cpu.sp_of core El.El1);
  add_i64 b (Cpu.sp_of core El.El2);
  for n = 0 to 30 do
    add_i64 b (Cpu.reg core (Insn.R n))
  done;
  add_int b (Cpu.flags_bits core);
  add_i64 b (Cpu.cycles core);
  add_i64 b (Cpu.insns_retired core);
  Cpu.fold_sysregs core
    (fun () sr v ->
      add_str b (Sysreg.name sr);
      add_i64 b v)
    ()

(* A frame is a whole number of 64-bit words, so it is tested a word
   at a time: this scan runs over every allocated frame. *)
let all_zero frame =
  let rec from i = i < 0 || (Bytes.get_int64_ne frame i = 0L && from (i - 8)) in
  from (Bytes.length frame - 8)

let add_machine b m =
  add_int b (Machine.cpus m);
  List.iter (add_core b) (Machine.cores m);
  add_int b (Machine.ipis_sent m);
  (* an unallocated frame reads as zeroes, so an all-zero frame is
     architecturally indistinguishable from an absent one — skip both,
     or allocation history (e.g. a restore that zero-fills frames the
     previous trial touched into existence) would leak into the hash *)
  Mem.fold_frames (Machine.mem m)
    (fun () idx frame ->
      if not (all_zero frame) then begin
        add_int b idx;
        Buffer.add_bytes b frame
      end)
    ();
  Mmu.fold_stage1 (Machine.mmu m)
    (fun () va_page (pa_page, el0, el1) ->
      add_i64 b va_page;
      add_i64 b pa_page;
      add_perm b el0;
      add_perm b el1)
    ();
  Mmu.fold_stage2 (Machine.mmu m)
    (fun () pa_page p ->
      add_i64 b pa_page;
      add_perm b p)
    ()

let of_machine m =
  let b = Buffer.create (1 lsl 16) in
  add_machine b m;
  Digest.to_hex (Digest.bytes (Buffer.to_bytes b))

let of_system sys =
  let module K = Kernel.System in
  let b = Buffer.create (1 lsl 16) in
  add_machine b (K.machine sys);
  add_bool b (K.panicked sys);
  let add_task (t : K.task) =
    add_i64 b t.K.va;
    add_int b t.K.slot;
    add_int b t.K.pid
  in
  add_task (K.current sys);
  add_int b (List.length (K.tasks sys));
  List.iter add_task (K.tasks sys);
  add_str b (K.console_output sys);
  let log = K.log_events sys in
  add_int b (List.length log);
  List.iter
    (fun (ts, line) ->
      add_i64 b ts;
      add_str b line)
    log;
  let oopses = K.oopses sys in
  add_int b (List.length oopses);
  List.iter
    (fun (o : K.oops) ->
      add_int b o.K.oops_cpu;
      add_int b o.K.oops_pid;
      add_str b o.K.oops_cause;
      add_i64 b o.K.oops_pc;
      add_str b o.K.oops_dump)
    oopses;
  let bf = K.bruteforce sys in
  add_int b (Camouflage.Bruteforce.failures bf);
  List.iter
    (fun (e : Camouflage.Bruteforce.event) ->
      add_int b e.Camouflage.Bruteforce.pid;
      add_int b e.Camouflage.Bruteforce.cpu;
      add_i64 b e.Camouflage.Bruteforce.faulting_va;
      add_int b e.Camouflage.Bruteforce.at_failure)
    (Camouflage.Bruteforce.log bf);
  Digest.to_hex (Digest.bytes (Buffer.to_bytes b))
