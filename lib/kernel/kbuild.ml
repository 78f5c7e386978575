open Aarch64
module C = Camouflage
module O = Kelf.Object_file

let sys_exit = 0
let sys_getpid = 1
let sys_read = 2
let sys_write = 3
let sys_open = 4
let sys_close = 5
let sys_stat = 6
let sys_fstat = 7
let sys_notifier_register = 8
let sys_notifier_call = 9
let sys_pipe_write = 10
let sys_pipe_read = 11
let sys_fork = 12
let sys_vuln_read = 13
let sys_vuln_write = 14
let sys_getuid = 15
let sys_read_secure = 16
let sys_socketpair = 17
let sys_poll = 18
let sys_timer_set = 19
let syscall_count = 20

let syscall_name nr =
  match nr with
  | 0 -> "sys_exit"
  | 1 -> "sys_getpid"
  | 2 -> "sys_read"
  | 3 -> "sys_write"
  | 4 -> "sys_open"
  | 5 -> "sys_close"
  | 6 -> "sys_stat"
  | 7 -> "sys_fstat"
  | 8 -> "sys_notifier_register"
  | 9 -> "sys_notifier_call"
  | 10 -> "sys_pipe_write"
  | 11 -> "sys_pipe_read"
  | 12 -> "sys_fork"
  | 13 -> "sys_vuln_read"
  | 14 -> "sys_vuln_write"
  | 15 -> "sys_getuid"
  | 16 -> "sys_read_secure"
  | 17 -> "sys_socketpair"
  | 18 -> "sys_poll"
  | 19 -> "sys_timer_set"
  | _ -> Printf.sprintf "sys_%d" nr

let i x = Asm.ins x
let r n = Insn.R n

(* Return -1 convention: x0 := 0 - 1. *)
let ret_minus_one = [ i (Insn.Movz (r 0, 0, 0)); i (Insn.Sub_imm (r 0, r 0, 1)) ]

let bounds_check reg ~lo ~hi ~bad =
  [
    i (Insn.Subs_imm (Insn.XZR, reg, lo));
    Asm.bcond_to Insn.Lt bad;
    i (Insn.Subs_imm (Insn.XZR, reg, hi));
    Asm.bcond_to Insn.Ge bad;
  ]

(* Leaf helpers (frameless; exempt from backward-edge CFI, as the paper
   notes for functions optimized to omit their stack frame). *)

let fd_to_file_body =
  bounds_check (r 0) ~lo:0 ~hi:Kobject.Task.fd_table_entries ~bad:"bad"
  @ [
      i (Insn.Lsl_imm (r 9, r 0, 3));
      i (Insn.Add_reg (r 9, r 9, r 28));
      i (Insn.Ldr (r 0, Insn.Off (r 9, Kobject.Task.off_fd_table)));
      Asm.b_to "out";
      Asm.label "bad";
      i (Insn.Movz (r 0, 0, 0));
      Asm.label "out";
    ]

let memcpy_bytes_body =
  [
    Asm.label "loop";
    Asm.cbz_to (r 2) "done";
    i (Insn.Ldrb (r 9, Insn.Post (r 1, 1)));
    i (Insn.Strb (r 9, Insn.Post (r 0, 1)));
    i (Insn.Sub_imm (r 2, r 2, 1));
    Asm.b_to "loop";
    Asm.label "done";
  ]

let vuln_read_body = [ i (Insn.Ldr (r 0, Insn.Off (r 0, 0))) ]

let vuln_write_body =
  [ i (Insn.Str (r 1, Insn.Off (r 0, 0))); i (Insn.Movz (r 0, 0, 0)) ]

(* Instrumented bodies. *)

let getpid_body = [ i (Insn.Ldr (r 0, Insn.Off (r 28, Kobject.Task.off_pid))) ]

let fops_noop_body = [ i (Insn.Movz (r 0, 0, 0)) ]

let ramfs_copy_setup ~user_is_dst =
  (* shared head of ramfs_read/ramfs_write: x9 = buf+pos, clamp x2,
     advance pos, then copy with memcpy_bytes. *)
  [
    i (Insn.Ldr (r 9, Insn.Off (r 0, Kobject.File.off_buf)));
    i (Insn.Ldr (r 10, Insn.Off (r 0, Kobject.File.off_pos)));
    i (Insn.Add_reg (r 9, r 9, r 10));
    i (Insn.Ldr (r 11, Insn.Off (r 0, Kobject.File.off_buf_len)));
    i (Insn.Sub_reg (r 11, r 11, r 10));
    i (Insn.Subs_reg (Insn.XZR, r 2, r 11));
    Asm.bcond_to Insn.Le "lenok";
    i (Insn.Mov (r 2, r 11));
    Asm.label "lenok";
    i (Insn.Add_reg (r 10, r 10, r 2));
    i (Insn.Str (r 10, Insn.Off (r 0, Kobject.File.off_pos)));
    i (Insn.Stp (r 2, Insn.XZR, Insn.Pre (Insn.SP, -16)));
  ]
  @ (if user_is_dst then
       [ i (Insn.Mov (r 0, r 1)); i (Insn.Mov (r 1, r 9)) ]
     else [ i (Insn.Mov (r 0, r 9)) ])
  @ [ Asm.bl_to "memcpy_bytes"; i (Insn.Ldp (r 0, r 9, Insn.Post (Insn.SP, 16))) ]

let ramfs_read_body = ramfs_copy_setup ~user_is_dst:true
let ramfs_write_body = ramfs_copy_setup ~user_is_dst:false

let fops_call config registry ~op_offset =
  (* Listing 4: authenticate f_ops, load the op, indirect call. *)
  C.Pointer_integrity.emit_getter config registry ~type_name:"file" ~member_name:"f_ops"
    ~obj:(r 0) ~dst:(r 8) ~scratch:(r 9)
  @ [ i (Insn.Ldr (r 8, Insn.Off (r 8, op_offset))); i (Insn.Blr (r 8)) ]

let sys_read_body config registry =
  [
    i (Insn.Stp (r 1, r 2, Insn.Pre (Insn.SP, -16)));
    Asm.bl_to "fd_to_file";
    i (Insn.Ldp (r 1, r 2, Insn.Post (Insn.SP, 16)));
    Asm.cbz_to (r 0) "bad";
  ]
  @ fops_call config registry ~op_offset:Kobject.Fops.off_read
  @ [ Asm.b_to "out"; Asm.label "bad" ]
  @ ret_minus_one
  @ [ Asm.label "out" ]

let sys_write_body config registry =
  [
    i (Insn.Stp (r 1, r 2, Insn.Pre (Insn.SP, -16)));
    Asm.bl_to "fd_to_file";
    i (Insn.Ldp (r 1, r 2, Insn.Post (Insn.SP, 16)));
    Asm.cbz_to (r 0) "bad";
  ]
  @ fops_call config registry ~op_offset:Kobject.Fops.off_write
  @ [ Asm.b_to "out"; Asm.label "bad" ]
  @ ret_minus_one
  @ [ Asm.label "out" ]

(* Allocate a free descriptor and a file object from the slab; returns
   fd in x0 and the file in x1 (or x0 = -1). Shared by open and
   socketpair. *)
let alloc_fd_file_body =
  [
    i (Insn.Movz (r 9, 3, 0));
    Asm.label "fdloop";
    i (Insn.Subs_imm (Insn.XZR, r 9, Kobject.Task.fd_table_entries));
    Asm.bcond_to Insn.Ge "nofd";
    i (Insn.Lsl_imm (r 10, r 9, 3));
    i (Insn.Add_reg (r 10, r 10, r 28));
    i (Insn.Ldr (r 11, Insn.Off (r 10, Kobject.Task.off_fd_table)));
    Asm.cbz_to (r 11) "gotfd";
    i (Insn.Add_imm (r 9, r 9, 1));
    Asm.b_to "fdloop";
    Asm.label "gotfd";
  ]
  @ Asm.mov_addr (r 10) "file_slab_next"
  @ [
      i (Insn.Ldr (r 11, Insn.Off (r 10, 0)));
      i (Insn.Add_imm (r 12, r 11, Kobject.File.size));
      i (Insn.Str (r 12, Insn.Off (r 10, 0)));
      i (Insn.Lsl_imm (r 12, r 9, 3));
      i (Insn.Add_reg (r 12, r 12, r 28));
      i (Insn.Str (r 11, Insn.Off (r 12, Kobject.Task.off_fd_table)));
      i (Insn.Str (Insn.XZR, Insn.Off (r 11, Kobject.File.off_pos)));
      i (Insn.Mov (r 0, r 9));
      i (Insn.Mov (r 1, r 11));
      Asm.b_to "out";
      Asm.label "nofd";
    ]
  @ ret_minus_one
  @ [ Asm.label "out" ]

(* Sign and store the ops-table and credential pointers of a fresh file:
   x0 = file, x13 = ops table. Used for both ramfs files and sockets. *)
let init_file_protection config registry =
  C.Pointer_integrity.emit_setter config registry ~type_name:"file" ~member_name:"f_ops"
    ~obj:(r 0) ~value:(r 13) ~scratch:(r 14)
  @ Asm.mov_addr (r 13) "root_cred"
  @ C.Pointer_integrity.emit_setter config registry ~type_name:"file"
      ~member_name:"f_cred" ~obj:(r 0) ~value:(r 13) ~scratch:(r 14)

let sys_open_body config registry =
  [
    Asm.bl_to "alloc_fd_file";
    i (Insn.Subs_imm (Insn.XZR, r 0, 0));
    Asm.bcond_to Insn.Lt "out";
    (* x0 = fd, x1 = file; keep fd on the stack during setup *)
    i (Insn.Stp (r 0, r 1, Insn.Pre (Insn.SP, -16)));
    i (Insn.Mov (r 0, r 1));
  ]
  @ Asm.mov_addr (r 12) "ramfs_backing"
  @ [
      i (Insn.Str (r 12, Insn.Off (r 0, Kobject.File.off_buf)));
      i (Insn.Movz (r 13, 4096, 0));
      i (Insn.Str (r 13, Insn.Off (r 0, Kobject.File.off_buf_len)));
    ]
  @ Asm.mov_addr (r 13) "ramfs_fops"
  @ init_file_protection config registry
  @ [ i (Insn.Ldp (r 0, r 9, Insn.Post (Insn.SP, 16))); Asm.label "out" ]

(* socketpair(): two connected sockets as files with the socket ops
   table, each with a private rx buffer; returns the first descriptor
   and guarantees the second is fd+1. *)
let sys_socketpair_body config registry =
  [
    Asm.bl_to "alloc_fd_file";
    i (Insn.Subs_imm (Insn.XZR, r 0, 0));
    Asm.bcond_to Insn.Lt "fail";
    i (Insn.Stp (r 0, r 1, Insn.Pre (Insn.SP, -16)));
    Asm.bl_to "alloc_fd_file";
    i (Insn.Subs_imm (Insn.XZR, r 0, 0));
    Asm.bcond_to Insn.Lt "fail_pop";
    (* stack: fd1, file1; regs: x0 = fd2, x1 = file2 *)
    i (Insn.Stp (r 0, r 1, Insn.Pre (Insn.SP, -16)));
    (* carve two rx buffers *)
  ]
  @ Asm.mov_addr (r 10) "sock_buf_slab_next"
  @ [
      i (Insn.Ldr (r 9, Insn.Off (r 10, 0)));
      i (Insn.Movz (r 11, 4096, 0));
      i (Insn.Add_reg (r 12, r 9, r 11));
      i (Insn.Add_reg (r 13, r 12, r 11));
      i (Insn.Str (r 13, Insn.Off (r 10, 0)));
      (* x9 = buf1, x12 = buf2; frames: [sp]=fd2,file2 [sp+16]=fd1,file1 *)
      i (Insn.Ldr (r 2, Insn.Off (Insn.SP, 24)));
      (* x2 = file1 *)
      i (Insn.Ldr (r 3, Insn.Off (Insn.SP, 8)));
      (* x3 = file2 *)
      i (Insn.Str (r 9, Insn.Off (r 2, Kobject.File.off_buf)));
      i (Insn.Str (r 12, Insn.Off (r 3, Kobject.File.off_buf)));
      i (Insn.Str (r 11, Insn.Off (r 2, Kobject.File.off_buf_len)));
      i (Insn.Str (r 11, Insn.Off (r 3, Kobject.File.off_buf_len)));
      i (Insn.Str (r 3, Insn.Off (r 2, Kobject.File.off_private)));
      i (Insn.Str (r 2, Insn.Off (r 3, Kobject.File.off_private)));
      (* sign ops for file1 then file2 *)
      i (Insn.Mov (r 0, r 2));
    ]
  @ Asm.mov_addr (r 13) "socket_fops"
  @ init_file_protection config registry
  @ [ i (Insn.Ldr (r 0, Insn.Off (Insn.SP, 8))) ]
  @ Asm.mov_addr (r 13) "socket_fops"
  @ init_file_protection config registry
  @ [
      (* return fd1 *)
      i (Insn.Ldp (r 9, r 10, Insn.Post (Insn.SP, 16)));
      i (Insn.Ldp (r 0, r 10, Insn.Post (Insn.SP, 16)));
      Asm.b_to "out";
      Asm.label "fail_pop";
      i (Insn.Ldp (r 9, r 10, Insn.Post (Insn.SP, 16)));
      Asm.label "fail";
    ]
  @ ret_minus_one
  @ [ Asm.label "out" ]

(* Socket data path: send appends to the peer's rx buffer, recv drains
   the own buffer front (no ring wrap in the model). *)
let sock_write_body =
  [
    i (Insn.Ldr (r 9, Insn.Off (r 0, Kobject.File.off_private)));
    i (Insn.Ldr (r 10, Insn.Off (r 9, Kobject.File.off_buf)));
    i (Insn.Ldr (r 11, Insn.Off (r 9, Kobject.File.off_pos)));
    i (Insn.Add_reg (r 10, r 10, r 11));
    i (Insn.Add_reg (r 11, r 11, r 2));
    i (Insn.Str (r 11, Insn.Off (r 9, Kobject.File.off_pos)));
    i (Insn.Stp (r 2, Insn.XZR, Insn.Pre (Insn.SP, -16)));
    i (Insn.Mov (r 0, r 10));
    Asm.bl_to "memcpy_bytes";
    i (Insn.Ldp (r 0, r 9, Insn.Post (Insn.SP, 16)));
  ]

let sock_read_body =
  [
    i (Insn.Ldr (r 11, Insn.Off (r 0, Kobject.File.off_pos)));
    i (Insn.Subs_reg (Insn.XZR, r 2, r 11));
    Asm.bcond_to Insn.Le "lenok";
    i (Insn.Mov (r 2, r 11));
    Asm.label "lenok";
    i (Insn.Ldr (r 9, Insn.Off (r 0, Kobject.File.off_buf)));
    i (Insn.Sub_reg (r 11, r 11, r 2));
    i (Insn.Str (r 11, Insn.Off (r 0, Kobject.File.off_pos)));
    i (Insn.Stp (r 2, Insn.XZR, Insn.Pre (Insn.SP, -16)));
    i (Insn.Mov (r 0, r 1));
    i (Insn.Mov (r 1, r 9));
    Asm.bl_to "memcpy_bytes";
    i (Insn.Ldp (r 0, r 9, Insn.Post (Insn.SP, 16)));
  ]

(* Console device: writes append to a ring in kernel data that the host
   (playing the UART) drains; reads return 0 (EOF). *)
let console_write_body =
  Asm.mov_addr (r 9) "console_state"
  @ [
      i (Insn.Ldr (r 10, Insn.Off (r 9, 0)));
      i (Insn.Movz (r 12, 8191, 0));
      i (Insn.And_reg (r 11, r 10, r 12));
      i (Insn.Add_reg (r 10, r 10, r 2));
      i (Insn.Str (r 10, Insn.Off (r 9, 0)));
    ]
  @ Asm.mov_addr (r 10) "console_ring"
  @ [
      i (Insn.Add_reg (r 10, r 10, r 11));
      i (Insn.Stp (r 2, Insn.XZR, Insn.Pre (Insn.SP, -16)));
      i (Insn.Mov (r 0, r 10));
      Asm.bl_to "memcpy_bytes";
      i (Insn.Ldp (r 0, r 9, Insn.Post (Insn.SP, 16)));
    ]

let console_read_body = [ i (Insn.Movz (r 0, 0, 0)) ]

(* poll: authenticate the ops pointer of every polled file (the kernel
   consults ops->poll), count those with data available. x0 = user
   array of descriptors, x1 = count. *)
let sys_poll_body config registry =
  [
    i (Insn.Mov (r 12, r 0));
    i (Insn.Mov (r 13, r 1));
    i (Insn.Movz (r 14, 0, 0));
    Asm.label "loop";
    Asm.cbz_to (r 13) "done";
    i (Insn.Ldr (r 0, Insn.Off (r 12, 0)));
    Asm.bl_to "fd_to_file";
    Asm.cbz_to (r 0) "next";
  ]
  @ C.Pointer_integrity.emit_getter config registry ~type_name:"file" ~member_name:"f_ops"
      ~obj:(r 0) ~dst:(r 8) ~scratch:(r 9)
  @ [
      i (Insn.Ldr (r 8, Insn.Off (r 8, Kobject.Fops.off_open)));
      (* stands in for ops->poll *)
      i (Insn.Ldr (r 10, Insn.Off (r 0, Kobject.File.off_pos)));
      Asm.cbz_to (r 10) "next";
      i (Insn.Add_imm (r 14, r 14, 1));
      Asm.label "next";
      i (Insn.Add_imm (r 12, r 12, 8));
      i (Insn.Sub_imm (r 13, r 13, 1));
      Asm.b_to "loop";
      Asm.label "done";
      i (Insn.Mov (r 0, r 14));
    ]

(* timer_set: arm a slot with a notifier handler, expiry bound to the
   virtual counter. x0 = slot, x1 = delay (cycles), x2 = handler id. *)
let sys_timer_set_body config registry =
  bounds_check (r 0) ~lo:0 ~hi:Kobject.Timer.slots ~bad:"bad"
  @ bounds_check (r 2) ~lo:0 ~hi:4 ~bad:"bad"
  @ Asm.mov_addr (r 9) "timer_slab"
  @ [
      i (Insn.Lsl_imm (r 10, r 0, 5));
      i (Insn.Add_reg (r 9, r 9, r 10));
      i (Insn.Mrs (r 10, Sysreg.CNTVCT_EL0));
      i (Insn.Add_reg (r 10, r 10, r 1));
      i (Insn.Str (r 10, Insn.Off (r 9, Kobject.Timer.off_expires)));
      i (Insn.Str (r 0, Insn.Off (r 9, Kobject.Timer.off_data)));
    ]
  @ Asm.mov_addr (r 10) "notifier_handlers"
  @ [
      i (Insn.Lsl_imm (r 11, r 2, 3));
      i (Insn.Add_reg (r 10, r 10, r 11));
      i (Insn.Ldr (r 1, Insn.Off (r 10, 0)));
    ]
  @ C.Pointer_integrity.emit_setter config registry ~type_name:"timer" ~member_name:"func"
      ~obj:(r 9) ~value:(r 1) ~scratch:(r 10)
  @ [ i (Insn.Movz (r 0, 0, 0)); Asm.b_to "out"; Asm.label "bad" ]
  @ ret_minus_one
  @ [ Asm.label "out" ]

(* run_timers: fire every armed slot whose expiry has passed; each
   callback pointer is authenticated before the indirect call. x0 = now. *)
let run_timers_body config registry =
  [
    i (Insn.Mov (r 13, r 0));
    i (Insn.Movz (r 12, 0, 0));
    Asm.label "loop";
    i (Insn.Subs_imm (Insn.XZR, r 12, Kobject.Timer.slots));
    Asm.bcond_to Insn.Ge "done";
  ]
  @ Asm.mov_addr (r 9) "timer_slab"
  @ [
      i (Insn.Lsl_imm (r 10, r 12, 5));
      i (Insn.Add_reg (r 9, r 9, r 10));
      i (Insn.Ldr (r 10, Insn.Off (r 9, Kobject.Timer.off_expires)));
      Asm.cbz_to (r 10) "next";
      i (Insn.Subs_reg (Insn.XZR, r 10, r 13));
      Asm.bcond_to Insn.Gt "next";
      i (Insn.Str (Insn.XZR, Insn.Off (r 9, Kobject.Timer.off_expires)));
      i (Insn.Ldr (r 8, Insn.Off (r 9, Kobject.Timer.off_func)));
      Asm.cbz_to (r 8) "next";
      i (Insn.Stp (r 12, r 13, Insn.Pre (Insn.SP, -16)));
    ]
  @ C.Pointer_integrity.emit_getter config registry ~type_name:"timer" ~member_name:"func"
      ~obj:(r 9) ~dst:(r 8) ~scratch:(r 10)
  @ [
      i (Insn.Ldr (r 0, Insn.Off (r 9, Kobject.Timer.off_data)));
      i (Insn.Blr (r 8));
      i (Insn.Ldp (r 12, r 13, Insn.Post (Insn.SP, 16)));
      Asm.label "next";
      i (Insn.Add_imm (r 12, r 12, 1));
      Asm.b_to "loop";
      Asm.label "done";
      i (Insn.Movz (r 0, 0, 0));
    ]

let sys_close_body =
  bounds_check (r 0) ~lo:0 ~hi:Kobject.Task.fd_table_entries ~bad:"bad"
  @ [
      i (Insn.Lsl_imm (r 9, r 0, 3));
      i (Insn.Add_reg (r 9, r 9, r 28));
      i (Insn.Str (Insn.XZR, Insn.Off (r 9, Kobject.Task.off_fd_table)));
      i (Insn.Movz (r 0, 0, 0));
      Asm.b_to "out";
      Asm.label "bad";
    ]
  @ ret_minus_one
  @ [ Asm.label "out" ]

let sys_stat_body =
  [
    i (Insn.Movz (r 9, 0, 0));
    i (Insn.Movz (r 10, 32, 0));
    Asm.label "hloop";
    i (Insn.Lsl_imm (r 11, r 9, 5));
    i (Insn.Add_reg (r 9, r 11, r 9));
    i (Insn.Add_reg (r 9, r 9, r 0));
    i (Insn.Sub_imm (r 10, r 10, 1));
    Asm.cbnz_to (r 10) "hloop";
    i (Insn.Str (r 9, Insn.Off (r 1, 0)));
    i (Insn.Movz (r 11, 4096, 0));
    i (Insn.Str (r 11, Insn.Off (r 1, 8)));
    i (Insn.Movz (r 11, 0x1a4, 0));
    i (Insn.Str (r 11, Insn.Off (r 1, 16)));
    i (Insn.Movz (r 0, 0, 0));
  ]

let sys_fstat_body =
  [
    i (Insn.Stp (r 1, Insn.XZR, Insn.Pre (Insn.SP, -16)));
    Asm.bl_to "fd_to_file";
    i (Insn.Ldp (r 1, r 9, Insn.Post (Insn.SP, 16)));
    Asm.cbz_to (r 0) "bad";
    i (Insn.Ldr (r 10, Insn.Off (r 0, Kobject.File.off_pos)));
    i (Insn.Str (r 10, Insn.Off (r 1, 0)));
    i (Insn.Ldr (r 10, Insn.Off (r 0, Kobject.File.off_buf_len)));
    i (Insn.Str (r 10, Insn.Off (r 1, 8)));
    i (Insn.Movz (r 0, 0, 0));
    Asm.b_to "out";
    Asm.label "bad";
  ]
  @ ret_minus_one
  @ [ Asm.label "out" ]

let notifier_slot_addr =
  (* x9 := &current->notifiers[x0] *)
  [
    i (Insn.Lsl_imm (r 9, r 0, 3));
    i (Insn.Add_reg (r 9, r 9, r 28));
    i (Insn.Add_imm (r 9, r 9, Kobject.Task.off_notifiers));
  ]

let sys_notifier_register_body config registry =
  bounds_check (r 0) ~lo:0 ~hi:Kobject.Task.notifier_slots ~bad:"bad"
  @ bounds_check (r 1) ~lo:0 ~hi:4 ~bad:"bad"
  @ Asm.mov_addr (r 10) "notifier_handlers"
  @ [
      i (Insn.Lsl_imm (r 11, r 1, 3));
      i (Insn.Add_reg (r 10, r 10, r 11));
      i (Insn.Ldr (r 1, Insn.Off (r 10, 0)));
    ]
  @ notifier_slot_addr
  @ C.Pointer_integrity.emit_setter config registry ~type_name:"notifier"
      ~member_name:"handler" ~obj:(r 9) ~value:(r 1) ~scratch:(r 10)
  @ [ i (Insn.Movz (r 0, 0, 0)); Asm.b_to "out"; Asm.label "bad" ]
  @ ret_minus_one
  @ [ Asm.label "out" ]

let sys_notifier_call_body config registry =
  bounds_check (r 0) ~lo:0 ~hi:Kobject.Task.notifier_slots ~bad:"bad"
  @ notifier_slot_addr
  @ [ i (Insn.Ldr (r 8, Insn.Off (r 9, 0))); Asm.cbz_to (r 8) "bad" ]
  @ C.Pointer_integrity.emit_getter config registry ~type_name:"notifier"
      ~member_name:"handler" ~obj:(r 9) ~dst:(r 8) ~scratch:(r 10)
  @ [ i (Insn.Blr (r 8)); Asm.b_to "out"; Asm.label "bad" ]
  @ ret_minus_one
  @ [ Asm.label "out" ]

let notifier_noop_body = [ i (Insn.Movz (r 0, 1, 0)) ]

let bump_cell_body cell ~delta ~ret_cell =
  Asm.mov_addr (r 9) cell
  @ [
      i (Insn.Ldr (r 10, Insn.Off (r 9, 0)));
      i (Insn.Add_imm (r 10, r 10, delta));
      i (Insn.Str (r 10, Insn.Off (r 9, 0)));
    ]
  @ if ret_cell then [ i (Insn.Mov (r 0, r 10)) ] else []

let notifier_count_body = bump_cell_body "notifier_count_cell" ~delta:1 ~ret_cell:true

let pipe_copy ~write =
  let cursor_off = if write then 0 else 16 in
  Asm.mov_addr (r 9) "pipe_state"
  @ [
      i (Insn.Ldr (r 10, Insn.Off (r 9, cursor_off)));
      i (Insn.Movz (r 12, 4095, 0));
      i (Insn.And_reg (r 10, r 10, r 12));
    ]
  @ Asm.mov_addr (r 11) "pipe_buf"
  @ [ i (Insn.Add_reg (r 11, r 11, r 10)) ]
  @ [ i (Insn.Stp (r 1, r 9, Insn.Pre (Insn.SP, -16))) ]
  @ (if write then
       [ i (Insn.Mov (r 2, r 1)); i (Insn.Mov (r 1, r 0)); i (Insn.Mov (r 0, r 11)) ]
     else [ i (Insn.Mov (r 2, r 1)); i (Insn.Mov (r 1, r 11)) ])
  @ [
      Asm.bl_to "memcpy_bytes";
      i (Insn.Ldp (r 1, r 9, Insn.Post (Insn.SP, 16)));
      i (Insn.Ldr (r 10, Insn.Off (r 9, cursor_off)));
      i (Insn.Add_reg (r 10, r 10, r 1));
      i (Insn.Str (r 10, Insn.Off (r 9, cursor_off)));
      i (Insn.Ldr (r 10, Insn.Off (r 9, 8)));
      i
        (if write then Insn.Add_reg (r 10, r 10, r 1)
         else Insn.Sub_reg (r 10, r 10, r 1));
      i (Insn.Str (r 10, Insn.Off (r 9, 8)));
      i (Insn.Mov (r 0, r 1));
    ]

let sys_fork_body =
  Asm.mov_addr (r 9) "task_slab_next"
  @ [
      i (Insn.Ldr (r 10, Insn.Off (r 9, 0)));
      i (Insn.Add_imm (r 11, r 10, Kobject.Task.size));
      i (Insn.Str (r 11, Insn.Off (r 9, 0)));
      i (Insn.Stp (r 10, Insn.XZR, Insn.Pre (Insn.SP, -16)));
      i (Insn.Mov (r 0, r 10));
      i (Insn.Mov (r 1, r 28));
      i (Insn.Movz (r 2, Kobject.Task.size, 0));
      Asm.bl_to "memcpy_bytes";
      i (Insn.Ldp (r 0, r 9, Insn.Post (Insn.SP, 16)));
    ]

let cpu_switch_to_body config registry =
  [ i (Insn.Mov (r 9, Insn.SP)) ]
  @ C.Pointer_integrity.emit_setter config registry ~type_name:"task"
      ~member_name:"kernel_sp" ~obj:(r 0) ~value:(r 9) ~scratch:(r 10)
  @ C.Pointer_integrity.emit_getter config registry ~type_name:"task"
      ~member_name:"kernel_sp" ~obj:(r 1) ~dst:(r 9) ~scratch:(r 10)
  @ [ i (Insn.Mov (Insn.SP, r 9)) ]

let run_work_body config registry =
  [ i (Insn.Ldr (r 8, Insn.Off (r 0, Kobject.Work.off_func))); Asm.cbz_to (r 8) "bad" ]
  @ C.Pointer_integrity.emit_getter config registry ~type_name:"work_struct"
      ~member_name:"func" ~obj:(r 0) ~dst:(r 8) ~scratch:(r 9)
  @ [
      i (Insn.Ldr (r 0, Insn.Off (r 0, Kobject.Work.off_data)));
      i (Insn.Blr (r 8));
      Asm.b_to "out";
      Asm.label "bad";
    ]
  @ ret_minus_one
  @ [ Asm.label "out" ]

(* The hardened-ABI read (Section 8 future work): the buffer pointer
   arrives signed under the caller's DA key and is authenticated through
   the audited uaccess helper before the ordinary read path runs. *)
let sys_read_secure_body =
  [
    i (Insn.Stp (r 0, r 2, Insn.Pre (Insn.SP, -16)));
    i (Insn.Mov (r 0, r 1));
    i (Insn.Mov (r 1, r 28));
    i (Insn.Movz (r 2, 0, 0));
    (* ABI modifier: zero in this prototype *)
    Asm.bl_to "uaccess_authda";
    i (Insn.Mov (r 1, r 0));
    i (Insn.Ldp (r 0, r 2, Insn.Post (Insn.SP, 16)));
    Asm.bl_to "sys_read";
  ]

(* getuid: authenticate current->cred (the f_cred pattern of Section 4.5
   applied to the task credentials), then read the uid. *)
let sys_getuid_body config registry =
  C.Pointer_integrity.emit_getter config registry ~type_name:"task" ~member_name:"cred"
    ~obj:(r 28) ~dst:(r 8) ~scratch:(r 9)
  @ [ i (Insn.Ldr (r 0, Insn.Off (r 8, 0))) ]

(* Chained PACGA over a word range: the generic-data key (GA) MACs each
   word into an accumulator. Used by the boot-time integrity monitor to
   attest the syscall table (defense in depth on top of the stage-2
   write protection). x0 = base, x1 = word count; returns the MAC. *)
let table_mac_body =
  [
    i (Insn.Movz (r 9, 0, 0));
    Asm.label "loop";
    Asm.cbz_to (r 1) "done";
    i (Insn.Ldr (r 10, Insn.Post (r 0, 8)));
    i (Insn.Eor_reg (r 10, r 10, r 9));
    i (Insn.Pacga (r 9, r 10, r 9));
    i (Insn.Sub_imm (r 1, r 1, 1));
    Asm.b_to "loop";
    Asm.label "done";
    i (Insn.Mov (r 0, r 9));
  ]

let work_noop_body = [ i (Insn.Movz (r 0, 7, 0)) ]
let work_counter_body = bump_cell_body "work_counter_cell" ~delta:1 ~ret_cell:true

(* Data section helpers. *)

let zeros n = List.init n (fun _ -> O.Lit 0L)

(* Every kernel text function as a raw body plus its instrumentation
   style. One list serves [build] (which wraps) and [lint] (which also
   checks the raw bodies against the reserved-register convention). *)
let kernel_bodies config registry =
  [
    (`Leaf, "fd_to_file", fd_to_file_body);
    (`Leaf, "memcpy_bytes", memcpy_bytes_body);
    (`Leaf, "sys_vuln_read", vuln_read_body);
    (`Leaf, "sys_vuln_write", vuln_write_body);
    (`Wrap, "sys_getpid", getpid_body);
    (`Wrap, "fops_noop", fops_noop_body);
    (`Wrap, "ramfs_read", ramfs_read_body);
    (`Wrap, "ramfs_write", ramfs_write_body);
    (`Wrap, "alloc_fd_file", alloc_fd_file_body);
    (`Wrap, "sys_read", sys_read_body config registry);
    (`Wrap, "sys_write", sys_write_body config registry);
    (`Wrap, "sys_open", sys_open_body config registry);
    (`Wrap, "sys_close", sys_close_body);
    (`Wrap, "sys_stat", sys_stat_body);
    (`Wrap, "sys_fstat", sys_fstat_body);
    (`Wrap, "sys_notifier_register", sys_notifier_register_body config registry);
    (`Wrap, "sys_notifier_call", sys_notifier_call_body config registry);
    (`Wrap, "notifier_noop", notifier_noop_body);
    (`Wrap, "notifier_count", notifier_count_body);
    (`Wrap, "sys_pipe_write", pipe_copy ~write:true);
    (`Wrap, "sys_pipe_read", pipe_copy ~write:false);
    (`Wrap, "sys_fork", sys_fork_body);
    (`Wrap, "sys_getuid", sys_getuid_body config registry);
    (`Wrap, "sys_socketpair", sys_socketpair_body config registry);
    (`Wrap, "sock_read_op", sock_read_body);
    (`Wrap, "sock_write_op", sock_write_body);
    (`Wrap, "console_write_op", console_write_body);
    (`Wrap, "console_read_op", console_read_body);
    (`Wrap, "sys_poll", sys_poll_body config registry);
    (`Wrap, "sys_timer_set", sys_timer_set_body config registry);
    (`Wrap, "run_timers", run_timers_body config registry);
    (`Wrap, "table_mac", table_mac_body);
    (`Wrap, "sys_read_secure", sys_read_secure_body);
    (`Wrap, "cpu_switch_to", cpu_switch_to_body config registry);
    (`Wrap, "run_work", run_work_body config registry);
    (`Wrap, "work_noop", work_noop_body);
    (`Wrap, "work_counter", work_counter_body);
  ]

let build config registry =
  let instrument (style, name, body) =
    match style with
    | `Wrap ->
        let f = C.Instrument.wrap config ~name body in
        (name, f.C.Instrument.items)
    | `Leaf ->
        let f = C.Instrument.wrap_leaf ~name body in
        (name, f.C.Instrument.items)
  in
  let functions = List.map instrument (kernel_bodies config registry) in
  let table_entry = function
    | 0 -> O.Lit 0L (* exit: handled by the dispatcher *)
    | 1 -> O.Sym "sys_getpid"
    | 2 -> O.Sym "sys_read"
    | 3 -> O.Sym "sys_write"
    | 4 -> O.Sym "sys_open"
    | 5 -> O.Sym "sys_close"
    | 6 -> O.Sym "sys_stat"
    | 7 -> O.Sym "sys_fstat"
    | 8 -> O.Sym "sys_notifier_register"
    | 9 -> O.Sym "sys_notifier_call"
    | 10 -> O.Sym "sys_pipe_write"
    | 11 -> O.Sym "sys_pipe_read"
    | 12 -> O.Sym "sys_fork"
    | 13 -> O.Sym "sys_vuln_read"
    | 14 -> O.Sym "sys_vuln_write"
    | 15 -> O.Sym "sys_getuid"
    | 16 -> O.Sym "sys_read_secure"
    | 17 -> O.Sym "sys_socketpair"
    | 18 -> O.Sym "sys_poll"
    | 19 -> O.Sym "sys_timer_set"
    | _ -> O.Lit 0L
  in
  let rodata =
    [
      { O.blob_name = "sys_call_table"; words = List.init syscall_count table_entry };
      {
        O.blob_name = "ramfs_fops";
        words = [ O.Sym "fops_noop"; O.Sym "fops_noop"; O.Sym "ramfs_read"; O.Sym "ramfs_write" ];
      };
      {
        O.blob_name = "console_fops";
        words =
          [
            O.Sym "fops_noop"; O.Sym "fops_noop"; O.Sym "console_read_op";
            O.Sym "console_write_op";
          ];
      };
      {
        O.blob_name = "socket_fops";
        words =
          [ O.Sym "fops_noop"; O.Sym "fops_noop"; O.Sym "sock_read_op"; O.Sym "sock_write_op" ];
      };
      {
        O.blob_name = "notifier_handlers";
        words =
          [ O.Sym "notifier_noop"; O.Sym "notifier_count"; O.Sym "work_noop"; O.Sym "work_counter" ];
      };
      { O.blob_name = "root_cred"; words = [ O.Lit 0L; O.Lit 0L ] };
      { O.blob_name = "user_cred"; words = [ O.Lit 1000L; O.Lit 1000L ] };
    ]
  in
  let data =
    [
      { O.blob_name = "file_slab_next"; words = [ O.Sym "file_slab" ] };
      { O.blob_name = "file_slab"; words = zeros (128 * (Kobject.File.size / 8)) };
      { O.blob_name = "task_slab_next"; words = [ O.Sym "task_slab" ] };
      { O.blob_name = "task_slab"; words = zeros (16 * (Kobject.Task.size / 8)) };
      { O.blob_name = "pipe_state"; words = zeros 3 };
      { O.blob_name = "pipe_buf"; words = zeros 512 };
      { O.blob_name = "ramfs_backing"; words = zeros 512 };
      { O.blob_name = "console_state"; words = [ O.Lit 0L ] };
      { O.blob_name = "console_ring"; words = zeros 1024 };
      { O.blob_name = "sock_buf_slab_next"; words = [ O.Sym "sock_buf_slab" ] };
      { O.blob_name = "sock_buf_slab"; words = zeros (16 * 512) };
      { O.blob_name = "timer_slab"; words = zeros (Kobject.Timer.slots * (Kobject.Timer.size / 8)) };
      { O.blob_name = "notifier_count_cell"; words = [ O.Lit 0L ] };
      { O.blob_name = "work_counter_cell"; words = [ O.Lit 0L ] };
      (* DECLARE_WORK(static_work, work_counter): statically initialized
         protected pointer, signed at boot via .pauth_static. *)
      { O.blob_name = "static_work"; words = [ O.Lit 5L; O.Sym "work_counter" ] };
    ]
  in
  let obj =
    List.fold_left
      (fun obj (name, items) -> O.add_function obj ~name items)
      (O.empty "vmlinux") functions
  in
  let obj = List.fold_left O.add_rodata obj rodata in
  let obj = List.fold_left O.add_data obj data in
  O.add_static_sign obj
    {
      O.sign_blob = "static_work";
      word_index = 1;
      type_name = "work_struct";
      member_name = "func";
    }

let exported_symbols =
  [
    "memcpy_bytes";
    "fd_to_file";
    "run_work";
    "ramfs_fops";
    "notifier_handlers";
    "sys_call_table";
    "work_counter_cell";
    "root_cred";
    "user_cred";
    "table_mac";
  ]

type lint_report = {
  diags : Paclint.Diag.t list;
  summary : Paclint.Summary.report;
  census : Paclint.Census.t;
}

(* The tail the image and module lints share: assemble [obj]'s text at
   [base] against its placed [blobs] and [extra_symbols], then the
   whole-image interprocedural pass (call graph, per-function summaries
   to fixpoint), the gadget census and the scheme's rule pack, under the
   policy [config] promises. Only text-resident symbols partition
   functions; blob, XOM and export symbols lie outside the code array
   and are ignored by Callgraph. [extra] adds findings that need the
   assembled layout. *)
let lint_object ~par ?scheme config (obj : O.t) ~base ~blobs ~extra_symbols ~extra =
  let blob_symbols = List.map (fun (b, addr) -> (b.O.blob_name, addr)) blobs in
  let prog = Asm.create () in
  List.iter (fun (name, items) -> Asm.add_function prog ~name items) obj.O.functions;
  let layout = Asm.assemble prog ~base ~extra_symbols:(blob_symbols @ extra_symbols) in
  let policy = C.Verifier.policy config in
  let summary =
    Paclint.Summary.analyze_image ~par ~symbols:layout.Asm.symbols ~policy
      layout.Asm.code
  in
  let census = Paclint.Census.run summary in
  let scheme =
    match scheme with Some s -> s | None -> C.Verifier.rules_scheme config
  in
  let rules = Paclint.Rules.run { Paclint.Rules.scheme; summary; census } in
  {
    diags = Paclint.Diag.normalize (summary.Paclint.Summary.diags @ rules @ extra layout);
    summary;
    census;
  }

let lint_report ?(par = Paclint.Lint.seq_par) ?scheme config =
  let registry = C.Pointer_integrity.create_registry () in
  Kobject.register_protected_members registry;
  let obj = build config registry in
  (* Mirror the boot-time placement: blobs sequential from the rodata
     and data bases, the audited bootloader routines linked like
     firmware calls from the XOM page. *)
  let blobs =
    O.place_blobs Layout.rodata_base obj.O.rodata @ O.place_blobs Layout.data_base obj.O.data
  in
  let xom_symbols =
    [
      ("kernel_key_setter", Layout.xom_base);
      ("user_key_restore", Int64.add Layout.xom_base 0x100L);
      ("uaccess_authda", Int64.add Layout.xom_base 0x200L);
    ]
  in
  (* Reserved-register convention over the raw bodies (the instrumented
     stream legitimately uses the scratch registers). Body diagnostics
     are re-based onto the function's image address, shifted by the
     prologue the body itself cannot see. *)
  let bodies layout =
    List.concat_map
      (fun (_, name, body) ->
        let rebase =
          match List.assoc_opt name layout.Asm.symbols with
          | Some addr -> fun d -> { d with Paclint.Diag.va = Int64.add addr d.Paclint.Diag.va }
          | None -> fun d -> d
        in
        List.map rebase (Paclint.Lint.check_body body))
      (kernel_bodies config registry)
  in
  lint_object ~par ?scheme config obj ~base:Layout.text_base ~blobs
    ~extra_symbols:xom_symbols ~extra:bodies

(* Lint a standalone module object against the kernel export surface:
   the module's text is assembled at the module area base, its own blobs
   right after, and every kernel export resolves to its conventional
   text-area slot. Export addresses lie outside the decoded module
   region, so calls into the kernel fall back to the lint's conservative
   clobber — exactly how the loader's gate treats them. No raw bodies
   exist for a serialized object, so the reserved-register body check
   does not apply here (the loader never ran it either). *)
let lint_module ?(par = Paclint.Lint.seq_par) ?scheme config (obj : O.t) =
  let base = Layout.module_area_base in
  let text_bytes = 4 * O.text_instruction_count obj in
  let data_area = Int64.add base (Int64.of_int (Layout.round_pages text_bytes + 4096)) in
  let export_symbols =
    List.mapi
      (fun i s -> (s, Int64.add Layout.text_base (Int64.of_int (i * 0x40))))
      exported_symbols
  in
  lint_object ~par ?scheme config obj ~base
    ~blobs:(O.place_blobs data_area (obj.O.rodata @ obj.O.data))
    ~extra_symbols:export_symbols
    ~extra:(fun _ -> [])
