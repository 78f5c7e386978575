module Task = struct
  let off_pid = 0
  let off_state = 8
  let off_kernel_sp = 16
  let off_kstack_base = 24
  let off_user_keys = 32
  let off_saved_pc = 112
  let off_saved_sp = 120
  let off_fd_table = 128
  let fd_table_entries = 16
  let off_notifiers = 256
  let notifier_slots = 8
  let off_gprs = 320
  let off_cred = 568
  let size = 576
end

module File = struct
  let off_pos = 0
  let off_buf = 8
  let off_buf_len = 16
  let off_f_cred = 32
  let off_f_ops = 40
  let off_private = 48
  let size = 64
end

module Fops = struct
  let off_open = 0
  let off_read = 16
  let off_write = 24
end

module Work = struct
  let off_data = 0
  let off_func = 8
end

module Timer = struct
  let off_expires = 0
  let off_func = 8
  let off_data = 16
  let size = 32
  let slots = 8
end

let register_protected_members registry =
  let reg type_name member_name offset role =
    ignore
      (Camouflage.Pointer_integrity.register registry
         { Camouflage.Pointer_integrity.type_name; member_name; offset; role })
  in
  reg "file" "f_ops" File.off_f_ops Camouflage.Keys.Data;
  reg "file" "f_cred" File.off_f_cred Camouflage.Keys.Data;
  reg "task" "kernel_sp" Task.off_kernel_sp Camouflage.Keys.Data;
  reg "task" "cred" Task.off_cred Camouflage.Keys.Data;
  reg "notifier" "handler" 0 Camouflage.Keys.Forward;
  reg "work_struct" "func" Work.off_func Camouflage.Keys.Forward;
  reg "timer" "func" Timer.off_func Camouflage.Keys.Forward
