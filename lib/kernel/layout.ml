(* Kernel VAs drop their sign-extension prefix; user VAs are offset into
   the upper half of the PA space so the two ranges never share frames. *)
let pa_of_va va =
  if Camo_util.Val64.bit 55 va then Int64.logand va 0x0000ffffffffffffL
  else Int64.logor va 0x0000800000000000L

let xom_base = 0xffff0000000f0000L
let text_base = 0xffff000000100000L
let rodata_base = 0xffff000000400000L
let data_base = 0xffff000000500000L
let heap_base = 0xffff000000600000L
let heap_bytes = 0x100000
let stack_area_base = 0xffff000001000000L
let module_area_base = 0xffff000002000000L

let task_stack_bytes = 16 * 1024

(* Stack slots mapped at boot: enough for init, one idle task per core
   of the largest supported machine, and a generous task population. *)
let max_task_slots = 64

let task_stack_top ~slot =
  Int64.add stack_area_base (Int64.of_int ((slot + 1) * task_stack_bytes))

(* Per-CPU data areas (one page per core, Linux's percpu segment in
   miniature), between the stack area and the module area. *)
let percpu_base = 0xffff000001c00000L
let percpu_stride = 4096

let percpu_area ~cpu = Int64.add percpu_base (Int64.of_int (cpu * percpu_stride))

let user_text_base = 0x0000000000400000L
let user_stack_top = 0x00007ffffff00000L
let user_data_base = 0x0000000000800000L

let round_pages bytes = (bytes + 4095) / 4096 * 4096
