open Aarch64

(* Field offsets inside a core's per-CPU page. *)
let off_cpu_id = 0
let off_current = 8
let off_idle = 16
let off_rq_len = 24
let off_key_installs = 32
let off_ipi_count = 40
let off_resched_count = 48

type t = { base : int64 }

let area_bytes = Layout.percpu_stride

let field t off = Int64.add t.base (Int64.of_int off)

let init cpu ~cid =
  let base = Layout.percpu_area ~cpu:cid in
  Kmem.map_kernel_region cpu ~base ~bytes:area_bytes Mmu.rw;
  let t = { base } in
  Kmem.write64 cpu (field t off_cpu_id) (Int64.of_int cid);
  (* TPIDR_EL1 is how the real arm64 kernel finds its per-CPU segment;
     mirror that so machine code could reach it the same way. *)
  Cpu.set_sysreg cpu Sysreg.TPIDR_EL1 base;
  t

let read cpu t off = Kmem.read64 cpu (field t off)
let write cpu t off v = Kmem.write64 cpu (field t off) v

let set_current cpu t task_va = write cpu t off_current task_va
let set_idle cpu t task_va = write cpu t off_idle task_va
let set_rq_len cpu t n = write cpu t off_rq_len (Int64.of_int n)

let bump cpu t off = write cpu t off (Int64.add (read cpu t off) 1L)

let count_key_install cpu t = bump cpu t off_key_installs
let key_installs cpu t = Int64.to_int (read cpu t off_key_installs)
let count_ipi cpu t = bump cpu t off_ipi_count
let count_resched cpu t = bump cpu t off_resched_count
