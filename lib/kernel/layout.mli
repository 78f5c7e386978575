(** Kernel virtual-memory map.

    Mirrors the shape of the Linux arm64 map the paper assumes: all
    kernel addresses have bit 55 set (TTBR1), task stacks are 16 KiB and
    4 KiB-aligned (the stack-shallowness that motivates the hardened
    backward-edge modifier), and physical frames are the virtual page
    with the kernel prefix cleared, so host-side accessors can reach any
    kernel VA without a page-table walk. *)

(** Physical address backing a kernel or user VA (identity map with the
    sign-extension prefix cleared). *)
val pa_of_va : int64 -> int64

val xom_base : int64  (** the bootloader's key-setter page *)

val text_base : int64

val rodata_base : int64

(** Kernel static data. *)
val data_base : int64

(** Object slab region, bump-allocated. *)
val heap_base : int64

val heap_bytes : int

(** Per-task kernel stacks. *)
val stack_area_base : int64

(** Loadable module text/rodata/data. *)
val module_area_base : int64

(** 16 KiB, as in the paper. *)
val task_stack_bytes : int

(** Stack slots mapped at boot (bounds tasks + per-CPU idle tasks). *)
val max_task_slots : int

val percpu_stride : int

(** [percpu_area ~cpu] — base of core [cpu]'s per-CPU page. *)
val percpu_area : cpu:int -> int64

(** [task_stack_top ~slot] — top of the kernel stack of task slot [slot]
    (stacks grow down). *)
val task_stack_top : slot:int -> int64

val user_text_base : int64
val user_stack_top : int64
val user_data_base : int64

(** [round_pages bytes] — byte size rounded up to whole pages. *)
val round_pages : int -> int
