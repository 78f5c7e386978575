(** Per-CPU data areas (Linux's percpu segment in miniature).

    Each core owns one page at {!Layout.percpu_area} holding its id,
    current and idle task pointers, run-queue length and counters (key
    installs, IPIs received, reschedules). The page base is published in
    the core's TPIDR_EL1, the register the real arm64 kernel uses to
    locate its per-CPU segment.

    Accessors take any [Cpu.t] of the machine (cores share memory); the
    conventional argument is the owning core. *)

open Aarch64

type t

(** [init cpu ~cid] — map core [cid]'s page, stamp the id, point the
    core's TPIDR_EL1 at it. Call once per core at bring-up, on that
    core. *)
val init : Cpu.t -> cid:int -> t

val set_current : Cpu.t -> t -> int64 -> unit
val set_idle : Cpu.t -> t -> int64 -> unit
val set_rq_len : Cpu.t -> t -> int -> unit

val count_key_install : Cpu.t -> t -> unit
val key_installs : Cpu.t -> t -> int
val count_ipi : Cpu.t -> t -> unit
val count_resched : Cpu.t -> t -> unit
