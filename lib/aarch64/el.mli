(** Exception levels of the model machine.

    EL0 runs user processes, EL1 the kernel, EL2 the hypervisor that
    enforces stage-2 translation (and thereby XOM). *)

type t = El0 | El1 | El2

val name : t -> string
