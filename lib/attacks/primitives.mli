(** Attacker capabilities under the paper's threat model (Section 3.1):
    full control of an unprivileged process and a memory-corruption bug
    in the syscall interface giving arbitrary kernel-memory read and
    write. Write-protected memory (text, rodata, XOM) remains out of
    reach — those accesses fault on the machine. *)

val kread : Kernel.System.t -> int64 -> (int64, string) result

val kwrite : Kernel.System.t -> int64 -> int64 -> (unit, string) result

(** [spray_words sys ~words] — same, for 64-bit words. *)
val spray_words : Kernel.System.t -> words:int64 list -> (int64, string) result

(** [signed_pointer_sites sys] — the kernel addresses of every
    PAC-protected pointer currently live for the task population
    (each task's signed [kernel_sp] and [cred] members, and the signed
    [f_ops] of its console file), with a human-readable label. These
    are the natural targets both for pointer-replacement attacks and
    for fault-injection campaigns flipping bits in a PAC field. *)
val signed_pointer_sites : Kernel.System.t -> (string * int64) list
