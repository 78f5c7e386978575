(** A bare-metal test machine: kernel-space code/stack/data mappings and
    random PAuth keys, with no operating system on top.

    Used by microbenchmarks and experiments that exercise the
    instrumentation directly — notably those involving the chained
    backward-edge scheme, which reserves a live chain register and
    cannot run under the prefabricated-frame kernel. *)

val stack_top : int64
val data_base : int64

(** [machine ?seed ()] — a CPU at EL1 with code (rx), stack (rw) and
    data (rw) regions mapped, SP at {!stack_top}, all four enable bits
    set and random keys installed. [tier] is forwarded to
    {!Cpu.create}. *)
val machine : ?seed:int64 -> ?cost:Cost.profile -> ?tier:Cpu.tier -> unit -> Cpu.t

(** [smp ?tier ()] — the same bring-up on a one-core {!Machine}, for
    harnesses that need whole-machine snapshots or
    [Snapshot.Fingerprint.of_machine] — the three-tier differential
    fuzzer's entry point. *)
val smp : ?seed:int64 -> ?tier:Cpu.tier -> unit -> Machine.t

(** [load cpu prog] — assemble at the code base and write into memory. *)
val load : Cpu.t -> Asm.program -> Asm.layout

(** [read64]/[write64] — host access through the identity map. *)
val read64 : Cpu.t -> int64 -> int64

val write64 : Cpu.t -> int64 -> int64 -> unit

(** [call cpu layout name] — call a symbol with LR at the host sentinel. *)
val call : ?max_insns:int -> Cpu.t -> Asm.layout -> string -> Cpu.stop
