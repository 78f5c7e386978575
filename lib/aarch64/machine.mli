(** A multi-core machine: N {!Cpu} cores over one shared physical
    memory, one shared two-stage MMU and one PAC cipher, plus a GIC-lite
    software-generated-interrupt (IPI) doorbell.

    Each core keeps a private register file, EL state, banked stack
    pointers, PAuth {e key registers} and cycle counter — the paper's
    key-management design (Section 4.1) relies on the key registers
    being per-CPU: every core must execute the XOM setter itself on
    kernel entry. Sharing [Mem.t]/[Mmu.t] means stage-2 protections
    (XOM, W^X) installed once bind every core, exactly as a single
    hypervisor-owned stage 2 does on real hardware.

    The interpreter remains single-threaded and deterministic: callers
    interleave [Cpu.run] slices across cores; parallel simulated time is
    the busiest core's cycle counter ({!max_cycles}). *)

(** Inter-processor interrupt ids (the kernel's classic trio). *)
type ipi = Reschedule | Stop | Call_function

type t

(** [create ~cpus ()] — [cpus] cores sharing fresh memory/MMU/cipher.
    Cores are numbered 0..cpus-1; core 0 is the boot core. With
    [~telemetry:true] a {!Telemetry.Hub} is created and sink [i]
    attached to core [i]; IPI sends/acks then also emit trace
    events. All cores fetch through one shared decoded-instruction
    cache ({!Icache}).

    [tier] selects the execution tier for every core (default
    [Cpu.Icache]). [Cpu.Interp] creates the shared cache disabled;
    [Cpu.Traces] keeps it enabled and gives each core a private
    superblock trace cache, which the shared cache flushes with its
    own (see {!Icache.on_stale}). Execution is bit-identical under
    every tier, only host speed changes. *)
val create :
  ?cost:Cost.profile ->
  ?has_pauth:bool ->
  ?cipher:Qarma.Block.t ->
  ?trace_depth:int ->
  ?telemetry:bool ->
  ?tier:Cpu.tier ->
  cpus:int ->
  unit ->
  t

val cpus : t -> int
val core : t -> int -> Cpu.t
val cores : t -> Cpu.t list

(** The machine-wide telemetry hub, when booted with [~telemetry:true]. *)
val telemetry : t -> Telemetry.Hub.t option
val boot_core : t -> Cpu.t

val mem : t -> Mem.t
val mmu : t -> Mmu.t

(** The machine-wide decoded-instruction cache shared by all cores. *)
val icache : t -> Cpu.op Icache.t

(** [send_ipi t ~src ~dst ipi] — ring core [dst]'s doorbell: sets the
    pending bit for [ipi] and records [src] in the requester set. *)
val send_ipi : t -> src:int -> dst:int -> ipi -> unit

(** [pending t ~cpu] — the interrupt ids currently pending on [cpu],
    without acknowledging them. *)
val pending : t -> cpu:int -> ipi list

(** [ack t ~cpu ipi] — acknowledge [ipi] on [cpu]: clears the pending
    bit and returns the requesting cores, lowest core number first. *)
val ack : t -> cpu:int -> ipi -> int list

(** Total IPIs sent since creation. *)
val ipis_sent : t -> int

(** [max_cycles t] — the busiest core's clock: the simulated wall time
    of a phase in which all cores ran in parallel. *)
val max_cycles : t -> int64

(** Whole-machine snapshots.

    [snapshot t] captures memory (copy-on-write; see {!Mem.snapshot}),
    both translation stages, every core's full mutable state (registers,
    PAuth keys, counters, trace ring, step hooks), the GIC doorbell, and
    — when the machine was created with [~telemetry:true] — the
    telemetry hub, so a restored-and-observed run is bit-identical to a
    booted-and-observed one. The decoded-instruction cache and the
    trace caches are not captured: they are host-speed state, invisible
    to the guest, and [restore] keeps them. [Mem.restore] notifies every
    frame it reverts, which drops the decoded lines shadowing it and,
    through the icache's stale hooks, every compiled block; a
    translation change since the snapshot makes [Mmu.restore] refill and
    advance the generation, which flushes the icache and with it the
    trace caches. One snapshot
    supports any number of successive restores. *)
type snapshot

val snapshot : t -> snapshot
val restore : t -> snapshot -> unit
