(** Decoded-instruction cache + micro-TLB for the single-step path.

    A host-speed optimization, not a modeled structure: caching changes
    neither guest-visible state, nor cycle charges, nor telemetry
    counters, nor fault kinds — cached and uncached execution are
    bit-identical (the differential harness in [test/test_icache.ml]
    enforces this).

    The cache is parametric in the compiled form of an instruction
    (['op]): each line holds the decoded instruction and the op the
    compiler given to {!create} built for it at fill ({!Cpu.op_of} on
    every machine). Entries are keyed by (EL, VA page) because decoded
    instructions and their ops embed absolute PC-relative targets and
    the EL's SP bank, and each entry memoizes the combined two-stage
    permission triple so it also serves data-side translations. Coherence: a {!Mem} write hook drops entries shadowed
    by any store (guest, host or fault-injector), the {!Mmu} generation
    counter flushes on any translation-table change, and {!flush} is
    issued explicitly on MMU-control/CONTEXTIDR system-register writes.
    PAuth key-register writes do not flush — keys affect execution, not
    decode or translation, and the XOM setter rewrites them on every
    kernel entry. *)

type 'op t

(** One decoded line: the instruction and its op, compiled for the
    entry's EL with [next] = the line's address + 4. *)
type 'op line = { insn : Insn.t; op : 'op }

type fetch_error =
  | Fetch_fault of Mmu.fault  (** translation or permission fault *)
  | Fetch_undefined of int32  (** the word at PC does not decode *)

(** [create ?enabled ~compile ~mem ~mmu ()] builds a cache over one
    memory / translation-table pair and registers its store-invalidation
    hook on [mem]. [compile insn ~el ~next] builds a line's op at fill.
    One instance may be shared by every core of a {!Machine}: entries
    and their ops depend only on (EL, VA page) and the shared tables,
    never on per-core state. Disabled caches pass every request through
    and compile a fresh line on every fetch. *)
val create :
  ?enabled:bool ->
  compile:(Insn.t -> el:El.t -> next:int64 -> 'op) ->
  mem:Mem.t ->
  mmu:Mmu.t ->
  unit ->
  'op t

val enabled : _ t -> bool

(** [flush t] drops every entry (the TTBR/SCTLR/ASID-write path). *)
val flush : _ t -> unit

(** [fetch t ~el pc] — the line at [pc], from the cache when possible.
    Misses fall through to the real two-stage walk and [Encode.decode],
    so faults keep their exact kind; decode failures and misaligned PCs
    are never cached. EL2 always bypasses, with a freshly compiled
    line. *)
val fetch : 'op t -> el:El.t -> int64 -> ('op line, fetch_error) result

(** Raised by {!fetch_exn} instead of returning [Error]. *)
exception Fetch_stop of fetch_error

(** [fetch_exn] — same as {!fetch} but raises {!Fetch_stop} on failure;
    the CPU's run loop uses it to keep the hit path free of
    [result] allocations. *)
val fetch_exn : 'op t -> el:El.t -> int64 -> 'op line

(** Raised by {!translate_exn} on a translation or permission fault. *)
exception Translate_fault of Mmu.fault

(** [translate_exn t ~el ~access va] — micro-TLB front end for
    [Mmu.translate]: hits resolve from the memoized permission triple,
    misses and denials take the real walk. Bit-identical results,
    including fault kinds; a fault raises {!Translate_fault} instead of
    allocating a [result] per memory access. *)
val translate_exn : _ t -> el:El.t -> access:Mmu.access -> int64 -> int64

(** [data_page t ~el ~access va] — the frame bytes and frame index
    backing the page of [va], for the ops' page caches. Frame byte
    pointers are stable ({!Mem.frame_bytes}); the result stays valid
    while the MMU generation does not move. Writers that mutate the
    bytes directly must follow with {!Mem.notify_store}. [None] when
    the cache is disabled, at EL2, or denied. *)
val data_page :
  _ t -> el:El.t -> access:Mmu.access -> int64 -> (Bytes.t * int) option

(** Host-side effectiveness counters (not guest-visible). *)
type stats = {
  fetch_hits : int;
  fetch_misses : int;
  fills : int;  (** lines decoded into an installed page entry *)
  invalidations : int;  (** entries dropped by the store hook *)
  flushes : int;
}

val stats : _ t -> stats
