(** Decoded-instruction cache for the single-step path, and the one
    owner of code-cache coherence.

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
    permission triple and the frame's bytes for the ops' page caches
    ({!data_page}). The entries live in one table keyed exactly by (EL,
    VA page), and nothing evicts them: an entry leaves only through a
    store to its frame (if it holds decoded lines) or a flush, and both
    run the {!on_stale} hooks.

    Coherence: a {!Mem} write hook drops entries shadowed by any store
    (guest, host or fault-injector), the {!Mmu} generation counter
    flushes on any translation-table change ({!sync}), and {!flush} is
    issued explicitly on MMU-control/CONTEXTIDR system-register writes.
    PAuth key-register writes do not flush — keys affect execution, not
    decode or translation, and the XOM setter rewrites them on every
    kernel entry. Caches built from this one's lines, the trace caches,
    keep no coherence machinery of their own: they register with
    {!on_stale}. *)

type 'op t

(** The table both code caches keep their entries in: exact int keys,
    spread by a golden-ratio multiply. *)
module Tbl : Hashtbl.S with type key = int

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

(** [flush t] drops every entry (the TTBR/SCTLR/ASID-write path) and
    runs the {!on_stale} hooks. *)
val flush : _ t -> unit

(** [sync t] flushes iff the MMU generation moved since the cache last
    looked: map/unmap/stage-2 permission flips and snapshot restores
    that refill the tables all advance it. Every lookup syncs first;
    a cache built from this one's lines calls it before trusting its
    own entries. *)
val sync : _ t -> unit

(** [on_stale t h] adds [h] to the hooks that run on every {!flush},
    explicit or from a moved MMU generation, and on every store to a
    frame whose decoded lines are cached. Those are the only ways a
    line leaves the cache, so anything built from lines hears of every
    event that could make it stale. Hooks must not write memory. *)
val on_stale : _ t -> (unit -> unit) -> unit

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

(** [translate_exn t ~el ~access va] — [Mmu.translate] raising
    {!Translate_fault} instead of returning [Error], the exact path of
    an op whose page cache cannot serve the access: a straddle, a
    denied or unmapped page, or a disabled cache. Hits and refills go
    through {!data_page}. *)
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
  mutable fetch_hits : int;
  mutable fetch_misses : int;
  mutable fills : int;  (** lines decoded into an installed page entry *)
  mutable invalidations : int;
      (** entries dropped by the store hook, the only way an entry
          leaves the cache between flushes *)
  mutable flushes : int;
}

(** [stats t] — a copy of the counters. *)
val stats : _ t -> stats
