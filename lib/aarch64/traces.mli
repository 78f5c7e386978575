(** Superblock trace cache for the interpreter's top execution tier.

    Detects hot straight-line regions by per-entry execution counters
    (keyed by (EL, entry PC), mirroring the icache's (EL, VA page)
    keying) and stores the compiled form the CPU layer produces for
    them. The cache is parametric in the compiled representation
    (['code]) so that this module carries no dependency on the
    interpreter: {!Cpu} chains its icache lines' ops into continuation-
    threaded closures and drives them; this module owns hotness, block lookup,
    block-to-block chaining metadata and — the critical part — the
    invalidation machinery, reused wholesale from the decoded
    instruction cache:

    - a {!Mem} write hook drops every block whose compiled code spans
      the written frame, screened by the same golden-ratio Bloom filter
      the icache uses, so self-modifying code and module unload/reload
      kill traces exactly as they kill decoded lines;
    - the {!Mmu} generation counter: any map/unmap/stage-2 change
      flushes everything at the next {!sync};
    - an explicit {!flush} the CPU issues on MMU-control/CONTEXTIDR
      system-register writes (the MSR flush matrix).

    Like the icache, this is a host-speed structure only: nothing here
    is guest-visible, and execution with traces on or off must stay
    bit-identical (the three-tier differential fuzzer in
    [test/test_fuzz.ml] holds this line). *)

type 'code t

(** A compiled superblock: straight-line code starting at [bk_entry],
    ending at a branch or before an exception instruction or an MSR
    whose write flushes this cache (the compiler may walk through
    unconditional direct branches, so a block can span calls). PAC,
    AUT, MRS and the other MSRs run inside blocks. Blocks die in place
    ([bk_live] turns false) rather than being removed, so a driver
    mid-block can observe invalidation after every instruction — the
    self-patching-store-inside-an-active-superblock case.

    The record is exposed so the dispatch loop reads [bk_live],
    [bk_next] and the entry guards as direct field loads (they sit on
    the per-instruction hot path); treat every field as read-only
    outside this module. *)
type 'code block = {
  bk_el : El.t;
  bk_entry : int64;
  bk_len : int;  (** guest instructions retired by a full run *)
  bk_code : 'code;
  bk_slot : int;
  bk_frames : int array;  (** physical frames the code was fetched from *)
  mutable bk_live : bool;
  mutable bk_next : 'code block option;  (** chained successor, a hint *)
}

(** [create ~mem ~mmu ()] registers the store-invalidation hook on
    [mem]. A block's chain captures the CPU that compiled it, so unlike
    the icache a trace cache is per-core; cross-core stores
    still invalidate because all cores share one {!Mem}. An entry PC
    is hot after 16 boundary executions. *)
val create : mem:Mem.t -> mmu:Mmu.t -> unit -> 'code t

(** [flush t] kills every block, resets the hotness counters and the
    frame registrations (the TTBR/SCTLR/ASID-write path). *)
val flush : 'code t -> unit

(** [sync t] flushes iff the MMU generation moved since the last call:
    map/unmap/stage-2 permission flips and snapshot restores that
    refill the tables all advance the generation, so stale traces
    self-invalidate at the next block boundary. *)
val sync : 'code t -> unit

(** [lookup t ~el pc] — the live block entered at exactly [(el, pc)],
    if one is compiled. Callers must {!sync} first at any point where
    the tables may have changed. *)
val lookup : 'code t -> el:El.t -> int64 -> 'code block option

(** [bump t ~el pc] — count one boundary execution of [(el, pc)];
    [true] when the counter crosses the hot threshold and the entry is
    not blacklisted, i.e. the caller should compile now. *)
val bump : 'code t -> el:El.t -> int64 -> bool

(** [blacklist t ~el pc] — mark an entry uncompilable (its first
    instruction is a cut point); {!bump} returns [false] forever after,
    until a {!flush} forgives it. *)
val blacklist : 'code t -> el:El.t -> int64 -> unit

(** [install t ~el ~entry ~len ~frames code] — publish a compiled
    block: [len] is the number of guest instructions it retires,
    [frames] the physical frame indices its code was fetched from (the
    store-invalidation key set). Evicts (kills) any block already in
    the slot. *)
val install :
  'code t -> el:El.t -> entry:int64 -> len:int -> frames:int list -> 'code ->
  'code block

(** [link t b succ] — record [succ] as [b]'s chained successor, so the
    driver skips the slot lookup when the same block-to-block edge
    repeats. Chains are hints: the driver must still check [bk_live],
    the EL and the entry PC before following one. *)
val link : 'code t -> 'code block -> 'code block -> unit

(** The live counters behind {!stats}, exposed as mutable fields so the
    dispatch loop accounts block executions and chain follows with a
    direct increment instead of a call per dispatch. Callers other than
    the driver must treat them as read-only. *)
type counters = {
  mutable c_compiled : int;
  mutable c_executed : int;
  mutable c_block_insns : int;
  mutable c_invalidations : int;
  mutable c_flushes : int;
  mutable c_chain_links : int;
  mutable c_chain_follows : int;
  mutable c_blacklisted : int;
}

val counters : 'code t -> counters

(** Host-side effectiveness counters (never guest-visible). *)
type stats = {
  compiled : int;  (** blocks compiled and installed *)
  executed : int;  (** block dispatches *)
  block_insns : int;  (** guest instructions retired inside blocks *)
  invalidations : int;  (** blocks killed by the store hook or eviction *)
  flushes : int;
  chain_links : int;  (** block-to-block edges recorded *)
  chain_follows : int;  (** dispatches that skipped the slot lookup *)
  blacklisted : int;  (** entries found uncompilable *)
}

val stats : 'code t -> stats
