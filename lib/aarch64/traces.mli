(** Superblock trace cache for the interpreter's top execution tier.

    One table, keyed exactly by (EL, entry PC) like the icache's (EL,
    VA page), holds one state per entry: its heat, its compiled block,
    or the mark that it cannot start one. Nothing evicts a block: it
    leaves the table only when {!flush} or the size bound kills it. A
    misaligned PC, or one whose bit 63 differs from bit 62, gets no
    state and always single-steps, so an entry PC's bit-63 twin neither
    finds its block nor touches its heat. The cache is parametric in the
    compiled representation (['code]): {!Cpu} chains its icache lines'
    ops into continuation-threaded closures and drives them.

    It owns no coherence machinery: blocks are built only from
    {!Icache} lines, so the icache sees every event that can make a
    block stale, and {!Cpu.create} registers each core's {!flush} with
    {!Icache.on_stale}. Any store to a frame holding decoded lines, any
    moved MMU generation and any MSR that flushes the icache therefore
    kills every block of every core sharing it.

    Like the icache, this is a host-speed structure only: nothing here
    is guest-visible, and execution with traces on or off must stay
    bit-identical (the three-tier differential fuzzer in
    [test/test_fuzz.ml] holds this line). *)

type 'code t

(** A compiled superblock: straight-line code starting at [bk_entry],
    ending at a branch or before an exception instruction or an MSR
    whose write flushes the caches (the compiler may walk through
    unconditional direct branches, so a block can span calls). PAC,
    AUT, MRS and the other MSRs run inside blocks. A block dies in place
    ([bk_live] turns false) as it leaves the table, so a dispatch loop
    mid-block can observe invalidation after every store — the
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
  mutable bk_live : bool;
  mutable bk_next : 'code block option;  (** chained successor, a hint *)
}

(** [create ()] — an empty cache. A block's chain captures the CPU that
    compiled it, so unlike the icache a trace cache is per-core. An
    entry PC is hot after 16 boundary executions. A new entry past
    16,384 states kills every block and starts the table over. *)
val create : unit -> 'code t

(** [flush t] kills every block, counting each as an invalidation, and
    drops it from the table; heat and blacklist marks survive, so a
    self-patching loop, flushed on every pass, still compiles. *)
val flush : 'code t -> unit

(** [find t ~el pc] — the live block entered at exactly [(el, pc)];
    [Not_found] if none is compiled. It returns the block itself, so a
    dispatch loop finds one without allocating. Callers must
    {!Icache.sync} the icache the blocks were built from first at any
    point where the tables may have changed. *)
val find : 'code t -> el:El.t -> int64 -> 'code block

(** [bump t ~el pc] — count one boundary execution of [(el, pc)];
    [true] when its heat reaches the hot threshold: the caller compiles
    now and must {!install} or {!blacklist} the entry. *)
val bump : 'code t -> el:El.t -> int64 -> bool

(** [blacklist t ~el pc] — mark a hot entry uncompilable (its first
    instruction is a cut point or cannot be fetched); {!bump} returns
    [false] for it until the table starts over. *)
val blacklist : 'code t -> el:El.t -> int64 -> unit

(** [install t ~el ~entry ~len code] — publish the compiled block of a
    hot entry: [len] is the number of guest instructions it retires. *)
val install : 'code t -> el:El.t -> entry:int64 -> len:int -> 'code -> 'code block

(** [link t b succ] — record [succ] as [b]'s chained successor, so the
    dispatch loop skips the table lookup when the same block-to-block edge
    repeats. Chains are hints: the driver must still check [bk_live],
    the EL and the entry PC before following one. *)
val link : 'code t -> 'code block -> 'code block -> unit

(** Host-side effectiveness counters (never guest-visible). *)
type stats = {
  mutable compiled : int;  (** blocks compiled and installed *)
  mutable executed : int;  (** block dispatches *)
  mutable block_insns : int;  (** guest instructions retired inside blocks *)
  mutable invalidations : int;  (** blocks killed by a flush or the bound *)
  mutable flushes : int;
  mutable chain_links : int;  (** block-to-block edges recorded *)
  mutable chain_follows : int;  (** dispatches that skipped the table lookup *)
  mutable blacklisted : int;  (** entries found uncompilable *)
}

(** [counters t] — the live record behind {!stats}, so the dispatch
    loop accounts block executions and chain follows with a direct
    increment instead of a call per dispatch. Callers other than the
    driver must treat it as read-only. *)
val counters : 'code t -> stats

(** [stats t] — a copy of the counters. *)
val stats : 'code t -> stats
