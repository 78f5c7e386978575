(** Decoded-instruction cache + micro-TLB for the interpreter hot path.

    A host-speed optimization, not a modeled structure: caching changes
    neither guest-visible state, nor cycle charges, nor telemetry
    counters, nor fault kinds — cached and uncached execution are
    bit-identical (the differential harness in [test/test_icache.ml]
    enforces this).

    Entries are keyed by (EL, VA page) because decoded instructions
    embed absolute PC-relative targets, and each entry memoizes the
    combined two-stage permission triple so it also serves data-side
    translations. Coherence: a {!Mem} write hook drops entries shadowed
    by any store (guest, host or fault-injector), the {!Mmu} generation
    counter flushes on any translation-table change, and {!flush} is
    issued explicitly on MMU-control/CONTEXTIDR system-register writes.
    PAuth key-register writes do not flush — keys affect execution, not
    decode or translation, and the XOM setter rewrites them on every
    kernel entry. *)

type t

type fetch_error =
  | Fetch_fault of Mmu.fault  (** translation or permission fault *)
  | Fetch_undefined of int32  (** the word at PC does not decode *)

(** [create ?enabled ~mem ~mmu ()] builds a cache over one memory /
    translation-table pair and registers its store-invalidation hook on
    [mem]. One instance may be shared by every core of a {!Machine}:
    entries depend only on (EL, VA page) and the shared tables, never
    on per-core state. Disabled caches pass every request through. *)
val create : ?enabled:bool -> mem:Mem.t -> mmu:Mmu.t -> unit -> t

val enabled : t -> bool

(** [flush t] drops every entry (the TTBR/SCTLR/ASID-write path). *)
val flush : t -> unit

(** [fetch t ~el pc] — the decoded instruction at [pc], from the cache
    when possible. Misses fall through to the real two-stage walk and
    [Encode.decode], so faults keep their exact kind; decode failures
    and misaligned PCs are never cached. EL2 always bypasses. *)
val fetch : t -> el:El.t -> int64 -> (Insn.t, fetch_error) result

(** Raised by {!fetch_exn} instead of returning [Error]. *)
exception Fetch_stop of fetch_error

(** [fetch_exn] — same as {!fetch} but raises {!Fetch_stop} on failure;
    the CPU's run loop uses it to keep the hit path free of
    [result] allocations. *)
val fetch_exn : t -> el:El.t -> int64 -> Insn.t

(** Raised by {!translate_exn} on a translation or permission fault. *)
exception Translate_fault of Mmu.fault

(** [translate_exn t ~el ~access va] — micro-TLB front end for
    [Mmu.translate]: hits resolve from the memoized permission triple,
    misses and denials take the real walk. Bit-identical results,
    including fault kinds; a fault raises {!Translate_fault} instead of
    allocating a [result] per memory access. *)
val translate_exn : t -> el:El.t -> access:Mmu.access -> int64 -> int64

(** [read64_exn] / [write64_exn] — whole-access fast paths: on a
    micro-TLB hit the access resolves directly against the memoized
    frame bytes (the host-address trick of a real TLB); page-straddling
    offsets and misses fall back to translate-then-{!Mem}, and stores
    always run the registered write hooks. Raise {!Translate_fault}
    exactly like {!translate_exn}. *)
val read64_exn : t -> el:El.t -> int64 -> int64

val write64_exn : t -> el:El.t -> int64 -> int64 -> unit

(** [data_page t ~el ~access va] — the frame bytes and frame index
    backing the page of [va], for the trace tier's per-op page caches.
    Frame byte pointers are stable ({!Mem.frame_bytes}); the result
    stays valid while the MMU generation does not move. Writers that
    mutate the bytes directly must follow with {!Mem.notify_store}.
    [None] when translation is disabled, at EL2, or denied. *)
val data_page :
  t -> el:El.t -> access:Mmu.access -> int64 -> (Bytes.t * int) option

(** Host-side effectiveness counters (not guest-visible). *)
type stats = {
  fetch_hits : int;
  fetch_misses : int;
  fills : int;  (** lines decoded into an installed page entry *)
  tlb_hits : int;
  tlb_misses : int;
  invalidations : int;  (** entries dropped by the store hook *)
  flushes : int;
}

val stats : t -> stats
