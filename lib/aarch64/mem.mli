(** Sparse physical memory.

    Byte-addressable little-endian storage allocated lazily in 4 KiB
    frames. Addresses here are {e physical}; translation and permission
    checking live in {!Mmu}. *)

type t

val create : unit -> t

val read8 : t -> int64 -> int
val write8 : t -> int64 -> int -> unit
val read32 : t -> int64 -> int32
val write32 : t -> int64 -> int32 -> unit
val read64 : t -> int64 -> int64
val write64 : t -> int64 -> int64 -> unit

(** [blit_string t pa s] writes the bytes of [s] starting at [pa]. *)
val blit_string : t -> int64 -> string -> unit

(** [read_string t pa len]. *)
val read_string : t -> int64 -> int -> string

(** [add_write_hook t h] registers a store observer: [h] is called with
    the frame index ([pa lsr 12], as an [int]) of every write, after the
    bytes land. This is the invalidation channel for the
    decoded-instruction cache — it sees {e every} mutation path (guest
    stores, host-side {!Kmem} writes, fault-injector flips) because they
    all terminate here. Hooks must not write memory. *)
val add_write_hook : t -> (int -> unit) -> unit

(** [frame_bytes t idx] — the backing [Bytes.t] of frame [idx]
    (allocating it if untouched). Frames are never replaced, so the
    pointer remains valid for the life of [t]; the micro-TLB memoizes
    it to skip the frame table on cached accesses. A caller that
    mutates the bytes directly must follow with [notify_store t idx],
    which runs the registered write hooks exactly as a {!write64}
    would. *)
val frame_bytes : t -> int -> Bytes.t

val notify_store : t -> int -> unit

(** Number of frames currently allocated (for memory-use reporting). *)
val frames_allocated : t -> int

(** [fold_frames t f acc] folds over every allocated frame in ascending
    frame-index order (deterministic — used for state fingerprints). *)
val fold_frames : t -> ('a -> int -> Bytes.t -> 'a) -> 'a -> 'a

(** Copy-on-write memory snapshots.

    [snapshot t] captures the current contents of every allocated frame
    and begins tracking dirtied frames via a write hook. [restore t s]
    blits the captured bytes back into exactly the frames written since
    the snapshot (zero-filling frames that did not exist then), firing
    the write hooks for each restored frame so icache and trace-cache
    invalidation sees the restore like any other store ({!Machine.restore}
    relies on this instead of flushing those caches). Restores are
    therefore proportional to the dirty set, and one snapshot supports
    any number of successive restores. Frames are mutated in place —
    the frame-pointer contract of {!frame_bytes} survives a restore. *)
type snapshot

val snapshot : t -> snapshot
val restore : t -> snapshot -> unit

(** Frames captured at snapshot time. *)
val snapshot_frames : snapshot -> int

(** Frames currently marked dirty (diagnostic; reset by [restore]). *)
val snapshot_dirty : snapshot -> int
