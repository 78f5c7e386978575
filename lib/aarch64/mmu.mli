(** Two-stage memory translation (VMSAv8 with virtualization).

    Stage 1 is controlled by the kernel (EL1) and maps virtual pages to
    physical frames with separate EL0/EL1 permissions. Stage 2 is
    controlled exclusively by the hypervisor (EL2) and filters every
    EL0/EL1 access by physical frame. As Appendix A.2 of the paper
    explains, any stage-1 mapping is implicitly {e readable} at EL1, so
    execute-only memory for the kernel is only achievable by denying the
    read permission at stage 2 — which is exactly how the key-setter
    page is protected here. *)

type perm = { r : bool; w : bool; x : bool }

val no_access : perm
val rwx : perm
val rw : perm
val ro : perm
val rx : perm
val xo : perm  (** execute-only: the XOM permission *)

type access = Read | Write | Exec

type fault_kind =
  | Translation  (** no stage-1 mapping for the page *)
  | Permission  (** stage-1 denies the access for this EL *)
  | Stage2_permission  (** hypervisor denies the access *)

type fault = { kind : fault_kind; va : int64; access : access }

type t

val create : unit -> t

(** [map t ~va_page ~pa_page ~el0 ~el1] installs or replaces a stage-1
    mapping (kernel-side operation). *)
val map : t -> va_page:int64 -> pa_page:int64 -> el0:perm -> el1:perm -> unit

(** [unmap t ~va_page]. *)
val unmap : t -> va_page:int64 -> unit

(** [stage1_lookup t va_page] — the current stage-1 entry, if any. *)
val stage1_lookup : t -> int64 -> (int64 * perm * perm) option

(** [stage2_protect t ~pa_page perm] restricts EL0/EL1 access to a
    physical frame (hypervisor-side operation). Frames without an entry
    are unrestricted. *)
val stage2_protect : t -> pa_page:int64 -> perm -> unit

val stage2_lookup : t -> int64 -> perm option

(** [allows perm access] — does [perm] grant [access]? *)
val allows : perm -> access -> bool

(** [generation t] — a counter bumped by every mutation of either
    translation stage ({!map}, {!unmap}, {!stage2_protect}). Caches
    built over translation results ({!Icache}) compare it against the
    value seen at fill time and discard everything on mismatch. *)
val generation : t -> int

(** [probe t ~el va_page] — the stage-1 frame and the {e combined}
    two-stage permission set for [va_page] at [el], or [None] when the
    page is unmapped. Same EL semantics as {!translate}, including the
    implicit EL1 read grant; raises on EL2. The result is valid until
    {!generation} changes. *)
val probe : t -> el:El.t -> int64 -> (int64 * perm) option

(** [translate t ~el ~access va] performs the full two-stage walk for an
    EL0 or EL1 access. EL2 accesses are not subject to stage 2 and are
    rejected here — the hypervisor is not modeled as machine code. *)
val translate : t -> el:El.t -> access:access -> int64 -> (int64, fault) result

val fault_to_string : fault -> string

(** Translation-state snapshots.

    [snapshot t] copies both translation tables and records [t] and its
    {!generation}. [restore t s] refills the tables only when they may
    differ from the snapshot: when [t] is not the [Mmu] [s] was taken
    from, or when [t]'s generation has moved since its tables last
    matched [s] (at the capture or at [s]'s previous refill). A refill
    {e advances} the generation counter (it never rewinds it), so
    generation-checked caches filled after the snapshot discard their
    entries. A restore over unchanged tables changes nothing, so those
    caches stay warm. *)
type snapshot

val snapshot : t -> snapshot
val restore : t -> snapshot -> unit

(** Deterministic (key-sorted) folds over the two stages, for state
    fingerprints. *)
val fold_stage1 : t -> ('a -> int64 -> int64 * perm * perm -> 'a) -> 'a -> 'a

val fold_stage2 : t -> ('a -> int64 -> perm -> 'a) -> 'a -> 'a
