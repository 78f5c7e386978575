(** Sampling-free cycle attribution (PR 4 tentpole, layer 3).

    The interpreter reports every retired instruction's PC, cycle
    charge and {e instrumentation origin} — whether the instruction is
    part of the original program or was added by a CFI scheme (PAC
    signing, authentication, modifier arithmetic on the reserved
    x16/x17 registers, or the XOM key-switch routines). Cycles are
    bucketed exactly, per PC, so flat profiles and folded-stack
    ("flamegraph") output account for 100% of executed cycles — no
    sampling error. *)

type origin =
  | Baseline  (** the program as written, pre-instrumentation *)
  | Cfi_sign  (** PAC-constructing instructions (PACIA/PACGA/...) *)
  | Cfi_auth  (** AUT*/RETA*/BRA*/XPAC — authentication and strips *)
  | Cfi_modifier  (** modifier arithmetic on reserved ip0/ip1 *)
  | Cfi_key_switch  (** instructions inside the XOM key routines *)

val origin_name : origin -> string
val all_origins : origin list

(** [is_cfi o] — true for every origin except [Baseline]. *)
val is_cfi : origin -> bool

type t

val create : unit -> t
val reset : t -> unit
val record : t -> pc:int64 -> origin:origin -> cycles:int -> unit

(** Bucket-table capture for machine snapshots. Rows are copied both
    ways, so a captured profile is immune to later mutation. *)
type captured

val capture : t -> captured
val restore : t -> captured -> unit

(** Per-origin cycle totals, every origin present, fixed order. *)
val by_origin : t -> (origin * int64) list

(** Half-open PC range labelled with a symbol name. *)
type sym = { sym_name : string; lo : int64; hi : int64 }

(** [ranges ~symbols ~limit] — turn a layout's [(name, addr)] list
    (ascending addresses) into half-open ranges, the last one closed
    at [limit]. *)
val ranges : symbols:(string * int64) list -> limit:int64 -> sym list

type line = { line_symbol : string; line_origin : origin; line_cycles : int64 }

(** Flat profile: cycles per (symbol, origin), descending by cycles.
    PCs outside every range fold into ["[unknown]"]. *)
val flat : t -> symbols:sym list -> line list

(** Folded-stack output, one ["symbol;origin cycles"] line per bucket
    (flamegraph.pl-compatible), sorted for byte-stability. *)
val folded : t -> symbols:sym list -> string
