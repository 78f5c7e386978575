(** Interprocedural whole-image analysis via per-function summaries.

    Each function gets a PAC-provenance summary — the join of the
    abstract states at its return sites, the set of registers it (or any
    transitive callee) may write, and its net SP displacement. Callers
    apply the summary at call sites instead of the conservative
    caller-saved clobber: registers the callee never writes keep the
    caller's provenance (no callee-save false positives), and
    Signed/Raw/Authenticated values propagate across call boundaries in
    both directions (caller argument states flow into callee entry
    states).

    The fixpoint is Jacobi-style: each round evaluates every live
    function against a frozen snapshot of the previous round's
    summaries, then merges new summaries and entry-state contributions
    sequentially in function-index order. Rounds are what make the
    result independent of how many workers {!Lint.par} runs a round on —
    worker count changes only wall-clock, never output. Each function's
    CFG, call sites and write plan are built once per image, and a round
    reruns only the functions whose entry state or callee summaries the
    previous merge moved; every other function keeps its last result,
    which a rerun would reproduce byte for byte. *)

open Aarch64

type fn_summary = {
  entry : int64;
  name : string option;
  entry_in : Lint.state option;
      (** join of all caller flows (plus [Top] for roots); [None] when
          no resolved caller reaches the function *)
  exit : Lint.state option;
      (** join of states at RET/RETA sites; [None] if the function
          never provably returns *)
  writes : bool array;
      (** 31 slots; [writes.(n)] — x[n] may be written by the function
          or a transitive callee *)
  sp_net : int option;  (** net SP delta entry->return, when known *)
}

type report = {
  cg : Callgraph.t;
  cfgs : Cfg.t array;
      (** parallel to [cg.fns]: each function's CFG with its in-function
          hints, as its analysis read it *)
  summaries : fn_summary array;  (** parallel to [cg.fns] *)
  diags : Diag.t list;  (** normalized (sorted, deduplicated) *)
  rounds : int;  (** Jacobi rounds until stabilization *)
  analyses : int;
      (** function analyses run over all rounds: a round reruns only the
          functions whose entry state or callee summaries the previous
          merge moved, and reuses the last result of every other *)
}

(** [analyze_image ~par ~symbols ~policy code] — build the call graph,
    run the summary fixpoint, then a final diagnostic pass per function.
    Functions named in [symbols] and functions with no resolved caller
    are roots (entry state all-[Top]: externally callable). [par]
    defaults to {!Lint.seq_par}. *)
val analyze_image :
  ?par:Lint.par ->
  ?symbols:(string * int64) list ->
  policy:Lint.policy ->
  (int64 * Insn.t) array ->
  report

(** Byte-stable JSON of the per-function summaries. *)
val summaries_to_json : report -> string
