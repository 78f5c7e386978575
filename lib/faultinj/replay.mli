(** Deterministic replay of recorded fault campaigns.

    A replay log ({!Snapshot.Log}) names every input the campaign
    consumed: the seed (all fault draws are a pure function of
    [(seed, index)]), the workload shape, and the golden run's makespan
    and state fingerprint. Replaying trial [i] rebuilds the session from
    the header, re-derives the spec, re-runs, and hard-asserts that the
    resulting entry — fingerprint included — is byte-identical to what
    was recorded. Any divergence (changed simulator, wrong binary,
    corrupted log) surfaces as a failed verdict, never a silent pass. *)

(** Resolve a recorded config name: either a front-end token ([full],
    [backward], [compat], [none], [sp-only], [parts], [chained]) or the
    display name {!Camouflage.Config.name} produces for one of those. *)
val config_of_name : string -> Camouflage.Config.t option

(** The log entry a finished trial records. *)
val entry_of_trial :
  fingerprint:string -> Campaign.trial -> Snapshot.Log.entry

type verdict = {
  v_index : int;
  v_spec_ok : bool;  (** re-derived spec = recorded spec *)
  v_fingerprint_ok : bool;  (** post-trial state fingerprints identical *)
  v_bytes_ok : bool;  (** rendered entry lines byte-identical *)
  v_recorded : Snapshot.Log.entry;
  v_replayed : Snapshot.Log.entry;
}

val verdict_ok : verdict -> bool

(** [replay ?index log] — rebuild the session, then replay every entry
    (or just trial [index]). [Error] means the log could not be replayed
    at all (a header outside the campaign ranges or naming an unknown config, an entry index that
    repeats or falls outside [\[0, trials)], golden divergence, unknown
    index); verdicts report per-trial divergence. Fewer entries than
    [trials] is legal: quarantined trials are absent from a log. *)
val replay :
  ?index:int -> ?tier:Aarch64.Cpu.tier -> Snapshot.Log.t ->
  (verdict list, string) result

val verdict_to_string : verdict -> string
