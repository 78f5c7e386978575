(** Deterministic record-replay log.

    A log is line-JSON: a header naming every campaign input that the
    deterministic simulator needs to re-derive the run (seed, config
    name, cpus/tasks/rounds/quantum — the scheduler interleaving is a
    pure function of these), plus one entry per trial recording the
    drawn fault spec and the observed result (outcome, makespan,
    offlined cores, state fingerprint). Replay re-executes a trial from
    the header parameters and hard-asserts that the re-derived spec and
    the resulting entry — fingerprint included — are byte-identical to
    what was recorded.

    The writer is byte-stable and records no host accidents (worker
    count, wall-clock), so recording the same campaign under any
    [--workers] value yields the identical file. *)

type header = {
  h_kind : string;  (** campaign kind; ["faults"] today *)
  h_seed : int64;
  h_trials : int;
  h_config : string;  (** config name as the front end spelled it;
                          resolved back by [Faultinj.Replay.config_of_name] *)
  h_cpus : int;
  h_tasks : int;
  h_rounds : int;
  h_quantum : int;
  h_quarantine_after : int option;
  h_golden_makespan : int64;
  h_golden_fingerprint : string;  (** post-golden-run system state *)
}

type entry = {
  e_index : int;
  e_spec : string;  (** {!Faultinj.Injector.spec_to_string} of the spec *)
  e_fired : bool;
  e_outcome : string;
  e_detail : string;
  e_makespan : int64;
  e_offlined : int list;
  e_fingerprint : string;  (** post-trial system state *)
}

type t = { header : header; entries : entry list }

val entry_to_json : entry -> string

val write : path:string -> t -> unit
val read : path:string -> (t, string) result

(** [find_entry t index] — the recorded entry for trial [index]. *)
val find_entry : t -> int -> entry option
