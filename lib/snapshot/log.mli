(** Deterministic record-replay log.

    A log is line-JSON: a header naming every campaign input that the
    deterministic simulator needs to re-derive the run (seed, config
    name and the campaign's shape — the scheduler interleaving is a
    pure function of these), plus one entry per trial recording the
    drawn fault spec and the observed result (outcome, makespan,
    offlined cores, state fingerprint). Replay re-executes a trial from
    the header parameters and hard-asserts that the re-derived spec and
    the resulting entry — fingerprint included — are byte-identical to
    what was recorded.

    The writer is byte-stable and records no host accidents (worker
    count, wall-clock), so recording the same campaign under any
    [--workers] value yields the identical file. *)

type 'shape header = {
  h_kind : string;  (** campaign kind; ["faults"] today *)
  h_seed : int64;
  h_trials : int;
  h_config : string;  (** config name as the front end spelled it;
                          resolved back by [Faultinj.Replay.config_of_name] *)
  h_shape : 'shape;  (** the campaign kind's shape, written by its {!codec} *)
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

type 'shape t = { header : 'shape header; entries : entry list }

(** How a campaign kind's shape goes into a header and comes back out
    ([Faultinj.Replay] owns the faults one). [shape_to_json] renders
    the shape's members, which the header carries between [config] and
    [golden_makespan]; [shape_of_json] reads them back from the parsed
    header object. *)
type 'shape codec = {
  shape_to_json : 'shape -> string;
  shape_of_json : Camo_util.Json.t -> ('shape, string) result;
}

(** [field name conv json] — member [name] of [json] through [conv];
    [Error] names the member as missing or ill-typed. *)
val field :
  string -> (Camo_util.Json.t -> 'a option) -> Camo_util.Json.t -> ('a, string) result

val entry_to_json : entry -> string

val write : 'shape codec -> path:string -> 'shape t -> unit
val read : 'shape codec -> path:string -> ('shape t, string) result

(** [find_entry t index] — the recorded entry for trial [index]. *)
val find_entry : 'shape t -> int -> entry option
