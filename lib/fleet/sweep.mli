(** Fleet job kind beyond fault campaigns: PAC brute-force sweeps.

    A brute-force sweep runs [machines] systems, each executing the
    {!Attacks.Bruteforce_attack} guessing loop with a seed derived from
    [(seed, index)], checks the kernel's SMP accounting invariant
    ({!Camouflage.Bruteforce.audit}) on every machine, and merges
    per-machine results by job index into a byte-stable report — the
    paper's Section 5.4 mitigation measured across a fleet instead of
    one box.

    Since PR 8 the machines are snapshot-forked: each worker domain
    boots one system for the sweep's [(config, seed)], snapshots the
    post-boot state, and restores it per machine index. Machines differ
    only in their attack-RNG stream, which is statistically equivalent
    to independent boots — a random forgery is accepted with probability
    2^-pac_bits regardless of the key value — and an order of magnitude
    cheaper. *)

type machine_report = {
  m_index : int;
  m_attempts : int;  (** guesses actually made (early stop on panic) *)
  m_successes : int;  (** forged PACs that authenticated *)
  m_detected : int;  (** PAC failures recorded *)
  m_panicked : bool;  (** brute-force threshold fired *)
  m_audit_ok : bool;  (** global = per-CPU sums = log length invariant *)
}

type report = {
  sw_seed : int64;
  sw_machines : int;
  sw_attempts : int;  (** budget per machine *)
  sw_threshold : int;
  sw_config_name : string;
  sw_total_attempts : int;
  sw_total_successes : int;
  sw_total_detected : int;
  sw_panicked : int;  (** machines that halted *)
  sw_audit_failures : int;  (** machines whose accounting broke — 0 or bug *)
  sw_machine_list : machine_report list;  (** in index order *)
  sw_hists : (Telemetry.Span.kind * Telemetry.Hist.t) list;
      (** span latency over all machines, merged in index order;
          all-empty unless [run] was given [~telemetry:true] *)
}

(** [run ~seed ~machines ~attempts ()] — the sweep. [threshold]
    overrides the config's brute-force panic threshold. Deterministic:
    the same arguments give the same report for every worker count.
    Machines whose job was quarantined by the pool (after [retries])
    are absent from the report and listed in the returned failures.
    [telemetry] boots the sweep machines with telemetry (pure
    observation: attack outcomes are bit-identical) and fills
    [sw_hists]. *)
val run :
  ?config:Camouflage.Config.t ->
  ?threshold:int ->
  ?workers:int ->
  ?retries:int ->
  ?telemetry:bool ->
  ?progress:(unit -> unit) ->
  ?should_stop:(unit -> bool) ->
  seed:int64 ->
  machines:int ->
  attempts:int ->
  unit ->
  (report * Pool.stats * Pool.job_failure list) option

(** Deterministic JSON: fixed field order, byte-stable. *)
val report_to_json : ?machine_detail:bool -> report -> string

val report_to_string : report -> string
