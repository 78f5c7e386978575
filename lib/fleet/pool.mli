(** Domain-pool executor: claimed job indices and fault-tolerant job
    execution.

    [run ~jobs f] evaluates [f i] for every [i] in [0 .. jobs-1] across
    a pool of OCaml domains. Job indices are block-partitioned: worker
    [w]'s block runs from [w*jobs/workers] up to [(w+1)*jobs/workers],
    and one atomic cursor per block hands its indices out in order.
    Every claim, by the block's owner or by another worker, is one
    [Atomic.fetch_and_add], so no job takes a lock. A worker whose block
    is drained claims from the other blocks, starting with the next
    worker up, until every block is drained. Results land in a slot
    array {e at their job index}, so the caller always sees index order
    — completion order, worker count and which worker claimed which
    index are invisible, which is what makes fleet reports byte-stable
    regardless of parallelism.

    [f] runs on worker domains: it must not share mutable state across
    jobs (each fleet job boots — or snapshot-forks — its own machine).
    A job that raises is retried up to [retries] times with bounded
    exponential backoff; a job still raising after that is
    {e quarantined}: recorded in [failures], its slot left [None], and
    the rest of the pool keeps running. Exceptions are never re-raised
    into the caller by {!run} — inspect [failures].

    [workers = 1] degenerates to a plain sequential loop on the calling
    domain — no domain is spawned; the single-run paths of the CLI are
    exactly this special case. Workers 1 .. n-1 run on helper domains:
    one of them is kept between runs, parked idle to serve the next run,
    so jobs may find the domain-local state an earlier run left; the
    others exit after their worker. A run never waits for a busy helper;
    it spawns a domain instead. *)

type stats = {
  workers : int;
  jobs_run : int array;  (** jobs executed, per worker *)
  steals : int array;
      (** jobs a worker claimed from another worker's block, per worker *)
  stopped : bool;  (** [should_stop] fired before every job ran *)
}

(** One quarantined job: it raised on every attempt. *)
type job_failure = {
  job : int;  (** job index *)
  attempts : int;  (** total attempts made (1 + retries) *)
  error : string;  (** [Printexc.to_string] of the last exception *)
}

type 'a outcome = {
  results : 'a option array;
      (** slot [i] holds [f i]; [None] when the pool was stopped before
          job [i] was reached, or job [i] was quarantined *)
  failures : job_failure list;  (** quarantined jobs, sorted by index *)
  stats : stats;
}

(** Workers to use when the caller does not say: the host's recommended
    domain count, clamped to [1 .. 8]. *)
val default_workers : unit -> int

(** The inclusive range of worker counts that every front end of the
    pool accepts (the CLI's [--workers] and a [serve] job's
    ["workers"]): 1–64. [run] itself does not check it. *)
val workers_range : int * int

(** [run ?workers ?retries ?progress ?should_stop ~jobs f] — execute
    the job stream. [progress] is invoked once per completed job — also
    for quarantined ones — {e from worker domains} (it must be
    thread-safe; an [Atomic] counter is the intended use). An exception
    raised by [progress] or [should_stop] reaches the caller once every
    worker has finished. [should_stop] is polled by every worker before
    every claim; once it returns [true] no further job starts, in-flight
    jobs finish, and unreached slots stay [None]. [retries] is the
    number of re-attempts after a first failure; [retries = 0]
    quarantines on the first raise. *)
val run :
  ?workers:int ->
  ?retries:int ->
  ?progress:(unit -> unit) ->
  ?should_stop:(unit -> bool) ->
  jobs:int ->
  (int -> 'a) ->
  'a outcome

(** [map ?workers ?retries ~jobs f] — {!run} without cancellation:
    every slot is filled, returned as a plain array in index order.
    Raises [Failure] if any job was quarantined. *)
val map : ?workers:int -> ?retries:int -> jobs:int -> (int -> 'a) -> 'a array
