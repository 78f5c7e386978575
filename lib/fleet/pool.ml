type stats = {
  workers : int;
  jobs_run : int array;
  steals : int array;
  stopped : bool;
}

type job_failure = { job : int; attempts : int; error : string }

type 'a outcome = {
  results : 'a option array;
  failures : job_failure list;
  stats : stats;
}

let default_workers () = min 8 (max 1 (Domain.recommended_domain_count ()))
let workers_range = (1, 64)
let default_retries = 2

(* Bounded backoff between attempts: 1ms, 2ms, 4ms ... capped at 50ms.
   Transient host trouble (fd exhaustion, allocation spikes) gets room
   to clear; a deterministic bug burns at most ~100ms before the job is
   quarantined. *)
let backoff attempt =
  Unix.sleepf (min 0.05 (0.001 *. float_of_int (1 lsl min attempt 6)))

(* ---- kept helper domains ----

   Worker 0 of a run is the calling domain; workers 1 .. n-1 run on
   helper domains. A helper that has finished its worker parks on its
   own condition variable instead of exiting, and a later run hands it
   the next worker, so repeated runs reuse the same domains and whatever
   their jobs keep in domain-local storage. On OCaml 5.1 a fresh domain
   per run grows the heap with the number of runs. A parked domain is
   not free either: every stop-the-world minor collection must reach it.
   So one helper parks, the only count measured (on a 2-core host), and
   any other helper exits after its worker. A run takes the idle helper
   and spawns the rest, never waiting for a busy one, so nested and
   concurrent runs cannot deadlock. *)

type helper = {
  lock : Mutex.t;
  wake : Condition.t;
  mutable task : ((unit -> unit) * (unit -> unit)) option;
      (* the worker to run (it never raises), then its completion signal *)
}

let idle_lock = Mutex.create ()
let idle : helper option ref = ref None

let take_idle () =
  Mutex.protect idle_lock (fun () ->
      let h = !idle in
      idle := None;
      h)

let park h =
  Mutex.protect idle_lock (fun () ->
      Option.is_none !idle
      && begin
           idle := Some h;
           true
         end)

(* A helper parks before it signals completion, so the run after this
   one finds it idle. *)
let rec serve h =
  let work, finish =
    Mutex.protect h.lock (fun () ->
        while Option.is_none h.task do
          Condition.wait h.wake h.lock
        done;
        let t = Option.get h.task in
        h.task <- None;
        t)
  in
  work ();
  let parked = park h in
  finish ();
  if parked then serve h

let start task =
  match take_idle () with
  | Some h ->
      Mutex.protect h.lock (fun () ->
          h.task <- Some task;
          Condition.signal h.wake)
  | None ->
      let h = { lock = Mutex.create (); wake = Condition.create (); task = Some task } in
      ignore (Domain.spawn (fun () -> serve h) : unit Domain.t)

(* [run_workers n worker] runs [worker 0] here and [worker 1 .. n-1] on
   helpers, waits for all of them, then re-raises the exception that
   escaped the lowest-numbered worker, as [Domain.join] would. *)
let run_workers n worker =
  let lock = Mutex.create () and all_done = Condition.create () in
  let pending = ref (n - 1) and failed = ref None in
  let guarded w () =
    match worker w with
    | () -> ()
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        Mutex.protect lock (fun () ->
            match !failed with
            | Some (v, _, _) when v < w -> ()
            | _ -> failed := Some (w, e, bt))
  in
  let finish () =
    Mutex.protect lock (fun () ->
        decr pending;
        if !pending = 0 then Condition.signal all_done)
  in
  for w = 1 to n - 1 do
    start (guarded w, finish)
  done;
  guarded 0 ();
  Mutex.protect lock (fun () ->
      while !pending > 0 do
        Condition.wait all_done lock
      done);
  Option.iter (fun (_, e, bt) -> Printexc.raise_with_backtrace e bt) !failed

(* Each results slot is written by exactly one worker (each index is
   claimed once from its block's cursor) and read only after every
   worker has finished (the completion lock orders the writes before the
   read), so the plain array needs no synchronisation of its own. The
   same argument covers the per-worker failure lists and counters. *)
let run ?workers ?(retries = default_retries) ?progress ?should_stop ~jobs f =
  if jobs < 0 then invalid_arg "Pool.run: negative job count";
  if retries < 0 then invalid_arg "Pool.run: negative retry count";
  let workers =
    match workers with
    | Some w when w < 1 -> invalid_arg "Pool.run: worker count must be >= 1"
    | Some w -> min w (max 1 jobs)
    | None -> min (default_workers ()) (max 1 jobs)
  in
  let results = Array.make jobs None in
  (* block partition: block v is the contiguous index range
     [v*jobs/workers, (v+1)*jobs/workers), and its cursor is the next
     index to hand out *)
  let block_end v = (v + 1) * jobs / workers in
  let cursors = Array.init workers (fun v -> Atomic.make (v * jobs / workers)) in
  let jobs_run = Array.make workers 0 in
  let steals = Array.make workers 0 in
  let failures_per = Array.make workers [] in
  let stop = Atomic.make false in
  let stopping () =
    Atomic.get stop
    ||
    match should_stop with
    | Some p when p () ->
        Atomic.set stop true;
        true
    | _ -> false
  in
  (* A job that keeps raising is retried with backoff, then quarantined:
     recorded as a failure, its slot left None, and the pool moves on —
     one poisoned job cannot take the whole campaign down with it. *)
  let exec w i =
    let rec attempt n =
      match f i with
      | v -> results.(i) <- Some v
      | exception e ->
          if n > retries then
            failures_per.(w) <-
              { job = i; attempts = n; error = Printexc.to_string e }
              :: failures_per.(w)
          else begin
            backoff n;
            attempt (n + 1)
          end
    in
    attempt 1;
    jobs_run.(w) <- jobs_run.(w) + 1;
    match progress with Some p -> p () | None -> ()
  in
  (* Worker w claims from its own block, then from each other block in
     turn, starting with the next worker up. A cursor only grows, so a
     claim at or past its block's end means the block is drained for
     good and the worker moves on. *)
  let rec worker w v =
    if not (stopping ()) then begin
      let i = Atomic.fetch_and_add cursors.(v) 1 in
      if i < block_end v then begin
        if v <> w then steals.(w) <- steals.(w) + 1;
        exec w i;
        worker w v
      end
      else
        let next = (v + 1) mod workers in
        if next <> w then worker w next
    end
  in
  (* worker 0 is the calling domain: workers = 1 starts no helper *)
  run_workers workers (fun w -> worker w w);
  let failures =
    List.sort
      (fun a b -> compare a.job b.job)
      (List.concat (Array.to_list failures_per))
  in
  {
    results;
    failures;
    stats = { workers; jobs_run; steals; stopped = Atomic.get stop };
  }

let map ?workers ?retries ~jobs f =
  let o = run ?workers ?retries ~jobs f in
  (match o.failures with
  | [] -> ()
  | { job; attempts; error } :: _ ->
      failwith
        (Printf.sprintf "Pool.map: job %d failed after %d attempts: %s" job
           attempts error));
  Array.map
    (function
      | Some x -> x
      | None -> invalid_arg "Pool.map: pool stopped before all jobs ran")
    o.results
