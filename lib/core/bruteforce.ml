type verdict = Kill_process | Panic

type event = { pid : int; cpu : int; faulting_va : int64; at_failure : int }

type t = {
  threshold : int;
  mutable count : int;
  mutable events : event list;
  per_cpu : (int, int) Hashtbl.t;
}

let create ~threshold =
  if threshold <= 0 then invalid_arg "Bruteforce.create: threshold";
  { threshold; count = 0; events = []; per_cpu = Hashtbl.create 8 }

(* The counter and the threshold are system-wide on purpose: an SMP
   attacker spreading forgery attempts over the cores must not multiply
   the budget (Section 5.4). The per-CPU tally is for reporting only. *)
let record_failure ?(cpu = 0) t ~pid ~faulting_va =
  t.count <- t.count + 1;
  t.events <- { pid; cpu; faulting_va; at_failure = t.count } :: t.events;
  Hashtbl.replace t.per_cpu cpu
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.per_cpu cpu));
  if t.count >= t.threshold then Panic else Kill_process

let failures t = t.count

let failures_on t ~cpu = Option.value ~default:0 (Hashtbl.find_opt t.per_cpu cpu)

let log t = List.rev t.events

type captured = {
  c_count : int;
  c_events : event list;
  c_per_cpu : (int, int) Hashtbl.t;
}

let capture t =
  { c_count = t.count; c_events = t.events; c_per_cpu = Hashtbl.copy t.per_cpu }

let restore t c =
  t.count <- c.c_count;
  t.events <- c.c_events;
  Hashtbl.reset t.per_cpu;
  Hashtbl.iter (fun k v -> Hashtbl.replace t.per_cpu k v) c.c_per_cpu

(* SMP invariant: every failure is accounted exactly once, whichever
   core observed it. The global counter, the event log and the per-CPU
   tallies are all bumped in the single [record_failure] above, so they
   can only disagree if a caller bypasses it. *)
let audit t =
  let per_cpu_sum = Hashtbl.fold (fun _ n acc -> acc + n) t.per_cpu 0 in
  (* events are prepended, so ordinals must descend count..1 *)
  let rec descending expected = function
    | [] -> expected = 0
    | e :: rest -> e.at_failure = expected && descending (expected - 1) rest
  in
  t.count = per_cpu_sum
  && t.count = List.length t.events
  && descending t.count t.events
