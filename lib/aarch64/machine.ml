type ipi = Reschedule | Stop | Call_function

let ipi_bit = function Reschedule -> 0 | Stop -> 1 | Call_function -> 2
let all_ipis = [ Reschedule; Stop; Call_function ]

let ipi_name = function
  | Reschedule -> "IPI_RESCHEDULE"
  | Stop -> "IPI_STOP"
  | Call_function -> "IPI_CALL_FUNC"

(* GIC-lite software-generated-interrupt state: one pending bitmask per
   core plus, per interrupt id, the set of requesting cores — enough to
   model the doorbell (who rang) without the distributor's full
   priority/affinity machinery. *)
type gic = {
  pending : int array;  (** per-core pending IPI bitmask *)
  senders : int array array;  (** senders.(dst).(bit) = requester bitmask *)
  mutable ipis_sent : int;
}

type t = {
  cores : Cpu.t array;
  mem : Mem.t;
  mmu : Mmu.t;
  icache : Cpu.op Icache.t;
  cipher : Qarma.Block.t;
  gic : gic;
  hub : Telemetry.Hub.t option;
}

let create ?cost ?has_pauth ?cipher ?trace_depth ?(telemetry = false)
    ?(tier = Cpu.Icache) ~cpus () =
  if cpus < 1 then invalid_arg "Machine.create: cpus";
  let cipher = match cipher with Some c -> c | None -> Qarma.Block.create () in
  let mem = Mem.create () in
  let mmu = Mmu.create () in
  (* One shared cache: decoded entries and their ops depend only on
     (EL, VA page) and the shared translation tables, so cores can reuse
     each other's fills — and the single-threaded interleaved execution
     model means there is no concurrent access to protect against.
     Trace caches, by contrast, are per-core (a block's chain captures
     its core); Cpu.create makes each one and registers its flush with
     this cache, which keeps them all coherent. *)
  let ic = Icache.create ~enabled:(tier <> Cpu.Interp) ~compile:Cpu.op_of ~mem ~mmu () in
  let cores =
    Array.init cpus (fun id ->
        Cpu.create ?cost ?has_pauth ~cipher ~mem ~mmu ~icache:ic ~tier
          ?trace_depth ~id ())
  in
  let hub =
    if telemetry then begin
      let hub = Telemetry.Hub.create ~cpus () in
      Array.iteri
        (fun i core -> Cpu.attach_telemetry core (Telemetry.Hub.sink hub i))
        cores;
      Some hub
    end
    else None
  in
  {
    cores;
    mem;
    mmu;
    icache = ic;
    cipher;
    gic =
      {
        pending = Array.make cpus 0;
        senders = Array.init cpus (fun _ -> Array.make 3 0);
        ipis_sent = 0;
      };
    hub;
  }

let cpus t = Array.length t.cores

let core t i =
  if i < 0 || i >= Array.length t.cores then invalid_arg "Machine.core";
  t.cores.(i)

let cores t = Array.to_list t.cores
let telemetry t = t.hub
let boot_core t = t.cores.(0)
let mem t = t.mem
let mmu t = t.mmu
let icache t = t.icache

let send_ipi t ~src ~dst ipi =
  if dst < 0 || dst >= cpus t then invalid_arg "Machine.send_ipi: dst";
  if src < 0 || src >= cpus t then invalid_arg "Machine.send_ipi: src";
  let bit = ipi_bit ipi in
  t.gic.pending.(dst) <- t.gic.pending.(dst) lor (1 lsl bit);
  t.gic.senders.(dst).(bit) <- t.gic.senders.(dst).(bit) lor (1 lsl src);
  t.gic.ipis_sent <- t.gic.ipis_sent + 1;
  match Cpu.telemetry t.cores.(src) with
  | Some s ->
      Telemetry.Counters.count_ipi_sent (Telemetry.Sink.counters s);
      Telemetry.Sink.emit s
        ~ts:(Cpu.cycles t.cores.(src))
        (Telemetry.Event.Ipi_send { dst; kind = ipi_name ipi })
  | None -> ()

let pending t ~cpu =
  List.filter (fun i -> t.gic.pending.(cpu) land (1 lsl ipi_bit i) <> 0) all_ipis

(* Acknowledge one interrupt id: returns the requesting cores (lowest
   core number first — the deterministic service order) and clears both
   the pending bit and the requester set. *)
let ack t ~cpu ipi =
  let bit = ipi_bit ipi in
  let requesters = t.gic.senders.(cpu).(bit) in
  t.gic.pending.(cpu) <- t.gic.pending.(cpu) land lnot (1 lsl bit);
  t.gic.senders.(cpu).(bit) <- 0;
  let srcs =
    List.filter (fun src -> requesters land (1 lsl src) <> 0)
      (List.init (cpus t) Fun.id)
  in
  (match Cpu.telemetry t.cores.(cpu) with
  | Some s ->
      Telemetry.Counters.count_ipi_received (Telemetry.Sink.counters s);
      Telemetry.Sink.emit s
        ~ts:(Cpu.cycles t.cores.(cpu))
        (Telemetry.Event.Ipi_receive { srcs; kind = ipi_name ipi })
  | None -> ());
  srcs

let ipis_sent t = t.gic.ipis_sent

(* Simulated-time makespan of the machine: every core runs in parallel,
   so the wall time of a parallel phase is the busiest core's clock. *)
let max_cycles t =
  Array.fold_left (fun acc c -> max acc (Cpu.cycles c)) 0L t.cores

(* Whole-machine snapshots: CoW memory + translation tables + every
   core's mutable state + the GIC doorbell + telemetry (captured so an
   observed restore is bit-identical to an observed boot). The icache
   and the trace caches are deliberately NOT captured — they are
   host-speed caches, never guest-visible — and restore keeps them warm.
   The icache's two invalidation channels already cover everything a
   restore changes, and its stale hooks pass both on to the trace
   caches: [Mem.restore] notifies every frame it reverts, which drops
   the decoded lines shadowing it and kills the compiled blocks, and a
   refill in [Mmu.restore] advances the generation, which flushes the
   icache, and so the trace caches, at its next lookup. *)
type snapshot = {
  s_mem : Mem.snapshot;
  s_mmu : Mmu.snapshot;
  s_cores : Cpu.captured array;
  s_pending : int array;
  s_senders : int array array;
  s_ipis_sent : int;
  s_hub : Telemetry.Hub.captured option;
}

let snapshot t =
  {
    s_mem = Mem.snapshot t.mem;
    s_mmu = Mmu.snapshot t.mmu;
    s_cores = Array.map Cpu.capture t.cores;
    s_pending = Array.copy t.gic.pending;
    s_senders = Array.map Array.copy t.gic.senders;
    s_ipis_sent = t.gic.ipis_sent;
    s_hub = Option.map Telemetry.Hub.capture t.hub;
  }

let restore t s =
  Mem.restore t.mem s.s_mem;
  Mmu.restore t.mmu s.s_mmu;
  Array.iteri (fun i c -> Cpu.restore t.cores.(i) c) s.s_cores;
  Array.blit s.s_pending 0 t.gic.pending 0 (Array.length t.gic.pending);
  Array.iteri
    (fun i row -> Array.blit row 0 t.gic.senders.(i) 0 (Array.length row))
    s.s_senders;
  t.gic.ipis_sent <- s.s_ipis_sent;
  match (t.hub, s.s_hub) with
  | Some hub, Some c -> Telemetry.Hub.restore hub c
  | _ -> ()
