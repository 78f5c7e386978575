(* Spans are *derived*, never emitted: a pure pass over the event
   stream pairs the begin/end markers the kernel and machine already
   record, so observation stays bit-identical whether or not anyone
   asks for latency. This is the only code that pairs events: the
   histograms and every Chrome duration event read its pairs. Pairing
   is first-in-first-out per key (IPIs cross clock domains and are only
   paired when the receive timestamp is not before the send, so
   durations are always non-negative). *)

type kind = Syscall | Context_switch | Ipi | Key_domain

let all_kinds = [ Syscall; Context_switch; Ipi; Key_domain ]

let kind_name = function
  | Syscall -> "syscall"
  | Context_switch -> "context-switch"
  | Ipi -> "ipi"
  | Key_domain -> "key-domain"

type t = {
  sp_kind : kind;
  sp_cpu : int;  (* the core whose clock the span lives on (IPI: sender) *)
  sp_start : int64;
  sp_dur : int64;
  sp_label : string;
}

(* What a begin opens and an end closes. Every key but an IPI's names
   the core both of its events come from. *)
type key =
  | Syscall_key of int * int * int  (* core, nr, pid *)
  | Switch_key of int * int * int  (* core, from pid, to pid *)
  | Keys_key of int  (* core *)
  | Ipi_key of int * int * string  (* source, destination, IPI kind *)

let kind_of_key = function
  | Syscall_key _ -> Syscall
  | Switch_key _ -> Context_switch
  | Keys_key _ -> Key_domain
  | Ipi_key _ -> Ipi

type role = Opens of key | Closes of key list | Neither

let role (e : Event.t) =
  match e.payload with
  | Event.Syscall_enter { nr; pid; _ } -> Opens (Syscall_key (e.cpu, nr, pid))
  | Event.Syscall_exit { nr; pid; _ } -> Closes [ Syscall_key (e.cpu, nr, pid) ]
  | Event.Context_switch { from_pid; to_pid } ->
      Opens (Switch_key (e.cpu, from_pid, to_pid))
  | Event.Switch_done { from_pid; to_pid } ->
      Closes [ Switch_key (e.cpu, from_pid, to_pid) ]
  (* kernel-key residency: the window the auth keys are live *)
  | Event.Key_switch { domain = "kernel"; _ } -> Opens (Keys_key e.cpu)
  | Event.Key_switch { domain = "user"; _ } -> Closes [ Keys_key e.cpu ]
  | Event.Ipi_send { dst; kind } -> Opens (Ipi_key (e.cpu, dst, kind))
  (* one coalesced receive acknowledges a send from every source it lists *)
  | Event.Ipi_receive { srcs; kind } ->
      Closes (List.map (fun src -> Ipi_key (src, e.cpu, kind)) srcs)
  | _ -> Neither

let span (b : Event.t) (e : Event.t) sp_kind =
  {
    sp_kind;
    sp_cpu = b.cpu;
    sp_start = b.ts;
    sp_dur = Int64.sub e.ts b.ts;
    sp_label =
      (match e.payload with
      | Event.Syscall_exit { name; _ } -> name
      | Event.Switch_done { from_pid; to_pid } ->
          Printf.sprintf "pid %d -> %d" from_pid to_pid
      | Event.Ipi_receive { kind; _ } -> kind
      | _ (* a "user" key switch *) -> "kernel-keys");
  }

(* The one pairing pass: a begin joins its key's queue, and an end
   closes the oldest pending begin of its key unless that begin is after
   it. A key's begins all come from one core, whose events a stream in
   {!Hub.events} order holds in ts order, so when the oldest is after
   the end every other pending begin is too. Only an IPI's end reads
   another core's clock than its begin. *)
let pairs evs =
  let pending = Hashtbl.create 16 in
  let closed = ref [] in
  Array.iteri
    (fun i (e : Event.t) ->
      match role e with
      | Opens k ->
          if not (Hashtbl.mem pending k) then Hashtbl.add pending k (Queue.create ());
          Queue.push i (Hashtbl.find pending k)
      | Closes ks ->
          List.iter
            (fun k ->
              match Hashtbl.find_opt pending k with
              | Some q
                when (not (Queue.is_empty q))
                     && Int64.compare evs.(Queue.peek q).Event.ts e.ts <= 0 ->
                  let b = Queue.pop q in
                  closed := (span evs.(b) e (kind_of_key k), b, i) :: !closed
              | _ -> ())
            ks
      | Neither -> ())
    evs;
  List.rev !closed

let of_events events =
  List.map (fun (sp, _, _) -> sp) (pairs (Array.of_list events))

(* Per-kind histograms in the fixed [all_kinds] order — every kind is
   present (possibly empty) so fleet merges line up bucket-for-bucket
   without keying games. *)
let histograms events =
  let hists = List.map (fun k -> (k, Hist.create ())) all_kinds in
  List.iter
    (fun sp -> Hist.record (List.assoc sp.sp_kind hists) sp.sp_dur)
    (of_events events);
  hists

let merge_histograms a b =
  List.map
    (fun k ->
      let get l = try List.assoc k l with Not_found -> Hist.empty in
      (k, Hist.merge (get a) (get b)))
    all_kinds

let empty_histograms () = List.map (fun k -> (k, Hist.empty)) all_kinds

let histograms_to_json hists =
  "{"
  ^ String.concat ", "
      (List.map
         (fun k ->
           let h = try List.assoc k hists with Not_found -> Hist.empty in
           Printf.sprintf "\"%s\": %s" (kind_name k) (Hist.to_json h))
         all_kinds)
  ^ "}"
