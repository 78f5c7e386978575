(* Timing, statistics, in-memory spans and JSON output shared by every
   workload of the host-performance benchmark. *)

let now = Unix.gettimeofday

(* ---- statistics ---- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> nan
  | a ->
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The 90th percentile: the sample with a tenth of the samples above it.
   Every run times at least [min_units] units, so at least ten samples
   lie beyond it; a fixed percentile keeps runs with different unit
   counts comparable. *)
let min_units = 100

let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan else a.(n - 1 - (n / 10))

let sum = List.fold_left ( +. ) 0.0

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ---- spans ----

   Spans are recorded only in the traced run, around the calls the
   benchmark makes into each layer. Each has a name, a start and end,
   the span that was open on the same domain when it began (its
   parent), the unit it belongs to, and the domain that ran it. They
   stay in memory and are written out as a Chrome trace at exit. *)

type span = {
  name : string;
  unit_id : int;  (** -1 outside any unit *)
  sid : int;
  parent : int;  (** 0 for a root span *)
  tid : int;
  t0 : float;
  t1 : float;
}

let tracing = ref false
let origin = now ()
let spans : span list ref = ref []
let spans_lock = Mutex.create ()
let next_sid = Atomic.make 1

(* (open span, its unit) on this domain *)
let current : (int * int) Domain.DLS.key = Domain.DLS.new_key (fun () -> (0, -1))

let push s = Mutex.protect spans_lock (fun () -> spans := s :: !spans)
let tid () = (Domain.self () :> int)

let add_span ~name ~unit_id ~parent ~t0 ~t1 =
  if !tracing then
    push
      {
        name;
        unit_id;
        sid = Atomic.fetch_and_add next_sid 1;
        parent;
        tid = tid ();
        t0;
        t1;
      }

(* [span ?unit_id name f] runs [f] inside a span; without [unit_id] it
   inherits the unit of the enclosing span. *)
let span ?unit_id name f =
  if not !tracing then f ()
  else begin
    let ((parent, parent_unit) as saved) = Domain.DLS.get current in
    let unit_id = Option.value unit_id ~default:parent_unit in
    let sid = Atomic.fetch_and_add next_sid 1 in
    Domain.DLS.set current (sid, unit_id);
    let t0 = now () in
    Fun.protect
      ~finally:(fun () ->
        Domain.DLS.set current saved;
        push { name; unit_id; sid; parent; tid = tid (); t0; t1 = now () })
      f
  end

let current_span () = fst (Domain.DLS.get current)

(* Self time: a span's duration minus the part its children cover. *)
let self_ms name =
  let all = !spans in
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let prev = Option.value (Hashtbl.find_opt child_time s.parent) ~default:0.0 in
      Hashtbl.replace child_time s.parent (prev +. (s.t1 -. s.t0)))
    all;
  List.filter_map
    (fun s ->
      if s.name <> name then None
      else
        let kids = Option.value (Hashtbl.find_opt child_time s.sid) ~default:0.0 in
        Some ((s.t1 -. s.t0 -. kids) *. 1e3))
    all

(* ---- JSON ---- *)

let str s = "\"" ^ Telemetry.Json.escape s ^ "\""

(* Every digit as measured; callers never pass a non-finite value (the
   result writer turns those into failed checks first). *)
let num x = Printf.sprintf "%.17g" x

let obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ v) fields) ^ "}"

(* Chrome trace-event document: one complete ("X") event per span,
   sorted per domain track by start time (parents before children), as
   Telemetry.Chrome.validate requires. *)
let chrome_trace () =
  let order a b =
    compare (a.tid, a.t0, -.a.t1, a.sid) (b.tid, b.t0, -.b.t1, b.sid)
  in
  let events =
    List.map
      (fun s ->
        obj
          [
            ("name", str s.name);
            ("cat", str "hostbench");
            ("ph", str "X");
            ("ts", Printf.sprintf "%.3f" ((s.t0 -. origin) *. 1e6));
            ("dur", Printf.sprintf "%.3f" ((s.t1 -. s.t0) *. 1e6));
            ("pid", "0");
            ("tid", string_of_int s.tid);
            ( "args",
              obj
                [
                  ("unit", string_of_int s.unit_id);
                  ("span", string_of_int s.sid);
                  ("parent", string_of_int s.parent);
                ] );
          ])
      (List.sort order !spans)
  in
  "{\"traceEvents\": [\n" ^ String.concat ",\n" events ^ "\n]}\n"

(* ---- host speed ----

   The shared host runs slow phases of up to 1.8x that last from one
   unit to a minute, as long as a run. Every reported time is therefore
   scaled to a reference host speed: right after each measurement the
   yardstick (yardstick.ml, a child process) runs once, and the
   measurement is multiplied by [speed_factor] of the yardstick's
   time. *)

(* The yardstick's typical time on the 2-vCPU Intel Xeon VM of
   README.md, so that scaled times read close to that host's wall
   times. *)
let yardstick_reference_s = 1.6e-3

(* When the host slows, the simulator slows more than the yardstick:
   over 80-120 s of back-to-back units of syscalls-smp,
   calls-camouflage and lint-image, unit time went as the yardstick
   time to the power 1.17-1.23 (README.md). *)
let yardstick_exponent = 1.2

(* [speed_factor y]: what scales a time measured while the yardstick
   took [y] seconds to the reference host speed. *)
let speed_factor y = (yardstick_reference_s /. y) ** yardstick_exponent

type child = { pid : int; requests : out_channel; answers : in_channel }

let child = ref None
let yardstick_samples = ref []

let start_yardstick () =
  let exe = Filename.concat (Filename.dirname Sys.executable_name) "yardstick.exe" in
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let ans_r, ans_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe [| exe |] req_r ans_w Unix.stderr in
  Unix.close req_r;
  Unix.close ans_w;
  child :=
    Some
      { pid; requests = Unix.out_channel_of_descr req_w; answers = Unix.in_channel_of_descr ans_r }

(* Closing its input ends the child; wait until it has. *)
let stop_yardstick () =
  Option.iter
    (fun y ->
      close_out y.requests;
      close_in y.answers;
      ignore (Unix.waitpid [] y.pid);
      child := None)
    !child

(* [yardstick ()] runs the yardstick once and returns its seconds. *)
let yardstick () =
  match !child with
  | None -> invalid_arg "yardstick: not started"
  | Some y ->
      output_char y.requests '\n';
      flush y.requests;
      let s = float_of_string (input_line y.answers) in
      yardstick_samples := s :: !yardstick_samples;
      s

(* [to_reference samples]: each sample is a time just measured and the
   yardstick time taken right after it. Returns the times scaled to the
   reference speed, each by the median yardstick time of the five
   samples around it: a single yardstick run is noisier than the host's
   slow phases are short. *)
let to_reference samples =
  let ys = Array.of_list (List.map snd samples) in
  let n = Array.length ys in
  List.mapi
    (fun i (t, _) ->
      let lo = max 0 (i - 2) and hi = min (n - 1) (i + 2) in
      t *. speed_factor (median (Array.to_list (Array.sub ys lo (hi - lo + 1)))))
    samples

(* ---- layer microprobes ----

   A probe is a name and a function [f]: [f ()] does some work and
   returns the seconds spent on the part being measured and the number
   of operations in it.

   [probe_round probes ~seconds] runs one batch of each probe, calling
   its [f] (at least once) until its even share of [seconds], and at
   least [min_batch_s], has passed. It returns each probe's seconds per
   operation, scaled to the reference host speed by the median
   yardstick time of the round. *)
let min_batch_s = 0.2

let probe_round probes ~seconds =
  let share = Float.max min_batch_s (seconds /. float_of_int (List.length probes)) in
  let batch (name, f) =
    let t_end = now () +. share in
    let rec go s n =
      if n > 0 && now () >= t_end then s /. float_of_int n
      else
        let s', n' = f () in
        go (s +. s') (n + n')
    in
    let per_op = span ("probe " ^ name) (fun () -> go 0.0 0) in
    (name, per_op, yardstick ())
  in
  let raw = List.map batch probes in
  let scale = speed_factor (median (List.map (fun (_, _, y) -> y) raw)) in
  List.map (fun (name, per_op, _) -> (name, per_op *. scale)) raw

(* [timed f] — [f ()]'s wall seconds, with one operation. *)
let timed f =
  let t0 = now () in
  ignore (Sys.opaque_identity (f ()));
  (now () -. t0, 1)

(* Peak resident memory in MB: VmHWM from /proc where the host has it,
   otherwise the OCaml major heap's high-water mark. *)
let heap_peak_mb () =
  let from_proc () =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec find () =
          match In_channel.input_line ic with
          | None -> None
          | Some line when String.starts_with ~prefix:"VmHWM:" line ->
              Scanf.sscanf line "VmHWM: %d kB" (fun kb -> Some (float_of_int kb /. 1024.0))
          | Some _ -> find ()
        in
        find ())
  in
  match from_proc () with
  | Some mb -> mb
  | None | (exception _) ->
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. 1048576.0
