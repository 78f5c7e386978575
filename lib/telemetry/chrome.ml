(* Track layout: pid 0 = per-core tracks (tid = core id), pid 1 =
   per-task tracks (tid = task pid). [serialize_lanes] instead gives
   every lane (a fleet trial) its own process, one thread per core. *)

let core_pid = 0
let task_pid = 1

let event_name (p : Event.payload) =
  match p with
  | Event.Syscall_enter { name; _ } | Event.Syscall_exit { name; _ } -> name
  | _ -> Event.kind p

let span_name (p : Event.payload) =
  match p with
  | Event.Syscall_enter { name; _ } -> name
  | Event.Context_switch _ -> "context-switch"
  | Event.Key_switch _ -> "kernel-keys"
  | p -> Event.kind p

let obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> "\"" ^ k ^ "\": " ^ v) fields)
  ^ "}"

let str s = "\"" ^ Camo_util.Json.escape s ^ "\""

let instant_json ~pid ~tid (ev : Event.t) =
  obj
    [
      ("name", str (event_name ev.payload));
      ("cat", str (Event.kind ev.payload));
      ("ph", str "i");
      ("s", str "t");
      ("ts", Printf.sprintf "%Ld" ev.ts);
      ("pid", string_of_int pid);
      ("tid", string_of_int tid);
      ("args", obj [ ("desc", str (Event.describe ev.payload)) ]);
    ]

let span_json ~pid ~tid ~name ~desc (sp : Span.t) =
  obj
    [
      ("name", str name);
      ("cat", str (Span.kind_name sp.Span.sp_kind));
      ("ph", str "X");
      ("ts", Printf.sprintf "%Ld" sp.Span.sp_start);
      ("dur", Printf.sprintf "%Ld" sp.Span.sp_dur);
      ("pid", string_of_int pid);
      ("tid", string_of_int tid);
      ("args", obj [ ("desc", str desc) ]);
    ]

let metadata_json ~pid ~tid ~meta ~name_ =
  obj
    [
      ("name", str meta);
      ("ph", str "M");
      ("ts", "0");
      ("pid", string_of_int pid);
      ("tid", string_of_int tid);
      ("args", obj [ ("name", str name_) ]);
    ]

(* [evs] with their {!Span.pairs} drawn in, as (tid, (ts, json)) in
   event order: the begin of each pair but an IPI's becomes the pair's
   X event and its end is dropped; every other event is an instant. *)
let render ~pid ~tid evs pairs =
  let items =
    Array.map
      (fun (ev : Event.t) -> Some (tid ev, (ev.ts, instant_json ~pid ~tid:(tid ev) ev)))
      evs
  in
  List.iter
    (fun ((sp : Span.t), b, e) ->
      if sp.sp_kind <> Span.Ipi then begin
        let tid = tid evs.(b) in
        let name = span_name evs.(b).Event.payload in
        let desc = Event.describe evs.(e).Event.payload in
        items.(b) <- Some (tid, (sp.sp_start, span_json ~pid ~tid ~name ~desc sp));
        items.(e) <- None
      end)
    pairs;
  List.filter_map Fun.id (Array.to_list items)

(* Perfetto and {!validate} require ascending ts within a track. *)
let finish_track items =
  List.stable_sort (fun (a, _) (b, _) -> Int64.compare a b) items
  |> List.map snd

(* One process worth of per-core tracks for [events]. Every key but an
   IPI's names a core, so one pass over the whole stream pairs every
   core track, and its IPI spans are drawn on the sender core's track
   (they end on the receiver's clock). *)
let core_tracks ~pid ~cpus events =
  let evs = Array.of_list events in
  let pairs = Span.pairs evs in
  let ipis =
    List.filter_map
      (fun ((sp : Span.t), _, _) ->
        if sp.sp_kind = Span.Ipi then
          Some
            ( sp.sp_cpu,
              ( sp.sp_start,
                span_json ~pid ~tid:sp.sp_cpu ~name:sp.sp_label
                  ~desc:("ipi " ^ sp.sp_label) sp ) )
        else None)
      pairs
  in
  let items = render ~pid ~tid:(fun (ev : Event.t) -> ev.cpu) evs pairs @ ipis in
  List.concat
    (List.init cpus (fun c ->
         finish_track
           (List.filter_map (fun (t, item) -> if t = c then Some item else None) items)))

(* A task track pairs its own events only: its kernel-key window runs
   from the task's "kernel" key switch to its own next "user" one on
   that core, whichever task the core switched to in between. *)
let task_track ~pid ~tid events =
  let evs = Array.of_list events in
  finish_track (List.map snd (render ~pid ~tid:(fun _ -> tid) evs (Span.pairs evs)))

let serialize hub =
  let events = Hub.events hub in
  let metadata =
    metadata_json ~pid:core_pid ~tid:0 ~meta:"process_name" ~name_:"cores"
    :: metadata_json ~pid:task_pid ~tid:0 ~meta:"process_name" ~name_:"tasks"
    :: List.concat
         (List.init (Hub.cpus hub) (fun c ->
              [
                metadata_json ~pid:core_pid ~tid:c ~meta:"thread_name"
                  ~name_:(Printf.sprintf "cpu%d" c);
              ]))
  in
  let cores = core_tracks ~pid:core_pid ~cpus:(Hub.cpus hub) events in
  let task_pids =
    List.filter_map (fun (e : Event.t) -> Event.pid_of e.payload) events
    |> List.sort_uniq compare
  in
  let task_meta =
    List.map
      (fun p ->
        metadata_json ~pid:task_pid ~tid:p ~meta:"thread_name"
          ~name_:(Printf.sprintf "pid %d" p))
      task_pids
  in
  let task_tracks =
    List.concat_map
      (fun p ->
        task_track ~pid:task_pid ~tid:p
          (List.filter (fun (e : Event.t) -> Event.pid_of e.payload = Some p) events))
      task_pids
  in
  let all = metadata @ task_meta @ cores @ task_tracks in
  "{\"traceEvents\": [\n" ^ String.concat ",\n" all
  ^ "\n], \"displayTimeUnit\": \"ns\"}\n"

(* Fleet view: one process ("lane") per entry, one thread per core that
   appears in the lane's events. Lanes are keyed by the caller (the
   fleet engine passes deterministic trial labels), so the document is
   byte-identical however many workers produced the events. *)
let serialize_lanes lanes =
  let lane_doc idx (label, events) =
    let cpus =
      List.map (fun (e : Event.t) -> e.cpu) events |> List.sort_uniq compare
    in
    let metadata =
      metadata_json ~pid:idx ~tid:0 ~meta:"process_name" ~name_:label
      :: List.map
           (fun c ->
             metadata_json ~pid:idx ~tid:c ~meta:"thread_name"
               ~name_:(Printf.sprintf "cpu%d" c))
           cpus
    in
    let ncpus = List.fold_left (fun acc c -> max acc (c + 1)) 0 cpus in
    metadata @ core_tracks ~pid:idx ~cpus:ncpus events
  in
  let all = List.concat (List.mapi lane_doc lanes) in
  "{\"traceEvents\": [\n" ^ String.concat ",\n" all
  ^ "\n], \"displayTimeUnit\": \"ns\"}\n"

let text ?limit hub =
  let events = Hub.events hub in
  let events =
    match limit with
    | Some n ->
        let len = List.length events in
        if len > n then List.filteri (fun i _ -> i >= len - n) events
        else events
    | None -> events
  in
  let b = Buffer.create 512 in
  List.iter
    (fun ev ->
      Buffer.add_string b (Event.to_string ev);
      Buffer.add_char b '\n')
    events;
  let dropped = Hub.dropped hub in
  if dropped > 0 then
    Buffer.add_string b (Printf.sprintf "(%d older events dropped)\n" dropped);
  Buffer.contents b

let validate text =
  let module Json = Camo_util.Json in
  let ( let* ) = Result.bind in
  let* doc = Json.parse_located text in
  let* events =
    match Json.lmember "traceEvents" doc with
    | Some { Json.v = Json.LList evs; _ } -> Ok evs
    | Some { Json.pos; _ } ->
        Error
          (Printf.sprintf "traceEvents is not an array at %s"
             (Json.position text pos))
    | None -> Error "missing traceEvents"
  in
  let at pos = Json.position text pos in
  let last : (int * int, int64) Hashtbl.t = Hashtbl.create 16 in
  let check i (ev : Json.located) =
    let field name =
      match Json.lmember name ev with
      | Some v -> Ok v
      | None ->
          Error
            (Printf.sprintf "event %d: missing %s at %s" i name (at ev.Json.pos))
    in
    let* name = field "name" in
    let* () =
      match name.Json.v with
      | Json.LStr _ -> Ok ()
      | _ ->
          Error
            (Printf.sprintf "event %d: name is not a string at %s" i
               (at name.Json.pos))
    in
    let* ph = field "ph" in
    let* ph =
      match ph.Json.v with
      | Json.LStr s -> Ok s
      | _ ->
          Error
            (Printf.sprintf "event %d: ph is not a string at %s" i
               (at ph.Json.pos))
    in
    let num name =
      let* v = field name in
      match v.Json.v with
      | Json.LInt n -> Ok (Int64.to_float n, v.Json.pos)
      | Json.LFloat f -> Ok (f, v.Json.pos)
      | _ ->
          Error
            (Printf.sprintf "event %d: %s is not a number at %s" i name
               (at v.Json.pos))
    in
    let* pid, _ = num "pid" in
    let* tid, _ = num "tid" in
    if ph = "M" then Ok ()
    else
      let* ts, ts_pos = num "ts" in
      let* () =
        if ph = "X" then
          let* dur, dur_pos = num "dur" in
          if dur < 0.0 then
            Error
              (Printf.sprintf "event %d: negative dur at %s" i (at dur_pos))
          else Ok ()
        else Ok ()
      in
      let key = (int_of_float pid, int_of_float tid) in
      let ts64 = Int64.of_float ts in
      match Hashtbl.find_opt last key with
      | Some prev when ts64 < prev ->
          Error
            (Printf.sprintf
               "event %d: ts %Ld before %Ld on track (pid %d, tid %d) at %s" i
               ts64 prev (fst key) (snd key) (at ts_pos))
      | _ ->
          Hashtbl.replace last key ts64;
          Ok ()
  in
  let rec go i = function
    | [] -> Ok ()
    | ev :: rest ->
        let* () = check i ev in
        go (i + 1) rest
  in
  go 0 events
