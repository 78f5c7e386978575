type t = { sinks : Sink.t array }

let create ~cpus () =
  if cpus <= 0 then invalid_arg "Hub.create: cpus";
  { sinks = Array.init cpus (fun cpu -> Sink.create ~cpu ()) }

let cpus t = Array.length t.sinks
let sink t i = t.sinks.(i)

let counters t =
  Array.fold_left
    (fun acc s -> Counters.merge acc (Counters.snapshot (Sink.counters s)))
    Counters.zero t.sinks

let per_cpu t =
  Array.map (fun s -> Counters.snapshot (Sink.counters s)) t.sinks

let events t =
  Array.to_list t.sinks
  |> List.concat_map (fun s -> Ring.to_list (Sink.ring s))
  |> List.stable_sort (fun (a : Event.t) (b : Event.t) ->
         match Int64.compare a.ts b.ts with
         | 0 -> compare a.cpu b.cpu
         | c -> c)

let histograms t = Span.histograms (events t)

let dropped t =
  Array.fold_left (fun acc s -> acc + Ring.dropped (Sink.ring s)) 0 t.sinks

type captured = { c_sinks : Sink.captured array }

let capture t = { c_sinks = Array.map Sink.capture t.sinks }
let restore t c = Array.iteri (fun i s -> Sink.restore t.sinks.(i) s) c.c_sinks
