(* Log-bucketed latency histogram in the HDR style: 32 sub-buckets per
   power-of-two octave, so every recorded value lands in a bucket whose
   width is at most 1/32 (~3.1%) of its lower bound. Values below 32
   get unit buckets and are exact. Counts are int64 and the merge is
   an exact bucket-wise add, which makes (empty, merge) a commutative
   monoid — the property the fleet engine's index-order fold relies
   on, mirroring [Counters.merge].

   Buckets are stored sparsely: a fleet campaign holds one histogram
   per in-flight trial until the index-order fold, and a trial touches
   a few dozen buckets, not the whole 2048-slot index space. *)

let sub_bucket_bits = 5
let sub_bucket_count = 1 lsl sub_bucket_bits (* 32 *)

(* Highest index reachable from a 62-bit value is well under 2048
   ((62 - 5 + 1) octaves of 32 buckets); values indexing past the end
   clamp into the last bucket. *)
let bucket_count = 2048

type t = {
  buckets : (int, int64) Hashtbl.t;  (* only non-zero counts present *)
  mutable total : int64;
  mutable sum : int64;
  (* min/max carry identity-friendly sentinels while empty so [merge]
     needs no empty-case branches: min x max_int = x, max x (-1) = x. *)
  mutable min_v : int64;
  mutable max_v : int64;
}

let create () =
  {
    buckets = Hashtbl.create 16;
    total = 0L;
    sum = 0L;
    min_v = Int64.max_int;
    max_v = -1L;
  }

let empty = create ()

(* floor(log2 v) for v >= 1 *)
let log2_floor v =
  let rec go e v = if v <= 1 then e else go (e + 1) (v lsr 1) in
  go 0 v

let index_of v =
  if v < sub_bucket_count then v
  else
    let e = log2_floor v in
    let sub = (v lsr (e - sub_bucket_bits)) - sub_bucket_count in
    let idx = ((e - sub_bucket_bits + 1) * sub_bucket_count) + sub in
    min idx (bucket_count - 1)

(* Lower bound of bucket [idx] — the value {!percentile} reports. *)
let bucket_low idx =
  if idx < sub_bucket_count then Int64.of_int idx
  else
    let octave = idx / sub_bucket_count and sub = idx mod sub_bucket_count in
    Int64.of_int ((sub_bucket_count + sub) lsl (octave - 1))

let bump t idx by =
  let prev = Option.value ~default:0L (Hashtbl.find_opt t.buckets idx) in
  Hashtbl.replace t.buckets idx (Int64.add prev by)

let record t v =
  let v = if Int64.compare v 0L < 0 then 0L else v in
  bump t (index_of (Int64.to_int v)) 1L;
  t.total <- Int64.succ t.total;
  t.sum <- Int64.add t.sum v;
  if Int64.compare v t.min_v < 0 then t.min_v <- v;
  if Int64.compare v t.max_v > 0 then t.max_v <- v

let count t = t.total
let is_empty t = t.total = 0L
let sum t = t.sum
let min_value t = if is_empty t then 0L else t.min_v
let max_value t = if is_empty t then 0L else t.max_v

(* Canonical view: non-zero (index, count) pairs sorted by index. *)
let sorted_buckets t =
  Hashtbl.fold (fun i c acc -> if c = 0L then acc else (i, c) :: acc) t.buckets []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let merge a b =
  let m = create () in
  Hashtbl.iter (fun i c -> bump m i c) a.buckets;
  Hashtbl.iter (fun i c -> bump m i c) b.buckets;
  m.total <- Int64.add a.total b.total;
  m.sum <- Int64.add a.sum b.sum;
  m.min_v <- (if Int64.compare a.min_v b.min_v < 0 then a.min_v else b.min_v);
  m.max_v <- (if Int64.compare a.max_v b.max_v > 0 then a.max_v else b.max_v);
  m

let equal a b =
  a.total = b.total && a.sum = b.sum && a.min_v = b.min_v && a.max_v = b.max_v
  && sorted_buckets a = sorted_buckets b

(* Value at quantile [q] (0 < q <= 1): walk the buckets to the rank
   ceil(q * count) and report that bucket's lower bound — exact below
   32, within one sub-bucket (<= 1/32 relative error) above. *)
let percentile t q =
  if is_empty t then 0L
  else begin
    let rank =
      let r = Int64.of_float (ceil (q *. Int64.to_float t.total)) in
      if Int64.compare r 1L < 0 then 1L
      else if Int64.compare r t.total > 0 then t.total
      else r
    in
    let rec walk acc = function
      | [] -> t.max_v
      | (i, c) :: rest ->
          let acc = Int64.add acc c in
          if Int64.compare acc rank >= 0 then bucket_low i else walk acc rest
    in
    walk 0L (sorted_buckets t)
  end

let p50 t = percentile t 0.50
let p90 t = percentile t 0.90
let p99 t = percentile t 0.99
let p999 t = percentile t 0.999

(* Byte-stable rendering: fixed field order, buckets as sorted
   [index, count] pairs with zero buckets elided. *)
let to_json t =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"count\": %Ld, \"sum\": %Ld, \"min\": %Ld, \"max\": %Ld, \
        \"p50\": %Ld, \"p90\": %Ld, \"p99\": %Ld, \"p999\": %Ld, \
        \"buckets\": ["
       t.total t.sum (min_value t) (max_value t) (p50 t) (p90 t) (p99 t)
       (p999 t));
  List.iteri
    (fun n (i, c) ->
      if n > 0 then Buffer.add_string b ", ";
      Buffer.add_string b (Printf.sprintf "[%d, %Ld]" i c))
    (sorted_buckets t);
  Buffer.add_string b "]}";
  Buffer.contents b
