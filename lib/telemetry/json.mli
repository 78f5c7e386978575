(** A float-number view of {!Camo_util.Json}, the repository's one
    reader: every number, integral or not, reads back as [Num]. Kept
    for callers written against that shape — the host benchmark reads
    [ci/lint-baseline.json] and escapes its result file through it. *)

type value =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of value list
  | Obj of (string * value) list

val parse : string -> (value, string) result
val member : string -> value -> value option

(** {!Camo_util.Json.escape}. *)
val escape : string -> string
