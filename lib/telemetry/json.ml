module J = Camo_util.Json

type value =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of value list
  | Obj of (string * value) list

let rec of_json : J.t -> value = function
  | J.Null -> Null
  | J.Bool b -> Bool b
  | J.Int i -> Num (Int64.to_float i)
  | J.Float f -> Num f
  | J.Str s -> Str s
  | J.List l -> List (List.map of_json l)
  | J.Obj kvs -> Obj (List.map (fun (k, v) -> (k, of_json v)) kvs)

let parse text = Result.map of_json (J.parse text)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

include (J : sig val escape : string -> string end)
