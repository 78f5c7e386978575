
type t = {
  scheme : Modifier.return_scheme;
  mode : Keys.mode;
  protect_pointers : bool;
  bruteforce_threshold : int;
}

let default_threshold = 16

let full =
  {
    scheme = Modifier.Camouflage;
    mode = Keys.Armv83;
    protect_pointers = true;
    bruteforce_threshold = default_threshold;
  }

let backward_only = { full with protect_pointers = false }

let none =
  {
    scheme = Modifier.No_cfi;
    mode = Keys.Armv83;
    protect_pointers = false;
    bruteforce_threshold = default_threshold;
  }

let compat = { full with mode = Keys.Compat }

let named =
  [
    ("full", full);
    ("backward", backward_only);
    ("compat", compat);
    ("none", none);
    ("sp-only", { backward_only with scheme = Modifier.Sp_only });
    ("parts", { backward_only with scheme = Modifier.Parts 0x7357L });
    ("chained", { backward_only with scheme = Modifier.Chained });
  ]

let of_name s = List.assoc_opt s named

let name t =
  let base =
    match (t.scheme, t.protect_pointers) with
    | Modifier.No_cfi, false -> "none"
    | Modifier.No_cfi, true -> "pointer-integrity only"
    | scheme, false -> Printf.sprintf "backward-edge (%s)" (Modifier.scheme_name scheme)
    | scheme, true -> Printf.sprintf "full (%s)" (Modifier.scheme_name scheme)
  in
  match t.mode with
  | Keys.Armv83 -> base
  | Keys.Compat -> base ^ ", v8.0-compatible"
