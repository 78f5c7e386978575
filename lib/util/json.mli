(** The repository's one JSON reader and string escaper.

    Everything that consumes JSON — replay logs, the [camouflage serve]
    wire protocol, the Chrome trace validator, the lint baseline —
    parses through here, and every hand-rolled writer that embeds
    free-form strings (campaign reports, replay logs, lint diagnostics
    and census, serve responses, Chrome traces, bench metrics) escapes
    them with {!escape}. The writers keep their own byte-stable
    layouts; this module is their common inverse.

    Recursive descent, no dependencies, strict: trailing garbage, raw
    control characters in strings, malformed numbers and nesting deeper
    than 512 levels are errors. Numbers without a fraction or exponent
    are kept as exact [int64]s so seeds survive the round trip. *)

type t =
  | Null
  | Bool of bool
  | Int of int64
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** Position-annotated tree: [pos] is the byte offset of the value's
    first character in the parsed text, so validators can blame the
    exact source location of a semantic error. *)
type located = { v : lvalue; pos : int }

and lvalue =
  | LNull
  | LBool of bool
  | LInt of int64
  | LFloat of float
  | LStr of string
  | LList of located list
  | LObj of (string * located) list

(** [parse_located s] — parse one JSON value, keeping the byte offset
    of every value. Trailing non-whitespace is an error. Errors carry a
    short description plus the {!position} of the failure. *)
val parse_located : string -> (located, string) result

(** [parse s] — {!parse_located} with the positions stripped. *)
val parse : string -> (t, string) result

(** ["line %d, column %d (offset %d)"] for a byte offset. *)
val position : string -> int -> string

(** [escape s] — [s] ready to embed between JSON quotes: the double
    quote, backslash, newline, tab and carriage return by their
    two-character names, other bytes below 0x20 as [\u00XX], everything
    else verbatim. *)
val escape : string -> string

(** [member name v] — field lookup in an [Obj]; [None] for absent
    fields and non-objects. *)
val member : string -> t -> t option

(** {!member} on the position-annotated tree. *)
val lmember : string -> located -> located option

val to_int : t -> int option
val to_int64 : t -> int64 option
val to_string : t -> string option
val to_bool : t -> bool option
