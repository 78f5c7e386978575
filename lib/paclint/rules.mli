(** Pluggable per-scheme rule packs over the whole-image analysis.

    A rule inspects the interprocedural {!Summary.report} and the
    {!Census} and returns diagnostics; a pack is the rule set one
    modifier scheme promises to satisfy. The packs make the analyzer
    ready for the scheme zoo (ROADMAP item 3): adding a scheme means
    writing its discipline down as rules, not patching the lint core. *)

type scheme =
  | Generic  (** no modifier discipline promised (none / compat) *)
  | Sp_only  (** modifier is SP, nothing else *)
  | Parts  (** PARTS: 48-bit global function id + low 16 SP bits *)
  | Camouflage  (** function address + low 32 SP bits *)
  | Chained  (** PACStack-style chain register (x27) *)

val scheme_name : scheme -> string

(** [scheme_of_string] accepts the {!scheme_name} spellings (and
    ["generic"]); [None] otherwise. *)
val scheme_of_string : string -> scheme option

type ctx = {
  scheme : scheme;
  summary : Summary.report;
  census : Census.t;
}

type rule = {
  name : string;
  describes : string;  (** one line, shown by [camouflage lint --gadgets] *)
  check : ctx -> Diag.t list;
}

(** The rule set scheme [s] promises to satisfy. *)
val pack : scheme -> rule list

(** Run the pack for [ctx.scheme]; result is normalized. *)
val run : ctx -> Diag.t list
