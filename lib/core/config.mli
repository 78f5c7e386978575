(** Build-time configuration of the Camouflage protection.

    Mirrors the paper's evaluated variants: full protection
    (backward-edge CFI + forward-edge CFI + DFI), backward-edge only,
    and no instrumentation — the three bars of Figures 3 and 4 — plus
    the ARMv8.0 binary-compatibility mode of Section 5.5. *)


type t = {
  scheme : Modifier.return_scheme;  (** backward-edge modifier scheme *)
  mode : Keys.mode;
  protect_pointers : bool;  (** forward-edge CFI + DFI get/set instrumentation *)
  bruteforce_threshold : int;
      (** PAC failures tolerated system-wide before panic (Section 5.4) *)
}

(** Full protection with the Camouflage modifier. *)
val full : t

(** Backward-edge CFI only (middle bars of Figures 3 and 4). *)
val backward_only : t

(** Uninstrumented baseline. *)
val none : t

(** Full protection constrained to backwards-compatible encodings. *)
val compat : t

(** The seven configurations the front ends name, by the token the
    CLI's [-c] and serve's ["config"] field take: [full], [backward],
    [compat], [none], and [backward] with the [sp-only], [parts]
    (modifier 0x7357) or [chained] return scheme. *)
val named : (string * t) list

(** [of_name s] — the configuration {!named} [s]. *)
val of_name : string -> t option

val name : t -> string
