(** Verification-oracle sweep (Section 6.2.3).

    A PAC scheme is only as strong as its failure handling: if any code
    path authenticated a pointer and survived a mismatch silently, the
    attacker could use it as an oracle to confirm guesses without paying
    the kill-and-log cost. This sweep corrupts every protected-pointer
    surface in the kernel in turn, triggers its authentication path, and
    checks that the outcome is {e fatal} for the process and {e logged}
    — the two properties the paper's mitigation depends on. *)

type verdict = {
  surface : string;
  fatal : bool;  (** the triggering process was killed (or worse) *)
  logged : bool;  (** a PAC-failure line reached the kernel log *)
}

(** [sweep ()] — boot a fully protected system (seed 2718) per surface
    and report. A sound configuration yields [fatal && logged] on every
    surface. *)
val sweep : unit -> verdict list

(** [all_closed verdicts] — no oracle found. *)
val all_closed : verdict list -> bool

val verdict_to_string : verdict -> string
