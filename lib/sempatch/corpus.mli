(** Synthetic kernel-source corpus generator.

    Real Linux 5.2 sources are unavailable offline, so the corpus is
    drawn to the distribution the paper reports for it: 504 compound
    types with function-pointer members assigned at run time, 1285 such
    members in total, 229 types holding more than one. Around these
    targets the generator adds realistic noise — operations-structure
    types initialized only statically (never assigned at run time),
    plain-data types, and functions that merely read or call the
    pointers — so the analysis must actually discriminate, not just
    count everything. *)

type calibration = {
  single_member_types : int;  (** types with exactly 1 runtime-assigned fptr *)
  multi_member_types : int;  (** types with > 1 *)
  total_members : int;  (** across all of the above *)
  static_ops_types : int;  (** noise: ops structs only statically initialized *)
  plain_types : int;  (** noise: no function pointers at all *)
}

(** [generate ~seed ()] — a deterministic corpus of the Linux 5.2
    shape (275 + 229 types, 1285 members). *)
val generate : seed:int64 -> unit -> Cast.corpus
