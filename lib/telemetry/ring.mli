(** Bounded per-core event ring. Oldest entries are overwritten once
    [depth] events are live; [dropped] counts the overwrites so a
    truncated trace is never mistaken for a complete one. *)

type t

(** @raise Invalid_argument if [depth <= 0]. *)
val create : depth:int -> t

val push : t -> Event.t -> unit

(** [max 0 (pushed - depth)]. *)
val dropped : t -> int

(** Live events, oldest first. *)
val to_list : t -> Event.t list

(** Ring-content capture for machine snapshots ([restore] requires the
    same depth the capture was taken at). *)
type captured

val capture : t -> captured
val restore : t -> captured -> unit
