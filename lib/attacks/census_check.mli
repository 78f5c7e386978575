(** Static/dynamic cross-validation of the modifier-collision census.

    The census claims a cross-function (key, modifier-class) collision
    class is a live substitution gadget; the cross-task replay attack is
    that substitution performed for real. [run] compares the two on one
    configuration, [cross_validate] on the canonical pair: PARTS (one
    SP-dependent class, replay must be ACCEPTED) and full Camouflage
    (no such class, the same replay must be rejected). *)

type verdict = {
  config_name : string;
  predicted_pairs : int;
      (** cross-function substitution pairs in SP-dependent collision
          classes — the frame-replay gadgets the census predicts *)
  outcome : Replay.outcome;
  consistent : bool;  (** (predicted_pairs > 0) = (outcome is Accepted) *)
}

(** Frame-replay gadget pairs a census predicts (pairs summed over
    SP-dependent collision classes). *)
val frame_replay_pairs : Paclint.Census.t -> int

val cross_validate : ?seed:int64 -> unit -> verdict list
