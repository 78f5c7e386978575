module C = Camouflage
module K = Kernel

(* Static/dynamic cross-validation of the gadget census.

   The census's headline claim is that a cross-function (key,
   modifier-class) collision class is a live substitution gadget. The
   replay attack is exactly such a substitution: a return address signed
   in one task's switch frame is planted into a congruent frame of
   another task. So the two must agree per configuration:

   - a scheme whose backward-edge sign sites fall into one SP-dependent
     collision class (sp-only, PARTS with its fixed image id) must both
     be *reported* by the census and *demonstrated* by the attack
     (ACCEPTED);
   - a scheme with address-diversified modifiers (Camouflage) must show
     no such class, and the same attack must die on the AUT (REJECTED).

   A disagreement in either direction is an analyzer bug: a reported
   pair that cannot be demonstrated is a false positive, an undetected
   scheme that accepts the replay is a missed gadget. *)

type verdict = {
  config_name : string;
  predicted_pairs : int;
      (** cross-function substitution pairs in SP-dependent collision
          classes — the frame-replay gadgets the census predicts *)
  outcome : Replay.outcome;
  consistent : bool;
}

let frame_replay_pairs (census : Paclint.Census.t) =
  List.fold_left
    (fun acc (c : Paclint.Census.cls_report) ->
      match c.Paclint.Census.dynamism with
      | Paclint.Diag.Sp_dependent -> acc + c.Paclint.Census.pairs
      | _ -> acc)
    0 census.Paclint.Census.classes

let run ~seed config =
  let report = K.Kbuild.lint_report config in
  let predicted = frame_replay_pairs report.K.Kbuild.census in
  let sys = K.System.boot ~config ~seed () in
  let outcome = Replay.cross_task_switch_frame sys in
  let demonstrated = match outcome with Replay.Accepted _ -> true | _ -> false in
  {
    config_name = C.Config.name config;
    predicted_pairs = predicted;
    outcome;
    consistent = predicted > 0 = demonstrated;
  }

(* The acceptance pair: one colliding scheme demonstrated live, one
   non-colliding scheme whose identical attack must fail. *)
let cross_validate ?(seed = 42L) () =
  [
    run ~seed { C.Config.backward_only with scheme = C.Modifier.Parts 0x7357L };
    run ~seed C.Config.full;
  ]
