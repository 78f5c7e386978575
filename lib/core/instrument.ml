open Aarch64

type t = { name : string; items : Asm.item list }

let scratch = Insn.R 15
(* extra scratch used by the compat sequences; like IP0/IP1 it is
   reserved by the instrumentation convention *)

(* Sign (PAC) or authenticate (AUT) LR under the backward-edge key
   with the scheme's return modifier (Listings 2 and 3). *)
let lr_op op (config : Config.t) ~func_label =
  let materialize ~scratch =
    Modifier.materialize_return config.scheme ~func_label ~dst:Insn.ip0 ~scratch
  in
  let modifier = Modifier.modifier_register config.scheme ~dst:Insn.ip0 in
  match config.mode with
  | Keys.Armv83 ->
      materialize ~scratch:Insn.ip1
      @ Pointer_integrity.pac_op op config Keys.Backward ~ptr:Insn.lr ~modifier
  | Keys.Compat ->
      (* X17 holds LR while the modifier is built in X16 *)
      Pointer_integrity.via_1716 op ~ptr:Insn.lr
        (materialize ~scratch
        @ if modifier = Insn.ip0 then [] else [ Asm.ins (Insn.Mov (Insn.ip0, modifier)) ])

(* The frame record of Listing 1 inside the scheme's LR signing. The
   chained (PACStack-style) frame signs LR under the live chain
   register, spills the previous chain value below the frame record,
   and advances the chain to the newly signed LR. The epilogue restores
   the previous chain before authenticating, so every return is bound
   to the whole call path. *)
let wrap (config : Config.t) ~name body =
  let sign, auth =
    match (config.scheme, config.mode) with
    | Modifier.Chained, Keys.Compat ->
        invalid_arg "Instrument: the chained scheme has no compat encoding"
    | Modifier.No_cfi, _ -> ([], [])
    | (Modifier.Sp_only | Modifier.Parts _ | Modifier.Camouflage | Modifier.Chained), _ ->
        ( lr_op Pointer_integrity.Sign config ~func_label:name,
          lr_op Pointer_integrity.Auth config ~func_label:name )
  in
  let save_chain, restore_chain =
    match config.scheme with
    | Modifier.Chained ->
        ( [
            Asm.ins (Insn.Stp (Modifier.chain_register, Insn.XZR, Insn.Pre (Insn.SP, -16)));
            Asm.ins (Insn.Mov (Modifier.chain_register, Insn.lr));
          ],
          [ Asm.ins (Insn.Ldp (Modifier.chain_register, Insn.XZR, Insn.Post (Insn.SP, 16))) ] )
    | Modifier.No_cfi | Modifier.Sp_only | Modifier.Parts _ | Modifier.Camouflage -> ([], [])
  in
  {
    name;
    items =
      sign
      @ [
          Asm.ins (Insn.Stp (Insn.fp, Insn.lr, Insn.Pre (Insn.SP, -16)));
          Asm.ins (Insn.Mov (Insn.fp, Insn.SP));
        ]
      @ save_chain @ body @ restore_chain
      @ (Asm.ins (Insn.Ldp (Insn.fp, Insn.lr, Insn.Post (Insn.SP, 16))) :: auth)
      @ [ Asm.ins Insn.Ret ];
  }

let wrap_leaf ~name body = { name; items = body @ [ Asm.ins Insn.Ret ] }
