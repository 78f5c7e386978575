open Aarch64

type t = { name : string; items : Asm.item list }

let scratch = Insn.R 15
(* extra scratch used by the compat sequences; like IP0/IP1 it is
   reserved by the instrumentation convention *)

let sign_lr (config : Config.t) ~func_label =
  match config.mode with
  | Keys.Armv83 ->
      let key = Keys.key_for config.mode Keys.Backward in
      Modifier.materialize_return config.scheme ~func_label ~dst:Insn.ip0
        ~scratch:Insn.ip1
      @ [
          Asm.ins
            (Insn.Pac (key, Insn.lr, Modifier.modifier_register config.scheme ~dst:Insn.ip0));
        ]
  | Keys.Compat ->
      (* Only the 1716 hint forms are NOPs on ARMv8.0, and they operate
         on X17 with X16 as modifier, so LR and the modifier must be
         staged through those registers. *)
      let mat =
        Modifier.materialize_return config.scheme ~func_label ~dst:Insn.ip0 ~scratch
      in
      let set_modifier =
        match config.scheme with
        | Modifier.No_cfi | Modifier.Sp_only -> [ Asm.ins (Insn.Mov (Insn.ip0, Insn.SP)) ]
        | Modifier.Parts _ | Modifier.Camouflage -> mat
        | Modifier.Chained ->
            invalid_arg "Instrument: the chained scheme has no compat encoding"
      in
      (Asm.ins (Insn.Mov (Insn.ip1, Insn.lr)) :: set_modifier)
      @ [ Asm.ins (Insn.Pac1716 Sysreg.IB); Asm.ins (Insn.Mov (Insn.lr, Insn.ip1)) ]

let auth_lr (config : Config.t) ~func_label =
  match config.mode with
  | Keys.Armv83 ->
      let key = Keys.key_for config.mode Keys.Backward in
      Modifier.materialize_return config.scheme ~func_label ~dst:Insn.ip0
        ~scratch:Insn.ip1
      @ [
          Asm.ins
            (Insn.Aut (key, Insn.lr, Modifier.modifier_register config.scheme ~dst:Insn.ip0));
        ]
  | Keys.Compat ->
      let mat =
        Modifier.materialize_return config.scheme ~func_label ~dst:Insn.ip0 ~scratch
      in
      let set_modifier =
        match config.scheme with
        | Modifier.No_cfi | Modifier.Sp_only -> [ Asm.ins (Insn.Mov (Insn.ip0, Insn.SP)) ]
        | Modifier.Parts _ | Modifier.Camouflage -> mat
        | Modifier.Chained ->
            invalid_arg "Instrument: the chained scheme has no compat encoding"
      in
      (Asm.ins (Insn.Mov (Insn.ip1, Insn.lr)) :: set_modifier)
      @ [ Asm.ins (Insn.Aut1716 Sysreg.IB); Asm.ins (Insn.Mov (Insn.lr, Insn.ip1)) ]

let protected (config : Config.t) =
  match config.scheme with
  | Modifier.No_cfi -> false
  | Modifier.Sp_only | Modifier.Parts _ | Modifier.Camouflage | Modifier.Chained -> true

(* The chained (PACStack-style) frame: sign LR under the live chain
   register, spill the previous chain value below the frame record, and
   advance the chain to the newly signed LR. The epilogue restores the
   previous chain before authenticating, so every return is bound to the
   whole call path. *)
let chained_push key =
  [
    Asm.ins (Insn.Pac (key, Insn.lr, Modifier.chain_register));
    Asm.ins (Insn.Stp (Insn.fp, Insn.lr, Insn.Pre (Insn.SP, -16)));
    Asm.ins (Insn.Mov (Insn.fp, Insn.SP));
    Asm.ins (Insn.Stp (Modifier.chain_register, Insn.XZR, Insn.Pre (Insn.SP, -16)));
    Asm.ins (Insn.Mov (Modifier.chain_register, Insn.lr));
  ]

let chained_pop key =
  [
    Asm.ins (Insn.Ldp (Modifier.chain_register, Insn.XZR, Insn.Post (Insn.SP, 16)));
    Asm.ins (Insn.Ldp (Insn.fp, Insn.lr, Insn.Post (Insn.SP, 16)));
    Asm.ins (Insn.Aut (key, Insn.lr, Modifier.chain_register));
  ]

let frame_push config ~func_label =
  match (config.Config.scheme, config.Config.mode) with
  | Modifier.Chained, Keys.Armv83 ->
      chained_push (Keys.key_for config.Config.mode Keys.Backward)
  | Modifier.Chained, Keys.Compat ->
      invalid_arg "Instrument: the chained scheme has no compat encoding"
  | (Modifier.No_cfi | Modifier.Sp_only | Modifier.Parts _ | Modifier.Camouflage), _ ->
      (if protected config then sign_lr config ~func_label else [])
      @ [
          Asm.ins (Insn.Stp (Insn.fp, Insn.lr, Insn.Pre (Insn.SP, -16)));
          Asm.ins (Insn.Mov (Insn.fp, Insn.SP));
        ]

let frame_pop config ~func_label =
  match (config.Config.scheme, config.Config.mode) with
  | Modifier.Chained, Keys.Armv83 ->
      chained_pop (Keys.key_for config.Config.mode Keys.Backward)
  | Modifier.Chained, Keys.Compat ->
      invalid_arg "Instrument: the chained scheme has no compat encoding"
  | (Modifier.No_cfi | Modifier.Sp_only | Modifier.Parts _ | Modifier.Camouflage), _ ->
      Asm.ins (Insn.Ldp (Insn.fp, Insn.lr, Insn.Post (Insn.SP, 16)))
      :: (if protected config then auth_lr config ~func_label else [])

let wrap config ~name body =
  {
    name;
    items = frame_push config ~func_label:name @ body
            @ frame_pop config ~func_label:name
            @ [ Asm.ins Insn.Ret ];
  }

let wrap_leaf ~name body = { name; items = body @ [ Asm.ins Insn.Ret ] }
