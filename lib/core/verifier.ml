let policy ?(allowed = fun _ -> false) (config : Config.t) =
  {
    Paclint.Lint.protect_return = config.scheme <> Modifier.No_cfi;
    protect_pointers = config.protect_pointers;
    sp_modifier =
      (match config.scheme with
      | Modifier.Sp_only | Modifier.Parts _ | Modifier.Camouflage -> true
      | Modifier.No_cfi | Modifier.Chained -> false);
    allowed_key_writer = allowed;
  }

let rules_scheme (config : Config.t) =
  match config.scheme with
  | Modifier.No_cfi -> Paclint.Rules.Generic
  | Modifier.Sp_only -> Paclint.Rules.Sp_only
  | Modifier.Parts _ -> Paclint.Rules.Parts
  | Modifier.Camouflage -> Paclint.Rules.Camouflage
  | Modifier.Chained -> Paclint.Rules.Chained
