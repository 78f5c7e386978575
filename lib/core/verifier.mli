(** Static code verification (Sections 4.1 and 6.2.2).

    The kernel never needs to read its PAuth keys, only to set them from
    one audited function. The key-access rule itself lives in
    {!Paclint.Lint.key_access}; [policy] derives the full lint policy
    from a {!Config.t} so the loader and kernel build can run every
    paclint rule, not just this one. *)

(** [policy ?allowed config] — the {!Paclint.Lint.policy} a code region
    built under [config] must satisfy: return protection for any scheme
    but [No_cfi], pointer rules iff [config.protect_pointers], SP
    modifier pairing for the SP-embedding schemes ([Sp_only], [Parts],
    [Camouflage]). [allowed] marks the audited key setter (default:
    nothing is allowed). *)
val policy : ?allowed:(int64 -> bool) -> Config.t -> Paclint.Lint.policy

(** [rules_scheme config] — the {!Paclint.Rules.scheme} whose rule pack
    the configured modifier scheme promises to satisfy. *)
val rules_scheme : Config.t -> Paclint.Rules.scheme
