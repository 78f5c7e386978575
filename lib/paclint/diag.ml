open Aarch64

type severity = Info | Warning | Error

type dynamism = Static | Sp_dependent | Object_dependent

type collision = {
  ckey : Sysreg.pauth_key;
  cls : string;
  sites : int;
  pairs : int;
  dynamism : dynamism;
}

type kind =
  | Key_register_read of Sysreg.t
  | Key_register_write of Sysreg.t
  | Sctlr_write
  | Unprotected_return
  | Unauthenticated_branch of Insn.reg
  | Signing_oracle of Insn.reg
  | Toctou_spill of Insn.reg
  | Modifier_sp_mismatch of int
  | Reserved_clobber of Insn.reg
  | Unresolved_indirect of Insn.reg
  | Modifier_collision of collision
  | Scheme_violation of string

type t = { va : int64; insn : Insn.t; kind : kind }

let severity d =
  match d.kind with
  | Toctou_spill _ | Reserved_clobber _ -> Warning
  | Unresolved_indirect _ -> Info
  | Modifier_collision c -> (
      match c.dynamism with
      | Static -> Error
      | Sp_dependent -> Warning
      | Object_dependent -> Info)
  | Scheme_violation _ -> Warning
  | Key_register_read _ | Key_register_write _ | Sctlr_write | Unprotected_return
  | Unauthenticated_branch _ | Signing_oracle _ | Modifier_sp_mismatch _ ->
      Error

let is_error d = severity d = Error

let severity_name = function Info -> "info" | Warning -> "warning" | Error -> "error"

let kind_name = function
  | Key_register_read _ -> "key-register-read"
  | Key_register_write _ -> "key-register-write"
  | Sctlr_write -> "sctlr-write"
  | Unprotected_return -> "unprotected-return"
  | Unauthenticated_branch _ -> "unauthenticated-branch"
  | Signing_oracle _ -> "signing-oracle"
  | Toctou_spill _ -> "toctou-spill"
  | Modifier_sp_mismatch _ -> "modifier-sp-mismatch"
  | Reserved_clobber _ -> "reserved-clobber"
  | Unresolved_indirect _ -> "unresolved-indirect"
  | Modifier_collision _ -> "modifier-collision"
  | Scheme_violation _ -> "scheme-violation"

let dynamism_name = function
  | Static -> "static"
  | Sp_dependent -> "sp-dependent"
  | Object_dependent -> "object-dependent"

let key_name = function
  | Sysreg.IA -> "IA"
  | Sysreg.IB -> "IB"
  | Sysreg.DA -> "DA"
  | Sysreg.DB -> "DB"
  | Sysreg.GA -> "GA"

let message d =
  match d.kind with
  | Key_register_read sr -> Printf.sprintf "reads PAuth key register %s" (Sysreg.name sr)
  | Key_register_write sr ->
      Printf.sprintf "writes PAuth key register %s outside the audited setter"
        (Sysreg.name sr)
  | Sctlr_write -> "writes SCTLR_EL1 outside the audited setter"
  | Unprotected_return -> "returns through a link register that was never authenticated"
  | Unauthenticated_branch r ->
      Printf.sprintf "indirect branch through %s, which holds an unauthenticated value"
        (Insn.reg_name r)
  | Signing_oracle r ->
      Printf.sprintf "signs %s, whose value was loaded from memory without authentication"
        (Insn.reg_name r)
  | Toctou_spill r ->
      Printf.sprintf "spills authenticated pointer %s back to memory" (Insn.reg_name r)
  | Modifier_sp_mismatch delta ->
      Printf.sprintf "authenticates at SP delta %d, which matches no signing site" delta
  | Reserved_clobber r ->
      Printf.sprintf "function body writes reserved scratch register %s" (Insn.reg_name r)
  | Unresolved_indirect r ->
      Printf.sprintf
        "indirect branch through %s has no statically resolved target; CFG is truncated \
         here"
        (Insn.reg_name r)
  | Modifier_collision c ->
      Printf.sprintf
        "%d %s-key PAC/AUT sites across functions share modifier class %s (%s): %d \
         cross-function substitution-gadget pair%s"
        c.sites (key_name c.ckey) c.cls (dynamism_name c.dynamism) c.pairs
        (if c.pairs = 1 then "" else "s")
  | Scheme_violation msg -> msg

let hint d =
  match d.kind with
  | Key_register_read _ ->
      "key material must never be read back; generate keys inside the audited setter"
  | Key_register_write _ | Sctlr_write ->
      "route key and SCTLR programming through the audited key setter in XOM"
  | Unprotected_return ->
      "sign the link register in the prologue and authenticate it in the epilogue \
       (Instrument.wrap)"
  | Unauthenticated_branch _ ->
      "authenticate the pointer (AUT) or load it through a protected getter before \
       branching"
  | Signing_oracle _ ->
      "authenticate the value before re-signing; a PAC over attacker data is a forgery \
       gadget"
  | Toctou_spill _ ->
      "keep authenticated pointers in registers; re-authenticate after any reload"
  | Modifier_sp_mismatch _ ->
      "restore SP to its value at the signing site before authenticating"
  | Reserved_clobber _ ->
      "x15-x17 are reserved for instrumentation scratch; use another register"
  | Unresolved_indirect _ ->
      "add the target to the symbol table or feed Callgraph a resolvable address \
       materialization (ADR) so the CFG covers the destination"
  | Modifier_collision _ ->
      "diversify the modifier (embed function address or object address) so signed \
       pointers are not substitutable across sites"
  | Scheme_violation _ ->
      "follow the scheme's modifier discipline (see the rule pack for this scheme)"

let to_string d =
  Printf.sprintf "0x%Lx: %s: %s (%s); hint: %s" d.va
    (severity_name (severity d))
    (message d) (Insn.to_string d.insn) (hint d)

(* (va, kind, severity, payload): a total order independent of the order
   the analysis discovered findings in, so reports are byte-stable. *)
let compare a b =
  let c = Int64.compare a.va b.va in
  if c <> 0 then c
  else
    let c = String.compare (kind_name a.kind) (kind_name b.kind) in
    if c <> 0 then c
    else
      let c = Stdlib.compare (severity a) (severity b) in
      if c <> 0 then c else Stdlib.compare a b

let normalize ds =
  let sorted = List.sort compare ds in
  let rec dedup = function
    | a :: b :: rest when a = b -> dedup (b :: rest)
    | a :: rest -> a :: dedup rest
    | [] -> []
  in
  dedup sorted

let to_json d =
  Printf.sprintf
    {|{"va":"0x%Lx","severity":"%s","kind":"%s","insn":"%s","message":"%s","hint":"%s"}|}
    d.va
    (severity_name (severity d))
    (kind_name d.kind)
    (Camo_util.Json.escape (Insn.to_string d.insn))
    (Camo_util.Json.escape (message d))
    (Camo_util.Json.escape (hint d))

let list_to_json ds = "[" ^ String.concat "," (List.map to_json (normalize ds)) ^ "]"
