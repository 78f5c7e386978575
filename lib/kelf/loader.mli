(** Object loading with verification and static-pointer signing.

    Loading an object (the kernel image at boot, a module at run time)
    performs the paper's module-acceptance pipeline:

    + place and relocate text, rodata and data;
    + {e statically verify} the encoded text with the PAC-state lint
      ({!Paclint.Lint}): no reads of PAuth key registers, no key writes
      or SCTLR writes outside the audited key setter (Section 4.1), no
      unprotected returns, unauthenticated indirect branches, signing
      oracles or modifier mismatches under the booted configuration's
      policy — an object with any error-severity diagnostic is rejected
      before any of its code becomes executable; warning-severity
      findings are reported on the accepted [placed];
    + walk the [.pauth_static] section and sign every listed pointer in
      place (Section 4.6);
    + map text executable (and read-only), rodata read-only, data
      read-write, with stage-2 write protection applied by the
      environment's mapping callback. *)

open Aarch64

(** Mapping purposes; the kernel's callback chooses stage-1 and stage-2
    permissions per purpose. *)
type purpose = Text | Rodata | Data

(** The address-space services the kernel provides to the loader. *)
type env = {
  place : text_bytes:int -> rodata_bytes:int -> data_bytes:int -> int64 * int64 * int64;
      (** allocate (text, rodata, data) base addresses *)
  map_region : base:int64 -> bytes:int -> purpose -> unit;
  unmap_region : base:int64 -> bytes:int -> purpose -> unit;
      (** remove a region's mappings, including any stage-2 protection
          installed by [map_region] (module unload) *)
  read32 : int64 -> int32;
  write32 : int64 -> int32 -> unit;
  read64 : int64 -> int64;
  write64 : int64 -> int64 -> unit;
  extra_symbols : (string * int64) list;  (** exported kernel symbols *)
  allowed_key_writer : int64 -> bool;  (** the audited key setter's range *)
}

type placed = {
  object_name : string;
  text_layout : Asm.layout;
  text_base : int64;
  text_bytes : int;
  rodata_base : int64;
  rodata_bytes : int;
  data_base : int64;
  data_bytes : int;
  lint_warnings : Paclint.Diag.t list;
      (** warning-severity lint findings on the accepted text *)
  symbol_table : (string, int64) Hashtbl.t;
      (** the table behind {!symbol}: every text symbol of
          [text_layout] and every rodata/data blob; where a name
          repeats, the first binding wins, text before data *)
}

type error =
  | Verification_failed of Paclint.Diag.t list
      (** error-severity lint diagnostics on the object's text *)
  | Unknown_symbol of string
  | Unknown_member of string * string

(** [load ~cpu ~config ~registry ~env obj]. *)
val load :
  cpu:Cpu.t ->
  config:Camouflage.Config.t ->
  registry:Camouflage.Pointer_integrity.registry ->
  env:env ->
  Object_file.t ->
  (placed, error) result

(** [unload ~env placed] removes the object's text/rodata/data mappings
    through [env.unmap_region]. The caller owns allocation policy; see
    [System.unload_module] for the address-reuse path. *)
val unload : env:env -> placed -> unit

(** [symbol placed name] — text or data symbol address (a text symbol
    shadows a data symbol of the same name), in one hash lookup.
    Raises [Not_found]. *)
val symbol : placed -> string -> int64

val error_to_string : error -> string
