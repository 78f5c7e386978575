(** Kernel PAuth key allocation (Sections 4.5 and 5.5 of the paper).

    The full implementation uses three of the five keys: one instruction
    key for backward-edge CFI, the other instruction key for
    forward-edge CFI, and one data key for DFI. The
    backwards-compatible build can only use the B instruction key (the
    PACIB1716/AUTIB1716 hint instructions are NOPs on pre-8.3 parts and
    no such forms exist for data keys), so there the same key protects
    instruction and data pointers. *)

open Aarch64

type role = Backward | Forward | Data

(** [Armv83] emits v8.3-only machine code; [Compat] restricts itself to
    encodings that are NOPs on older processors. *)
type mode = Armv83 | Compat

(** [key_for mode role] — the architectural key used for [role]. *)
val key_for : mode -> role -> Sysreg.pauth_key

(** [keys_in_use mode] — the distinct keys the kernel must provision and
    switch on kernel entry/exit (3 for [Armv83], 1 for [Compat]). *)
val keys_in_use : mode -> Sysreg.pauth_key list

(** [missing_keys ~expected ~read] — per-CPU install check: probe one
    core's key registers through [read] and report the keys whose
    registers do not hold the [expected] material. An SMP kernel runs
    this per core after bring-up; a non-empty result means the core
    skipped the XOM setter and its first authenticated return will
    fault. *)
val missing_keys :
  expected:(Sysreg.pauth_key * Pac.key) list ->
  read:(Sysreg.pauth_key -> Pac.key) ->
  Sysreg.pauth_key list
