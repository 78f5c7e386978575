(** Modifier-collision gadget census over a whole image.

    Camouflage's security argument is modifier diversity: a signed
    pointer is substitutable only by a pointer signed under the same
    (key, modifier) pair. The census makes that measurable. Every
    PAC/AUT site in the image is assigned a canonical
    modifier-expression class by a per-block constant/shape analysis
    (immediates, ADR address materializations, SP, BFI compositions,
    run-time values), then sites are partitioned by (key, class). A
    class whose sites span more than one function is a collision class:
    each cross-function (sign, auth) pair is a substitution gadget — a
    pointer signed at one site authenticates at the other whenever the
    dynamic parts of the modifier coincide, with probability
    2^-(dynamic bits). *)

open Aarch64

(** Canonical modifier-expression shapes. [Dyn] is any run-time value
    (loads, arguments, call results); SP deltas are deliberately folded
    into one [Sp] class — stack pointers from different frames can
    coincide at run time, which is exactly the PARTS-style collision the
    census exists to count. *)
type mexpr =
  | Imm of int64
  | Addr of int64
  | Sp
  | Dyn
  | Bfi_of of mexpr * mexpr * int * int  (** base, inserted, lsb, width *)

type direction = Sign | Auth

type site = {
  va : int64;
  insn : Insn.t;
  fn : int64;  (** entry of the containing function *)
  fn_name : string option;
  skey : Sysreg.pauth_key;
  dir : direction;
  modifier : mexpr;
  cls : string;  (** canonical class string of [modifier] *)
}

type cls_report = {
  ckey : Sysreg.pauth_key;
  cls : string;
  dynamism : Diag.dynamism;
  sign_sites : int;
  auth_sites : int;
  fn_count : int;  (** distinct functions containing sites *)
  pairs : int;  (** cross-function (sign, auth) gadget pairs *)
  dynamic_bits : int;  (** modifier bits not fixed statically *)
  first_sign : (int64 * Insn.t) option;  (** lowest sign site, for diags *)
}

type t = {
  sites : site list;  (** ascending va *)
  classes : cls_report list;  (** ascending (key, class) *)
}

(** [2. ** -. dynamic_bits] — the probability a pointer signed at one
    site of the class authenticates at another with uncorrelated dynamic
    context. 1.0 for a static class. *)
val forgery_probability : cls_report -> float

(** [run summary] — extract sites per function from the CFGs
    {!Summary.analyze_image} built, and partition them into classes. *)
val run : Summary.report -> t

(** Collision classes (sites in ≥ 2 functions, ≥ 1 gadget pair) as
    {!Diag.Modifier_collision} findings anchored at the class's lowest
    sign site. *)
val to_diags : t -> Diag.t list

(** Byte-stable JSON: class table then full site listing. *)
val to_json : t -> string

(** Human-readable class table (one line per class). *)
val table : t -> string
