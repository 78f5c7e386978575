(** Function instrumentation: the compiler pass of Section 5.2.

    [wrap] turns a function body into a full function with the frame
    record of Listing 1 and, per configuration, the signing prologue and
    authenticating epilogue of Listing 2 (SP-only) or Listing 3
    (Camouflage). Every instrumented kernel function, [cpu_switch_to]
    included, is built by [wrap].

    Bodies are written without prologue/epilogue and must not touch FP,
    LR, IP0 (X16) or IP1 (X17); control falls off the end of the body
    into the epilogue (single-exit convention). *)

open Aarch64

type t = {
  name : string;
  items : Asm.item list;  (** complete function, ready for [Asm.add_function] *)
}

(** [wrap config ~name body] — instrument one function. Leaf functions
    (no BL/BLR in the body) keep their full frame here, as the kernel
    compiles with frame pointers; see [wrap_leaf] for the
    omit-frame-pointer variant the paper notes is exempt from
    backward-edge overhead. *)
val wrap : Config.t -> name:string -> Asm.item list -> t

(** [wrap_leaf ~name body] — frameless leaf: no frame record, no
    signing (the LR never leaves the register file). *)
val wrap_leaf : name:string -> Asm.item list -> t
