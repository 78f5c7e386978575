(** Fixture modules for [camouflage modgen] / [camouflage lint --module].

    Built with the real instrumentation pass under the given
    configuration, so the prologue/epilogue shapes match what the kernel
    build emits. *)

(** The interprocedural detection fixture: a cross-function signing
    oracle ([cap_make] loads an attacker-writable word and passes it to
    [cap_sign]'s PAC), plus — under non-address-diversified schemes — a
    cross-function modifier-collision pair between the two prologues.
    Both findings need whole-module analysis; per-function region lint
    sees nothing. *)
val oracle : Camouflage.Config.t -> Object_file.t

(** [(basename, object)] pairs of every fixture. *)
val all : Camouflage.Config.t -> (string * Object_file.t) list
