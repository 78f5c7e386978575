(** The kernel image, built per protection configuration.

    Produces a {!Kelf.Object_file.t} containing every kernel text
    function (syscall handlers, VFS ops, the context switch, workqueue
    dispatch and helpers), the read-only operations structures and the
    syscall table, the static data (object slabs, pipe, ramfs backing
    store, a [DECLARE_WORK] instance), and the [.pauth_static] entries
    for the statically initialized protected pointers.

    The same builder serves all evaluation variants: full protection,
    backward-edge only, compat, and the uninstrumented baseline —
    the kernel text differs exactly as the paper's compiler flag
    would make it differ. *)

(** Syscall numbers (index into [sys_call_table]). *)
val sys_exit : int

val sys_getpid : int
val sys_read : int
val sys_write : int
val sys_open : int
val sys_close : int
val sys_stat : int
val sys_fstat : int
val sys_notifier_register : int
val sys_notifier_call : int
val sys_pipe_write : int
val sys_pipe_read : int
val sys_fork : int
val sys_vuln_read : int
val sys_vuln_write : int
val sys_getuid : int

(** Hardened-ABI read (Section 8 future work): the buffer pointer must
    be signed by the caller under its DA key. *)
val sys_read_secure : int

val sys_socketpair : int
val sys_poll : int
val sys_timer_set : int
val syscall_count : int

(** [syscall_name nr] — the handler's symbol name (["sys_7"]-style for
    out-of-range numbers); labels syscall spans in the telemetry
    timeline. *)
val syscall_name : int -> string

(** [build config registry] — the kernel object. [registry] must already
    contain the protected members ({!Kobject.register_protected_members}). *)
val build : Camouflage.Config.t -> Camouflage.Pointer_integrity.registry -> Kelf.Object_file.t

(** Kernel symbols exported to loadable modules. *)
val exported_symbols : string list

(** Everything the whole-image static pass produces: normalized
    diagnostics (interprocedural lint + scheme rule pack + raw-body
    reserved-register check), the per-function summaries with the call
    graph, and the modifier-collision gadget census. *)
type lint_report = {
  diags : Paclint.Diag.t list;
  summary : Paclint.Summary.report;
  census : Paclint.Census.t;
}

(** [lint_report ?par ?scheme config] — build the kernel image, assemble
    it at its boot addresses, and run the whole-image interprocedural
    analysis under the policy [config] promises
    ({!Camouflage.Verifier.policy}) and the scheme's rule pack
    ([scheme], default {!Camouflage.Verifier.rules_scheme}). [par]
    (e.g. [Fleet.Pool.map] wrapped in a {!Paclint.Lint.par})
    parallelizes the per-function summary rounds and the census; output
    is byte-identical for any worker count. *)
val lint_report :
  ?par:Paclint.Lint.par ->
  ?scheme:Paclint.Rules.scheme ->
  Camouflage.Config.t ->
  lint_report

(** [lint_module ?par ?scheme config obj] — the whole-image analysis
    over a standalone module object ([camouflage lint --module]): text
    assembled at the module area base, blobs placed after it, kernel
    exports resolved to out-of-module addresses (so calls into the
    kernel take the conservative clobber, as in {!Kelf.Loader}). *)
val lint_module :
  ?par:Paclint.Lint.par ->
  ?scheme:Paclint.Rules.scheme ->
  Camouflage.Config.t ->
  Kelf.Object_file.t ->
  lint_report
