(** Application-level workloads (Figure 4).

    Three workloads spanning the user/kernel ratio spectrum of the
    paper's figure: a JPEG picture resize (predominantly user
    computation), a Debian package build (balanced) and a network
    download (mostly kernel). Each is a composition of EL0 compute
    phases (unmodified user code — the user ABI is preserved, R5) and
    syscall sequences; only the kernel side changes across protection
    configurations. *)

type spec = {
  workload_name : string;
  iterations : int;
  user_ops : int;  (** EL0 compute-loop iterations per workload iteration *)
  syscalls_per_iteration : string list;  (** symbolic, see implementation *)
}

type result = {
  name : string;
  cycles : float array;  (** per configuration, order of {!Lmbench.configs} *)
  relative : float array;
}

(** [run ?seed ()] — all workloads under all of {!Lmbench.configs}. *)
val run : ?seed:int64 -> unit -> result list

(** [geometric_mean_overhead results ~config_index]. *)
val geometric_mean_overhead : result list -> config_index:int -> float
