(** Kernel object layouts: byte offsets of the structures the kernel
    code and the host-side orchestration share.

    The protected members (marked [PAC]) are exactly the pointer classes
    of Section 5.3: the ops-table pointer and credential pointer of
    [struct file], the stored stack pointer of a scheduled-out task
    (Section 5.2), lone writable function pointers (notifier/sigaction
    slots), and the callback of [struct work_struct]. *)

module Task : sig
  val off_pid : int
  val off_state : int  (** 0 runnable, 1 dead *)

  val off_kernel_sp : int  (** \[PAC\] signed SP of a scheduled-out task *)

  val off_kstack_base : int
  val off_user_keys : int  (** 5 keys x (hi, lo) = 80 bytes *)

  val off_saved_pc : int
  val off_saved_sp : int
  val off_fd_table : int
  val fd_table_entries : int
  val off_notifiers : int  (** \[PAC\] 8 lone function-pointer slots *)

  val notifier_slots : int
  val off_gprs : int
  val off_cred : int  (** \[PAC\] data pointer to the task's credentials *)

  val size : int  (** allocation size, 8-byte multiple *)
end

module File : sig
  (** For sockets [off_pos] counts bytes available in the rx buffer. *)
  val off_pos : int

  val off_buf : int
  val off_buf_len : int

  val off_f_ops : int  (** \[PAC\] data pointer to the ops table (Listing 4 uses 40) *)

  val off_private : int  (** for sockets: the peer file *)

  val size : int
end

module Fops : sig
  val off_open : int
  val off_read : int  (** Listing 4 loads the read op at offset 16 *)

  val off_write : int
end

module Work : sig
  val off_data : int
  val off_func : int  (** \[PAC\] deferred callback *)
end

module Timer : sig
  val off_expires : int  (** 0 = slot free *)

  val off_func : int  (** \[PAC\] expiry callback *)

  val off_data : int
  val size : int
  val slots : int
end

(** Register every protected member with the pointer-integrity registry;
    idempotent. *)
val register_protected_members : Camouflage.Pointer_integrity.registry -> unit
