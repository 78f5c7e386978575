(** The bootloader's audited key-management code (Sections 4.1 and 5.1).

    The kernel PAuth keys are generated by the bootloader's PRNG and
    burned as MOVZ/MOVK immediates into a generated setter function.
    The page holding that function is mapped execute-only by the
    hypervisor's stage-2 tables, so the keys can be installed at native
    speed on every kernel entry — without trapping to EL2 — yet cannot
    be read by any EL0/EL1 software, and the function clears its
    working registers before returning.

    The companion [user_key_restore] routine reloads the previous user
    keys from the task structure on kernel exit; it is the only other
    code allowed to write key registers, and lives on the same audited
    page. *)

open Aarch64

type t = {
  kernel_keys : (Sysreg.pauth_key * Pac.key) list;  (** host-side mirror, for tests *)
  setter_addr : int64;  (** [kernel_key_setter ()] *)
  restore_addr : int64;  (** [user_key_restore (task)] *)
  uaccess_authda_addr : int64;
      (** [uaccess_authda (ptr, task, modifier)] — authenticate a
          user-signed pointer under the task's DA key: the hardened
          syscall ABI of the paper's future work (Section 8) *)
  base : int64;
  bytes : int;
}

(** [install cpu hyp ~rng ~mode] generates keys for [Keys.keys_in_use
    mode], synthesizes and places both routines at {!Layout.xom_base},
    and applies the stage-2 execute-only protection. *)
val install :
  Cpu.t -> Hypervisor.t -> rng:Camo_util.Rng.t -> mode:Camouflage.Keys.mode -> t

(** [allowed_key_writer t va] — the audited-range predicate for the
    static verifier. *)
val allowed_key_writer : t -> int64 -> bool
