(** Unified pointer integrity: forward-edge CFI and DFI (Sections 4.3,
    4.4, 4.5 and 5.3).

    Selected pointer members of kernel compound types are signed in
    place. The modifier binds the PAC to the containing object's address
    (48 bits) and a 16-bit constant unique to the (type, member) pair,
    so a signed pointer cannot be replayed at another address or into a
    differently-typed field. The same construction protects lone
    writable function pointers (forward-edge CFI) and data pointers to
    read-only operations tables such as [file->f_ops] (DFI).

    [emit_getter]/[emit_setter] generate the inline accessor sequences
    of Listing 4 — what the paper's Coccinelle patch substitutes for
    direct member access; [sign_value]/[auth_value] are the host-side
    mirrors used by kernel bookkeeping and tests. *)

open Aarch64

type member = {
  type_name : string;
  member_name : string;
  offset : int;  (** byte offset of the member within the object *)
  role : Keys.role;  (** [Forward] for function pointers, [Data] for ops-table pointers *)
}

type registry

val create_registry : unit -> registry

(** [register r member] assigns the 16-bit type/member constant.
    Registering the same (type, member) twice returns the same constant.
    Raises [Invalid_argument] after 65535 distinct members. *)
val register : registry -> member -> int

(** [constant_of r ~type_name ~member_name] — raises [Not_found] if the
    member was never registered. *)
val constant_of : registry -> type_name:string -> member_name:string -> int

val member_of_constant : registry -> int -> member option

(** A PAC-family operation: sign (PAC) or authenticate (AUT). *)
type op = Sign | Auth

(** [pac_op op config role ~ptr ~modifier] — sign or authenticate the
    pointer in [ptr], in place, under [role]'s key with the modifier in
    [modifier]: one PAC or AUT on ARMv8.3, {!via_1716} in the compat
    build. *)
val pac_op :
  op -> Config.t -> Keys.role -> ptr:Insn.reg -> modifier:Insn.reg -> Asm.item list

(** [via_1716 op ~ptr stage_modifier] — the compat build's staging,
    since only the 1716 hint forms are NOPs on ARMv8.0: copy [ptr] to
    X17, run [stage_modifier] (which must leave the modifier in X16),
    PACIB1716 or AUTIB1716, and copy X17 back to [ptr]. *)
val via_1716 : op -> ptr:Insn.reg -> Asm.item list -> Asm.item list

(** [emit_getter config r ~type_name ~member_name ~obj ~dst ~scratch] —
    load the signed member from the object in [obj], authenticate it
    into [dst]. [scratch] is clobbered with the modifier. *)
val emit_getter :
  Config.t ->
  registry ->
  type_name:string ->
  member_name:string ->
  obj:Insn.reg ->
  dst:Insn.reg ->
  scratch:Insn.reg ->
  Asm.item list

(** [emit_setter config r ~type_name ~member_name ~obj ~value ~scratch] —
    sign the pointer in [value] (clobbering it) and store it into the
    member. *)
val emit_setter :
  Config.t ->
  registry ->
  type_name:string ->
  member_name:string ->
  obj:Insn.reg ->
  value:Insn.reg ->
  scratch:Insn.reg ->
  Asm.item list

(** [sign_value cpu config r ~type_name ~member_name ~obj_addr value] —
    host-side signing, using the keys currently installed in [cpu]. *)
val sign_value :
  Cpu.t ->
  Config.t ->
  registry ->
  type_name:string ->
  member_name:string ->
  obj_addr:int64 ->
  int64 ->
  int64

(** [auth_value cpu config r ~type_name ~member_name ~obj_addr value] —
    [Ok stripped] or [Error poisoned]. *)
val auth_value :
  Cpu.t ->
  Config.t ->
  registry ->
  type_name:string ->
  member_name:string ->
  obj_addr:int64 ->
  int64 ->
  (int64, int64) result
