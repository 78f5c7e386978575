open Aarch64

type member = { type_name : string; member_name : string; offset : int; role : Keys.role }

type registry = {
  by_name : (string * string, int) Hashtbl.t;
  by_constant : (int, member) Hashtbl.t;
  mutable next : int;
}

let create_registry () =
  { by_name = Hashtbl.create 64; by_constant = Hashtbl.create 64; next = 1 }

let register r m =
  let key = (m.type_name, m.member_name) in
  match Hashtbl.find_opt r.by_name key with
  | Some c -> c
  | None ->
      if r.next > 0xffff then invalid_arg "Pointer_integrity.register: constants exhausted";
      let c = r.next in
      r.next <- r.next + 1;
      Hashtbl.add r.by_name key c;
      Hashtbl.add r.by_constant c m;
      c

let constant_of r ~type_name ~member_name =
  match Hashtbl.find_opt r.by_name (type_name, member_name) with
  | Some c -> c
  | None -> raise Not_found

let member_of_constant r c = Hashtbl.find_opt r.by_constant c

let lookup r ~type_name ~member_name =
  let c = constant_of r ~type_name ~member_name in
  match member_of_constant r c with
  | Some m -> (c, m)
  | None -> assert false

(* The AUT/PAC staging depends on the build mode: v8.3 signs in place,
   the compat build must route the pointer through X17 and the modifier
   through X16 for the 1716 hint forms. *)

let auth_insn (config : Config.t) role ~ptr ~modifier =
  match config.mode with
  | Keys.Armv83 -> [ Asm.ins (Insn.Aut (Keys.key_for config.mode role, ptr, modifier)) ]
  | Keys.Compat ->
      [
        Asm.ins (Insn.Mov (Insn.ip1, ptr));
        Asm.ins (Insn.Mov (Insn.ip0, modifier));
        Asm.ins (Insn.Aut1716 Sysreg.IB);
        Asm.ins (Insn.Mov (ptr, Insn.ip1));
      ]

let pac_insn (config : Config.t) role ~ptr ~modifier =
  match config.mode with
  | Keys.Armv83 -> [ Asm.ins (Insn.Pac (Keys.key_for config.mode role, ptr, modifier)) ]
  | Keys.Compat ->
      [
        Asm.ins (Insn.Mov (Insn.ip1, ptr));
        Asm.ins (Insn.Mov (Insn.ip0, modifier));
        Asm.ins (Insn.Pac1716 Sysreg.IB);
        Asm.ins (Insn.Mov (ptr, Insn.ip1));
      ]

let emit_getter config r ~type_name ~member_name ~obj ~dst ~scratch =
  if dst = obj || scratch = obj || dst = scratch then
    invalid_arg "Pointer_integrity.emit_getter: obj, dst and scratch must be distinct";
  let c, m = lookup r ~type_name ~member_name in
  if not config.Config.protect_pointers then
    [ Asm.ins (Insn.Ldr (dst, Insn.Off (obj, m.offset))) ]
  else
    (* Listing 4: ldr; movz; bfi; autdb *)
    Asm.ins (Insn.Ldr (dst, Insn.Off (obj, m.offset)))
    :: Modifier.materialize_pointer ~obj ~constant:c ~dst:scratch
    @ auth_insn config m.role ~ptr:dst ~modifier:scratch

let emit_setter config r ~type_name ~member_name ~obj ~value ~scratch =
  let c, m = lookup r ~type_name ~member_name in
  if not config.Config.protect_pointers then
    [ Asm.ins (Insn.Str (value, Insn.Off (obj, m.offset))) ]
  else
    Modifier.materialize_pointer ~obj ~constant:c ~dst:scratch
    @ pac_insn config m.role ~ptr:value ~modifier:scratch
    @ [ Asm.ins (Insn.Str (value, Insn.Off (obj, m.offset))) ]

let host_key cpu (config : Config.t) role = Cpu.pac_key cpu (Keys.key_for config.mode role)

(* Mirror the machine exactly: a PAC whose key is disabled (or a part
   without PAuth) passes pointers through unchanged. *)
let key_active cpu (config : Config.t) role =
  Cpu.pauth_enabled cpu (Keys.key_for config.mode role)

let sign_value cpu config r ~type_name ~member_name ~obj_addr value =
  if not config.Config.protect_pointers then value
  else if not (key_active cpu config (lookup r ~type_name ~member_name |> snd).role) then
    value
  else begin
    let c, m = lookup r ~type_name ~member_name in
    let modifier = Modifier.pointer_modifier ~obj_addr ~constant:c in
    Pac.compute ~cipher:(Cpu.cipher cpu) ~key:(host_key cpu config m.role)
      ~cfg:(Cpu.pointer_cfg cpu value) ~modifier value
  end

let auth_value cpu config r ~type_name ~member_name ~obj_addr value =
  if not config.Config.protect_pointers then Ok value
  else if not (key_active cpu config (lookup r ~type_name ~member_name |> snd).role) then
    Ok value
  else begin
    let c, m = lookup r ~type_name ~member_name in
    let modifier = Modifier.pointer_modifier ~obj_addr ~constant:c in
    Pac.auth ~cipher:(Cpu.cipher cpu) ~key:(host_key cpu config m.role)
      ~cfg:(Cpu.pointer_cfg cpu value) ~modifier value
  end
