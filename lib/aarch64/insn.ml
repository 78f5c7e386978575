type reg = R of int | SP | XZR

let fp = R 29
let lr = R 30
let ip0 = R 16
let ip1 = R 17

type cond = Eq | Ne | Lt | Ge | Gt | Le

type amode = Off of reg * int | Pre of reg * int | Post of reg * int

type t =
  | Movz of reg * int * int
  | Movk of reg * int * int
  | Mov of reg * reg
  | Add_imm of reg * reg * int
  | Sub_imm of reg * reg * int
  | Add_reg of reg * reg * reg
  | Sub_reg of reg * reg * reg
  | Subs_reg of reg * reg * reg
  | Subs_imm of reg * reg * int
  | And_reg of reg * reg * reg
  | Orr_reg of reg * reg * reg
  | Eor_reg of reg * reg * reg
  | Lsl_imm of reg * reg * int
  | Lsr_imm of reg * reg * int
  | Bfi of reg * reg * int * int
  | Ubfx of reg * reg * int * int
  | Adr of reg * int64
  | Ldr of reg * amode
  | Str of reg * amode
  | Ldrb of reg * amode
  | Strb of reg * amode
  | Ldp of reg * reg * amode
  | Stp of reg * reg * amode
  | B of int64
  | Bl of int64
  | Br of reg
  | Blr of reg
  | Ret
  | Cbz of reg * int64
  | Cbnz of reg * int64
  | Bcond of cond * int64
  | Pac of Sysreg.pauth_key * reg * reg
  | Aut of Sysreg.pauth_key * reg * reg
  | Pac1716 of Sysreg.pauth_key
  | Aut1716 of Sysreg.pauth_key
  | Xpac of reg
  | Pacga of reg * reg * reg
  | Blra of Sysreg.pauth_key * reg * reg
  | Bra of Sysreg.pauth_key * reg * reg
  | Reta of Sysreg.pauth_key
  | Mrs of reg * Sysreg.t
  | Msr of Sysreg.t * reg
  | Svc of int
  | Eret
  | Isb
  | Nop
  | Brk of int
  | Hlt of int

let reg_name = function
  | R 29 -> "fp"
  | R 30 -> "lr"
  | R n -> Printf.sprintf "x%d" n
  | SP -> "sp"
  | XZR -> "xzr"

let key_name = function
  | Sysreg.IA -> "ia"
  | Sysreg.IB -> "ib"
  | Sysreg.DA -> "da"
  | Sysreg.DB -> "db"
  | Sysreg.GA -> "ga"

let cond_name = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Ge -> "ge"
  | Gt -> "gt"
  | Le -> "le"

let amode_str = function
  | Off (r, 0) -> Printf.sprintf "[%s]" (reg_name r)
  | Off (r, off) -> Printf.sprintf "[%s, #%d]" (reg_name r) off
  | Pre (r, off) -> Printf.sprintf "[%s, #%d]!" (reg_name r) off
  | Post (r, off) -> Printf.sprintf "[%s], #%d" (reg_name r) off

let to_string i =
  let r = reg_name in
  match i with
  | Movz (rd, imm, sh) -> Printf.sprintf "movz %s, #0x%x, lsl #%d" (r rd) imm sh
  | Movk (rd, imm, sh) -> Printf.sprintf "movk %s, #0x%x, lsl #%d" (r rd) imm sh
  | Mov (rd, rn) -> Printf.sprintf "mov %s, %s" (r rd) (r rn)
  | Add_imm (rd, rn, imm) -> Printf.sprintf "add %s, %s, #%d" (r rd) (r rn) imm
  | Sub_imm (rd, rn, imm) -> Printf.sprintf "sub %s, %s, #%d" (r rd) (r rn) imm
  | Add_reg (rd, rn, rm) -> Printf.sprintf "add %s, %s, %s" (r rd) (r rn) (r rm)
  | Sub_reg (rd, rn, rm) -> Printf.sprintf "sub %s, %s, %s" (r rd) (r rn) (r rm)
  | Subs_reg (rd, rn, rm) -> Printf.sprintf "subs %s, %s, %s" (r rd) (r rn) (r rm)
  | Subs_imm (rd, rn, imm) -> Printf.sprintf "subs %s, %s, #%d" (r rd) (r rn) imm
  | And_reg (rd, rn, rm) -> Printf.sprintf "and %s, %s, %s" (r rd) (r rn) (r rm)
  | Orr_reg (rd, rn, rm) -> Printf.sprintf "orr %s, %s, %s" (r rd) (r rn) (r rm)
  | Eor_reg (rd, rn, rm) -> Printf.sprintf "eor %s, %s, %s" (r rd) (r rn) (r rm)
  | Lsl_imm (rd, rn, sh) -> Printf.sprintf "lsl %s, %s, #%d" (r rd) (r rn) sh
  | Lsr_imm (rd, rn, sh) -> Printf.sprintf "lsr %s, %s, #%d" (r rd) (r rn) sh
  | Bfi (rd, rn, lsb, w) -> Printf.sprintf "bfi %s, %s, #%d, #%d" (r rd) (r rn) lsb w
  | Ubfx (rd, rn, lsb, w) -> Printf.sprintf "ubfx %s, %s, #%d, #%d" (r rd) (r rn) lsb w
  | Adr (rd, a) -> Printf.sprintf "adr %s, 0x%Lx" (r rd) a
  | Ldr (rd, m) -> Printf.sprintf "ldr %s, %s" (r rd) (amode_str m)
  | Str (rs, m) -> Printf.sprintf "str %s, %s" (r rs) (amode_str m)
  | Ldrb (rd, m) -> Printf.sprintf "ldrb %s, %s" (r rd) (amode_str m)
  | Strb (rs, m) -> Printf.sprintf "strb %s, %s" (r rs) (amode_str m)
  | Ldp (r1, r2, m) -> Printf.sprintf "ldp %s, %s, %s" (r r1) (r r2) (amode_str m)
  | Stp (r1, r2, m) -> Printf.sprintf "stp %s, %s, %s" (r r1) (r r2) (amode_str m)
  | B a -> Printf.sprintf "b 0x%Lx" a
  | Bl a -> Printf.sprintf "bl 0x%Lx" a
  | Br rn -> Printf.sprintf "br %s" (r rn)
  | Blr rn -> Printf.sprintf "blr %s" (r rn)
  | Ret -> "ret"
  | Cbz (rn, a) -> Printf.sprintf "cbz %s, 0x%Lx" (r rn) a
  | Cbnz (rn, a) -> Printf.sprintf "cbnz %s, 0x%Lx" (r rn) a
  | Bcond (c, a) -> Printf.sprintf "b.%s 0x%Lx" (cond_name c) a
  | Pac (k, rd, rm) -> Printf.sprintf "pac%s %s, %s" (key_name k) (r rd) (r rm)
  | Aut (k, rd, rm) -> Printf.sprintf "aut%s %s, %s" (key_name k) (r rd) (r rm)
  | Pac1716 k -> Printf.sprintf "pac%s1716" (key_name k)
  | Aut1716 k -> Printf.sprintf "aut%s1716" (key_name k)
  | Xpac rd -> Printf.sprintf "xpaci %s" (r rd)
  | Pacga (rd, rn, rm) -> Printf.sprintf "pacga %s, %s, %s" (r rd) (r rn) (r rm)
  | Blra (k, rn, rm) -> Printf.sprintf "blra%s %s, %s" (key_name k) (r rn) (r rm)
  | Bra (k, rn, rm) -> Printf.sprintf "bra%s %s, %s" (key_name k) (r rn) (r rm)
  | Reta k -> Printf.sprintf "reta%s" (key_name k)
  | Mrs (rd, sr) -> Printf.sprintf "mrs %s, %s" (r rd) (Sysreg.name sr)
  | Msr (sr, rn) -> Printf.sprintf "msr %s, %s" (Sysreg.name sr) (r rn)
  | Svc imm -> Printf.sprintf "svc #%d" imm
  | Eret -> "eret"
  | Isb -> "isb"
  | Nop -> "nop"
  | Brk imm -> Printf.sprintf "brk #%d" imm
  | Hlt imm -> Printf.sprintf "hlt #%d" imm

let is_pauth = function
  | Pac _ | Aut _ | Pac1716 _ | Aut1716 _ | Xpac _ | Pacga _ | Blra _ | Bra _ | Reta _ ->
      true
  | Movz _ | Movk _ | Mov _ | Add_imm _ | Sub_imm _ | Add_reg _ | Sub_reg _ | Subs_reg _
  | Subs_imm _ | And_reg _ | Orr_reg _ | Eor_reg _ | Lsl_imm _ | Lsr_imm _ | Bfi _
  | Ubfx _ | Adr _ | Ldr _ | Str _ | Ldrb _ | Strb _ | Ldp _ | Stp _ | B _ | Bl _ | Br _
  | Blr _ | Ret | Cbz _ | Cbnz _ | Bcond _ | Mrs _ | Msr _ | Svc _ | Eret | Isb | Nop
  | Brk _ | Hlt _ ->
      false

let reads_sysreg = function Mrs (_, sr) -> Some sr | _ -> None

let writes_sysreg = function Msr (sr, _) -> Some sr | _ -> None

let amode_base = function Off (r, _) | Pre (r, _) | Post (r, _) -> r

let amode_writeback = function Off _ -> [] | Pre (r, _) | Post (r, _) -> [ r ]

let defs_uses = function
  | Movz (rd, _, _) -> ([ rd ], [])
  | Movk (rd, _, _) -> ([ rd ], [ rd ])
  | Mov (rd, rn) -> ([ rd ], [ rn ])
  | Add_imm (rd, rn, _)
  | Sub_imm (rd, rn, _)
  | Subs_imm (rd, rn, _)
  | Lsl_imm (rd, rn, _)
  | Lsr_imm (rd, rn, _)
  | Ubfx (rd, rn, _, _) ->
      ([ rd ], [ rn ])
  | Add_reg (rd, rn, rm)
  | Sub_reg (rd, rn, rm)
  | Subs_reg (rd, rn, rm)
  | And_reg (rd, rn, rm)
  | Orr_reg (rd, rn, rm)
  | Eor_reg (rd, rn, rm) ->
      ([ rd ], [ rn; rm ])
  | Bfi (rd, rn, _, _) -> ([ rd ], [ rd; rn ])
  | Adr (rd, _) -> ([ rd ], [])
  | Ldr (rd, m) | Ldrb (rd, m) -> (rd :: amode_writeback m, [ amode_base m ])
  | Str (rs, m) | Strb (rs, m) -> (amode_writeback m, [ rs; amode_base m ])
  | Ldp (r1, r2, m) -> (r1 :: r2 :: amode_writeback m, [ amode_base m ])
  | Stp (r1, r2, m) -> (amode_writeback m, [ r1; r2; amode_base m ])
  | B _ | Bcond (_, _) | Svc _ | Eret | Isb | Nop | Brk _ | Hlt _ -> ([], [])
  | Bl _ -> ([ lr ], [])
  | Br rn -> ([], [ rn ])
  | Blr rn -> ([ lr ], [ rn ])
  | Ret -> ([], [ lr ])
  | Cbz (rn, _) | Cbnz (rn, _) -> ([], [ rn ])
  | Pac (_, rd, rm) | Aut (_, rd, rm) -> ([ rd ], [ rd; rm ])
  | Pac1716 _ | Aut1716 _ -> ([ ip1 ], [ ip1; ip0 ])
  | Xpac rd -> ([ rd ], [ rd ])
  | Pacga (rd, rn, rm) -> ([ rd ], [ rn; rm ])
  | Blra (_, rn, rm) -> ([ lr ], [ rn; rm ])
  | Bra (_, rn, rm) -> ([], [ rn; rm ])
  | Reta _ -> ([], [ lr; SP ])
  | Mrs (rd, _) -> ([ rd ], [])
  | Msr (_, rn) -> ([], [ rn ])
