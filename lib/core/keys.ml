open Aarch64

type role = Backward | Forward | Data

type mode = Armv83 | Compat

(* Listing 3 signs return addresses with PACIB and Listing 4
   authenticates operations pointers with AUTDB; the remaining
   instruction key IA serves forward-edge CFI. *)
let key_for mode role =
  match (mode, role) with
  | Armv83, Backward -> Sysreg.IB
  | Armv83, Forward -> Sysreg.IA
  | Armv83, Data -> Sysreg.DB
  | Compat, (Backward | Forward | Data) -> Sysreg.IB

let keys_in_use = function
  | Armv83 -> [ Sysreg.IB; Sysreg.IA; Sysreg.DB ]
  | Compat -> [ Sysreg.IB ]

(* SMP key-install verification: the keys live in per-CPU registers, so
   every core must have executed the XOM setter itself. [read] is the
   probed core's key-register accessor; the result lists the keys whose
   registers do not hold the expected material (empty = fully
   installed). *)
let missing_keys ~expected ~read =
  List.filter_map
    (fun (key, (v : Pac.key)) ->
      let got : Pac.key = read key in
      if got.Pac.hi = v.Pac.hi && got.Pac.lo = v.Pac.lo then None else Some key)
    expected
