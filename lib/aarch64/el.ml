type t = El0 | El1 | El2

let name = function El0 -> "EL0" | El1 -> "EL1" | El2 -> "EL2"
