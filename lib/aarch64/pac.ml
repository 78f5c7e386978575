module Val64 = Camo_util.Val64

type key = { hi : int64; lo : int64 }

let qarma_key k = Qarma.Block.key_of_pair (k.hi, k.lo)

let raw_mac ~cipher ~key ~modifier data =
  Qarma.Block.encrypt cipher ~key:(qarma_key key) ~tweak:modifier data

let compute ~cipher ~key ~cfg ~modifier ptr =
  let canonical = Vaddr.canonical cfg ptr in
  let mac = raw_mac ~cipher ~key ~modifier canonical in
  Vaddr.insert_pac cfg ~pac:mac canonical

let auth ~cipher ~key ~cfg ~modifier ptr =
  let expected = compute ~cipher ~key ~cfg ~modifier ptr in
  if ptr = expected then Ok (Vaddr.strip_pac cfg ptr)
  else Error (Vaddr.poison cfg ptr)

let generic ~cipher ~key ~value ~modifier =
  let mac = raw_mac ~cipher ~key ~modifier value in
  Int64.shift_left (Val64.extract ~lo:32 ~width:32 mac) 32
