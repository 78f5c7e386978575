module Val64 = Camo_util.Val64

type key = { hi : int64; lo : int64 }
type mac = key -> modifier:int64 -> int64 -> int64

let cipher_mac cipher : mac =
 fun key ~modifier data ->
  Qarma.Block.encrypt cipher ~key:(Qarma.Block.key_of_pair (key.hi, key.lo)) ~tweak:modifier data

let compute_with ~(mac : mac) ~key ~cfg ~modifier ptr =
  let canonical = Vaddr.canonical cfg ptr in
  Vaddr.insert_pac cfg ~pac:(mac key ~modifier canonical) canonical

let auth_with ~mac ~key ~cfg ~modifier ptr =
  let expected = compute_with ~mac ~key ~cfg ~modifier ptr in
  if ptr = expected then Ok (Vaddr.strip_pac cfg ptr)
  else Error (Vaddr.poison cfg ptr)

let generic_with ~(mac : mac) ~key ~value ~modifier =
  Int64.shift_left (Val64.extract ~lo:32 ~width:32 (mac key ~modifier value)) 32

let compute ~cipher ~key ~cfg ~modifier ptr =
  compute_with ~mac:(cipher_mac cipher) ~key ~cfg ~modifier ptr

let auth ~cipher ~key ~cfg ~modifier ptr =
  auth_with ~mac:(cipher_mac cipher) ~key ~cfg ~modifier ptr

let generic ~cipher ~key ~value ~modifier =
  generic_with ~mac:(cipher_mac cipher) ~key ~value ~modifier
