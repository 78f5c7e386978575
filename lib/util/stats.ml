let mean = function
  | [] -> invalid_arg "Stats.mean"
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let variance = function
  | [] | [ _ ] -> 0.0
  | xs ->
      let m = mean xs in
      let n = float_of_int (List.length xs) in
      List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs /. (n -. 1.0)

let stddev xs = sqrt (variance xs)

let geomean = function
  | [] -> invalid_arg "Stats.geomean"
  | xs ->
      List.iter (fun x -> if x <= 0.0 then invalid_arg "Stats.geomean: non-positive") xs;
      exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (List.length xs))
