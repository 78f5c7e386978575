type t = {
  buf : Event.t option array;
  mutable pos : int;  (* next write slot *)
  mutable total : int;
}

let create ~depth =
  if depth <= 0 then invalid_arg "Ring.create: depth";
  { buf = Array.make depth None; pos = 0; total = 0 }

let push t ev =
  t.buf.(t.pos) <- Some ev;
  t.pos <- (t.pos + 1) mod Array.length t.buf;
  t.total <- t.total + 1

let dropped t = max 0 (t.total - Array.length t.buf)

let to_list t =
  let n = Array.length t.buf in
  let acc = ref [] in
  for i = 1 to n do
    (* newest is at pos-1; walk backwards collecting into acc so the
       result comes out oldest-first *)
    match t.buf.((t.pos - i + (2 * n)) mod n) with
    | Some ev -> acc := ev :: !acc
    | None -> ()
  done;
  !acc

type captured = { c_buf : Event.t option array; c_pos : int; c_total : int }

let capture t = { c_buf = Array.copy t.buf; c_pos = t.pos; c_total = t.total }

let restore t c =
  Array.blit c.c_buf 0 t.buf 0 (Array.length t.buf);
  t.pos <- c.c_pos;
  t.total <- c.c_total
