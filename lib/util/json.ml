type t =
  | Null
  | Bool of bool
  | Int of int64
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

type located = { v : lvalue; pos : int }

and lvalue =
  | LNull
  | LBool of bool
  | LInt of int64
  | LFloat of float
  | LStr of string
  | LList of located list
  | LObj of (string * located) list

(* Recursion depth is the nesting depth, so a line of a million '['
   would otherwise grow the stack for as long as the input lasts. *)
let max_depth = 512

exception Error of string * int

let fail pos msg = raise (Error (msg, pos))

type state = { s : string; mutable pos : int }

let peek st = if st.pos < String.length st.s then Some st.s.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  while
    match peek st with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance st;
        true
    | _ -> false
  do
    ()
  done

let expect st c =
  match peek st with
  | Some d when d = c -> advance st
  | _ -> fail st.pos (Printf.sprintf "expected %C" c)

let literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.s && String.sub st.s st.pos n = word then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st.pos (Printf.sprintf "expected %s" word)

(* \uXXXX escapes are decoded to UTF-8; surrogate pairs are combined
   when both halves are present. *)
let add_codepoint buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xc0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xe0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xf0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end

let hex4 st =
  if st.pos + 4 > String.length st.s then fail st.pos "truncated \\u escape";
  let v = ref 0 in
  for _ = 1 to 4 do
    let c = st.s.[st.pos] in
    let d =
      match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | _ -> fail st.pos "bad hex digit in \\u escape"
    in
    v := (!v * 16) + d;
    advance st
  done;
  !v

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st.pos "unterminated string"
    | Some '"' -> advance st
    | Some '\\' -> (
        advance st;
        match peek st with
        | None -> fail st.pos "truncated escape"
        | Some c ->
            advance st;
            (match c with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'n' -> Buffer.add_char buf '\n'
            | 't' -> Buffer.add_char buf '\t'
            | 'r' -> Buffer.add_char buf '\r'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'u' ->
                let cp = hex4 st in
                let cp =
                  if cp >= 0xd800 && cp <= 0xdbff then
                    (* high surrogate: look for the low half *)
                    if
                      st.pos + 1 < String.length st.s
                      && st.s.[st.pos] = '\\'
                      && st.s.[st.pos + 1] = 'u'
                    then begin
                      st.pos <- st.pos + 2;
                      let lo = hex4 st in
                      if lo >= 0xdc00 && lo <= 0xdfff then
                        0x10000 + ((cp - 0xd800) lsl 10) + (lo - 0xdc00)
                      else fail st.pos "unpaired surrogate"
                    end
                    else fail st.pos "unpaired surrogate"
                  else cp
                in
                add_codepoint buf cp
            | _ -> fail (st.pos - 1) "unknown escape");
            go ())
    | Some c ->
        if Char.code c < 0x20 then fail st.pos "raw control character in string";
        advance st;
        Buffer.add_char buf c;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let consume p =
    while match peek st with Some c when p c -> true | _ -> false do
      advance st
    done
  in
  if peek st = Some '-' then advance st;
  consume (function '0' .. '9' -> true | _ -> false);
  let is_float = ref false in
  if peek st = Some '.' then begin
    is_float := true;
    advance st;
    consume (function '0' .. '9' -> true | _ -> false)
  end;
  (match peek st with
  | Some ('e' | 'E') ->
      is_float := true;
      advance st;
      (match peek st with Some ('+' | '-') -> advance st | _ -> ());
      consume (function '0' .. '9' -> true | _ -> false)
  | _ -> ());
  let text = String.sub st.s start (st.pos - start) in
  if text = "" || text = "-" then fail start "expected a number";
  if !is_float then
    match float_of_string_opt text with
    | Some f -> LFloat f
    | None -> fail start "bad number"
  else
    match Int64.of_string_opt text with
    | Some i -> LInt i
    | None -> (
        (* out of int64 range: fall back to float *)
        match float_of_string_opt text with
        | Some f -> LFloat f
        | None -> fail start "bad number")

let rec parse_value st depth =
  skip_ws st;
  let pos = st.pos in
  let at v = { v; pos } in
  let nest () =
    if depth >= max_depth then fail pos "nesting too deep";
    advance st;
    skip_ws st
  in
  match peek st with
  | None -> fail pos "unexpected end of input"
  | Some '{' ->
      nest ();
      if peek st = Some '}' then begin
        advance st;
        at (LObj [])
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws st;
          let key = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st (depth + 1) in
          fields := (key, v) :: !fields;
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              members ()
          | Some '}' -> advance st
          | _ -> fail st.pos "expected ',' or '}'"
        in
        members ();
        at (LObj (List.rev !fields))
      end
  | Some '[' ->
      nest ();
      if peek st = Some ']' then begin
        advance st;
        at (LList [])
      end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value st (depth + 1) in
          items := v :: !items;
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              elements ()
          | Some ']' -> advance st
          | _ -> fail st.pos "expected ',' or ']'"
        in
        elements ();
        at (LList (List.rev !items))
      end
  | Some '"' -> at (LStr (parse_string st))
  | Some 't' -> at (literal st "true" (LBool true))
  | Some 'f' -> at (literal st "false" (LBool false))
  | Some 'n' -> at (literal st "null" LNull)
  | Some ('-' | '0' .. '9') -> at (parse_number st)
  | Some c -> fail pos (Printf.sprintf "unexpected character %C" c)

(* Translate a byte offset into 1-based line/column for error messages:
   multi-line request bodies and log files get a usable position, not
   just a flat byte count. *)
let line_col s pos =
  let pos = max 0 (min pos (String.length s)) in
  let line = ref 1 and bol = ref 0 in
  for i = 0 to pos - 1 do
    if s.[i] = '\n' then begin
      incr line;
      bol := i + 1
    end
  done;
  (!line, pos - !bol + 1)

let position s pos =
  let line, col = line_col s pos in
  Printf.sprintf "line %d, column %d (offset %d)" line col pos

let parse_located s =
  let st = { s; pos = 0 } in
  match parse_value st 0 with
  | v ->
      skip_ws st;
      if st.pos <> String.length s then
        Result.Error
          (Printf.sprintf "trailing garbage at %s" (position s st.pos))
      else Result.Ok v
  | exception Error (msg, pos) ->
      Result.Error (Printf.sprintf "%s at %s" msg (position s pos))

let rec strip { v; _ } =
  match v with
  | LNull -> Null
  | LBool b -> Bool b
  | LInt i -> Int i
  | LFloat f -> Float f
  | LStr s -> Str s
  | LList l -> List (List.map strip l)
  | LObj kvs -> Obj (List.map (fun (k, v) -> (k, strip v)) kvs)

let parse s = Result.map strip (parse_located s)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

let lmember name { v; _ } =
  match v with LObj fields -> List.assoc_opt name fields | _ -> None

let to_int64 = function
  | Int i -> Some i
  | Float f when Float.is_integer f && Float.abs f < 9.0e18 ->
      Some (Int64.of_float f)
  | _ -> None

let to_int v =
  match to_int64 v with
  | Some i when i >= Int64.of_int min_int && i <= Int64.of_int max_int ->
      Some (Int64.to_int i)
  | _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (Int64.to_float i)
  | _ -> None

let to_string = function Str s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
