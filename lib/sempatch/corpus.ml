type calibration = {
  single_member_types : int;
  multi_member_types : int;
  total_members : int;
  static_ops_types : int;
  plain_types : int;
}

let linux_5_2 =
  {
    single_member_types = 275;
    multi_member_types = 229;
    total_members = 1285;
    static_ops_types = 150;
    plain_types = 300;
  }

(* Distribute the multi-type members: every multi type gets at least 2;
   the remainder is spread one by one from the first type on. *)
let multi_sizes cal =
  let multi_members = cal.total_members - cal.single_member_types in
  let base = Array.make cal.multi_member_types 2 in
  let extra = multi_members - (2 * cal.multi_member_types) in
  if extra < 0 then invalid_arg "Corpus: calibration has too few members";
  for k = 0 to extra - 1 do
    let idx = k mod cal.multi_member_types in
    base.(idx) <- base.(idx) + 1
  done;
  base

let fptr_sig k = Printf.sprintf "sig_%d" (k mod 7)

let make_struct name n_fptrs ~with_data =
  let fptrs =
    List.init n_fptrs (fun k ->
        { Cast.field_name = Printf.sprintf "op_%d" k; field_type = Cast.Func_ptr (fptr_sig k) })
  in
  let data =
    if with_data then
      [
        { Cast.field_name = "refcount"; field_type = Cast.Int };
        { Cast.field_name = "private_data"; field_type = Cast.Ptr Cast.Void };
      ]
    else []
  in
  { Cast.struct_name = name; fields = data @ fptrs }

(* A driver function that assigns each fptr member of [sname] at run
   time (the device-driver pattern of Section 4.4), plus a consumer that
   only reads and calls — reads must not show up in the census. *)
let make_driver rng sname n_fptrs =
  let obj = ("dev", Cast.Ptr (Cast.Struct_ref sname)) in
  let assigns =
    List.init n_fptrs (fun k ->
        Cast.Field_write
          ( Cast.Var "dev",
            Printf.sprintf "op_%d" k,
            Cast.Addr_of_func (Printf.sprintf "%s_handler_%d" sname k) ))
  in
  let maybe_conditional =
    (* some drivers assign under a probe-time condition *)
    if Camo_util.Rng.next_in rng 4 = 0 then
      [ Cast.If (Cast.Var "probed", assigns, [ Cast.Return None ]) ]
    else assigns
  in
  let setup =
    {
      Cast.func_name = sname ^ "_probe";
      params = [ obj; ("probed", Cast.Int) ];
      locals = [];
      body = maybe_conditional;
    }
  in
  let consumer =
    {
      Cast.func_name = sname ^ "_dispatch";
      params = [ obj ];
      locals = [ ("tmp", Cast.Func_ptr (fptr_sig 0)) ];
      body =
        [
          Cast.Assign_var ("tmp", Cast.Field_read (Cast.Var "dev", "op_0"));
          Cast.Expr_stmt (Cast.Indirect_call (Cast.Var "tmp", [ Cast.Int_lit 0 ]));
        ];
    }
  in
  [ setup; consumer ]

let make_static_ops name n_fptrs =
  (* the good-practice pattern: a const ops structure, never assigned at
     run time *)
  let struct_def = make_struct (name ^ "_ops") n_fptrs ~with_data:false in
  let init =
    {
      Cast.init_name = name ^ "_default_ops";
      init_struct = name ^ "_ops";
      init_values =
        List.init n_fptrs (fun k ->
            (Printf.sprintf "op_%d" k, Cast.Addr_of_func (Printf.sprintf "%s_fn_%d" name k)));
      is_const = true;
    }
  in
  (struct_def, init)

let generate ~seed () =
  let rng = Camo_util.Rng.create seed in
  let cal = linux_5_2 in
  let sizes = multi_sizes cal in
  let files = ref [] in
  let add_file name structs functions initializers =
    files :=
      { Cast.file_name = name; structs; functions; initializers } :: !files
  in
  (* single-member driver types *)
  let singles =
    List.init cal.single_member_types (fun k ->
        let name = Printf.sprintf "sdrv_%d" k in
        (make_struct name 1 ~with_data:true, make_driver rng name 1))
  in
  (* multi-member driver types *)
  let multis =
    List.init cal.multi_member_types (fun k ->
        let name = Printf.sprintf "mdrv_%d" k in
        (make_struct name sizes.(k) ~with_data:true, make_driver rng name sizes.(k)))
  in
  (* static ops noise *)
  let statics = List.init cal.static_ops_types (fun k -> make_static_ops (Printf.sprintf "fs_%d" k) 4) in
  (* plain noise *)
  let plains =
    List.init cal.plain_types (fun k ->
        make_struct (Printf.sprintf "plain_%d" k) 0 ~with_data:true)
  in
  (* distribute into "files" of ~20 types for realism *)
  let all_driver =
    List.mapi (fun k (s, fns) -> (k, s, fns)) (singles @ multis)
  in
  List.iter
    (fun chunk ->
      let idx = match chunk with (k, _, _) :: _ -> k | [] -> 0 in
      add_file
        (Printf.sprintf "drivers/gen/driver_%03d.c" (idx / 20))
        (List.map (fun (_, s, _) -> s) chunk)
        (List.concat_map (fun (_, _, fns) -> fns) chunk)
        [])
    (let rec chunks l =
       match l with
       | [] -> []
       | _ ->
           let take = min 20 (List.length l) in
           let rec split n acc rest =
             if n = 0 then (List.rev acc, rest)
             else
               match rest with
               | [] -> (List.rev acc, [])
               | x :: tl -> split (n - 1) (x :: acc) tl
           in
           let head, tail = split take [] l in
           head :: chunks tail
     in
     chunks all_driver);
  add_file "fs/gen/static_ops.c"
    (List.map fst statics)
    []
    (List.map snd statics);
  add_file "include/gen/plain.h" plains [] [];
  List.rev !files
