(* Every export has a caller.

   Reads the `.cmti` of every library module under [ROOT/lib] for its
   exported values, and the `.cmt` of every compilation unit under
   [ROOT] for the values its expressions name ([Texp_ident]). A path is
   read through the unit's module aliases ([module M = A.B]) and dune's
   wrapping, so [Lib__Mod.v], [Lib__.Mod.v] and [Lib.Mod.v] all name the
   export [Lib.Mod.v]. A unit's references to its own values are local
   identifiers and do not count.

   Prints every export that no other unit names and exits 1 if there is
   one; a summary line on stderr splits the exports into unused, named
   only by units under [ROOT/test], and named by other code.

   Usage: exports.exe ROOT   (ROOT is a dune build context, e.g.
   _build/default, after `dune build @check`). *)

let rec walk dir acc =
  Array.fold_left
    (fun acc name ->
      let path = Filename.concat dir name in
      if Sys.is_directory path then walk path acc else path :: acc)
    acc
    (try Sys.readdir dir with Sys_error _ -> [||])

(* [Lib__Mod] -> [Lib.Mod]: the name a reader writes. *)
let dotted unit =
  let n = String.length unit in
  let rec go i =
    if i + 1 >= n then unit
    else if unit.[i] = '_' && unit.[i + 1] = '_' && i > 0 && i + 2 < n then
      String.sub unit 0 i ^ "." ^ String.sub unit (i + 2) (n - i - 2)
    else go (i + 1)
  in
  go 0

let unit_of_file file =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename file))

(* Exported values of one interface, as [Lib.Mod.v] (nested modules
   add a segment). *)
let exports_of_cmti file =
  let prefix = dotted (unit_of_file file) in
  let rec sig_items prefix acc items =
    List.fold_left
      (fun acc item ->
        match item.Typedtree.sig_desc with
        | Typedtree.Tsig_value vd -> (prefix ^ "." ^ vd.val_name.txt) :: acc
        | Typedtree.Tsig_module
            { md_name = { txt = Some m; _ };
              md_type = { mty_desc = Tmty_signature sg; _ }; _ } ->
          sig_items (prefix ^ "." ^ m) acc sg.sig_items
        | _ -> acc)
      acc items
  in
  match (Cmt_format.read_cmt file).cmt_annots with
  | Cmt_format.Interface sg -> sig_items prefix [] sg.sig_items
  | _ -> []

(* The values one implementation names, normalised to [Lib.Mod.v]. *)
let references units file =
  let aliases = Hashtbl.create 16 in
  let rec segments = function
    | Path.Pident id -> (
      match Hashtbl.find_opt aliases (Ident.unique_name id) with
      | Some s -> s
      | None -> [ Ident.name id ])
    | Path.Pdot (p, s) -> segments p @ [ s ]
    | Path.Papply (p, _) | Path.Pextra_ty (p, _) -> segments p
  in
  (* [Lib__ . Mod] (inside the library) and [Lib . Mod] (outside it)
     are both the unit [Lib__Mod]. *)
  let normalise = function
    | lib :: m :: rest as s ->
      let prefix = if String.ends_with ~suffix:"__" lib then lib else lib ^ "__" in
      if Hashtbl.mem units (prefix ^ m) then (prefix ^ m) :: rest else s
    | s -> s
  in
  let resolve p = normalise (segments p) in
  let rec alias_target me =
    match me.Typedtree.mod_desc with
    | Typedtree.Tmod_ident (p, _) -> Some (resolve p)
    | Typedtree.Tmod_constraint (me, _, _, _) -> alias_target me
    | _ -> None
  in
  let record id me =
    match (id, alias_target me) with
    | Some id, Some target -> Hashtbl.replace aliases (Ident.unique_name id) target
    | _ -> ()
  in
  let refs = ref [] in
  let open Tast_iterator in
  let it =
    { default_iterator with
      module_binding =
        (fun sub mb ->
          record mb.mb_id mb.mb_expr;
          default_iterator.module_binding sub mb);
      expr =
        (fun sub e ->
          (match e.exp_desc with
          | Typedtree.Texp_ident (p, _, _) -> (
            match resolve p with
            | unit :: (_ :: _ as rest) ->
              refs := String.concat "." (dotted unit :: rest) :: !refs
            | _ -> ())
          | Typedtree.Texp_letmodule (id, _, _, me, _) -> record id me
          | _ -> ());
          default_iterator.expr sub e) }
  in
  (match (Cmt_format.read_cmt file).cmt_annots with
  | Cmt_format.Implementation str -> it.structure it str
  | _ -> ());
  !refs

let () =
  let root =
    match Sys.argv with
    | [| _; root |] -> root
    | _ ->
      prerr_endline "usage: exports.exe BUILD_CONTEXT (e.g. _build/default)";
      exit 2
  in
  let files = walk root [] in
  let lib_dir = Filename.concat root "lib" ^ Filename.dir_sep in
  let test_dir = Filename.concat root "test" ^ Filename.dir_sep in
  let under dir f = String.starts_with ~prefix:dir f in
  let in_byte_objs f = Filename.basename (Filename.dirname f) = "byte" in
  let cmtis =
    List.filter
      (fun f -> under lib_dir f && in_byte_objs f && Filename.check_suffix f ".cmti")
      files
  in
  let cmts =
    List.filter (fun f -> in_byte_objs f && Filename.check_suffix f ".cmt") files
  in
  let units = Hashtbl.create 256 in
  List.iter (fun f -> Hashtbl.replace units (unit_of_file f) ()) (cmtis @ cmts);
  let test_refs = Hashtbl.create 1024 and other_refs = Hashtbl.create 4096 in
  List.iter
    (fun f ->
      let tbl = if under test_dir f then test_refs else other_refs in
      List.iter (fun r -> Hashtbl.replace tbl r ()) (references units f))
    cmts;
  let exports = List.sort_uniq compare (List.concat_map exports_of_cmti cmtis) in
  let unused, test_only, used =
    List.fold_left
      (fun (u, t, o) e ->
        if Hashtbl.mem other_refs e then (u, t, o + 1)
        else if Hashtbl.mem test_refs e then (u, t + 1, o)
        else (e :: u, t, o))
      ([], 0, 0) exports
  in
  let unused = List.rev unused in
  List.iter print_endline unused;
  Printf.eprintf
    "%d exports: %d named by no other unit, %d only by test/, %d by other code\n"
    (List.length exports) (List.length unused) test_only used;
  exit (if unused = [] then 0 else 1)
