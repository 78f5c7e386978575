open Aarch64

type mexpr = Imm of int64 | Addr of int64 | Sp | Dyn | Bfi_of of mexpr * mexpr * int * int

type direction = Sign | Auth

type site = {
  va : int64;
  insn : Insn.t;
  fn : int64;
  fn_name : string option;
  skey : Sysreg.pauth_key;
  dir : direction;
  modifier : mexpr;
  cls : string;
}

type cls_report = {
  ckey : Sysreg.pauth_key;
  cls : string;
  dynamism : Diag.dynamism;
  sign_sites : int;
  auth_sites : int;
  fn_count : int;
  pairs : int;
  dynamic_bits : int;
  first_sign : (int64 * Insn.t) option;
}

type t = { sites : site list; classes : cls_report list }

let rec cls_string = function
  | Imm v -> Printf.sprintf "imm:0x%Lx" v
  | Addr a -> Printf.sprintf "addr:0x%Lx" a
  | Sp -> "sp"
  | Dyn -> "dyn"
  | Bfi_of (b, s, lsb, w) ->
      Printf.sprintf "bfi(%s,%s,%d,%d)" (cls_string b) (cls_string s) lsb w

(* 64-bit mask of the modifier bits that vary at run time. BFI inserts
   the source's low [w] bits at [lsb]. *)
let rec dyn_mask = function
  | Imm _ | Addr _ -> 0L
  | Sp | Dyn -> -1L
  | Bfi_of (b, s, lsb, w) ->
      let field =
        if w >= 64 then -1L
        else Int64.shift_left (Int64.sub (Int64.shift_left 1L w) 1L) lsb
      in
      let src = Int64.logand (Int64.shift_left (dyn_mask s) lsb) field in
      Int64.logor src (Int64.logand (dyn_mask b) (Int64.lognot field))

let dynamic_bits m =
  let rec pop acc v = if v = 0L then acc else pop (acc + 1) (Int64.logand v (Int64.sub v 1L)) in
  pop 0 (dyn_mask m)

let rec contains_sp = function
  | Sp -> true
  | Bfi_of (b, s, _, _) -> contains_sp b || contains_sp s
  | _ -> false

let rec contains_dyn = function
  | Dyn -> true
  | Bfi_of (b, s, _, _) -> contains_dyn b || contains_dyn s
  | _ -> false

let dynamism m =
  if contains_sp m then Diag.Sp_dependent
  else if contains_dyn m then Diag.Object_dependent
  else Diag.Static

let forgery_probability c = 2. ** Float.of_int (-c.dynamic_bits)

(* ----- per-function site extraction ----- *)

(* Modifier shapes reaching each register, per basic block. The
   materialization idioms (MOVZ/MOVK, ADR, MOV from SP, BFI) are
   straight-line, so resetting to all-[Dyn] at block boundaries loses
   nothing while keeping the scan trivially deterministic. *)
let sites_of_fn (f : Callgraph.fn) (cfg : Cfg.t) =
  let out = ref [] in
  Array.iter
    (fun blk ->
      let m = Array.make 31 Dyn in
      let getv = function
        | Insn.R n -> m.(n)
        | Insn.XZR -> Imm 0L
        | Insn.SP -> Sp
      in
      let setv r v = match r with Insn.R n -> m.(n) <- v | _ -> () in
      let kill r = setv r Dyn in
      let site va insn skey dir modifier =
        out :=
          {
            va;
            insn;
            fn = f.Callgraph.entry;
            fn_name = f.Callgraph.name;
            skey;
            dir;
            modifier;
            cls = cls_string modifier;
          }
          :: !out
      in
      Array.iter
        (fun (va, insn) ->
          match insn with
          | Insn.Movz (rd, imm, sh) -> setv rd (Imm (Int64.shift_left (Int64.of_int imm) sh))
          | Insn.Movk (rd, imm, sh) -> (
              match getv rd with
              | Imm v ->
                  let mask = Int64.lognot (Int64.shift_left 0xFFFFL sh) in
                  setv rd
                    (Imm
                       (Int64.logor (Int64.logand v mask)
                          (Int64.shift_left (Int64.of_int imm) sh)))
              | _ -> kill rd)
          | Insn.Adr (rd, a) -> setv rd (Addr a)
          | Insn.Mov (rd, rn) -> setv rd (getv rn)
          | Insn.Add_imm (rd, rn, imm) -> (
              match getv rn with
              | Imm v -> setv rd (Imm (Int64.add v (Int64.of_int imm)))
              | Addr a -> setv rd (Addr (Int64.add a (Int64.of_int imm)))
              | Sp -> setv rd Sp
              | _ -> kill rd)
          | Insn.Sub_imm (rd, rn, imm) -> (
              match getv rn with
              | Imm v -> setv rd (Imm (Int64.sub v (Int64.of_int imm)))
              | Addr a -> setv rd (Addr (Int64.sub a (Int64.of_int imm)))
              | Sp -> setv rd Sp
              | _ -> kill rd)
          | Insn.Bfi (rd, rn, lsb, w) -> setv rd (Bfi_of (getv rd, getv rn, lsb, w))
          | Insn.Pac (k, rd, rm) ->
              site va insn k Sign (getv rm);
              kill rd
          | Insn.Aut (k, rd, rm) ->
              site va insn k Auth (getv rm);
              kill rd
          | Insn.Pac1716 k ->
              site va insn k Sign (getv Insn.ip0);
              kill Insn.ip1
          | Insn.Aut1716 k ->
              site va insn k Auth (getv Insn.ip0);
              kill Insn.ip1
          | Insn.Pacga (rd, _, rm) ->
              site va insn Sysreg.GA Sign (getv rm);
              kill rd
          | Insn.Blra (k, _, rm) ->
              site va insn k Auth (getv rm);
              for n = 0 to 18 do
                m.(n) <- Dyn
              done;
              m.(30) <- Dyn
          | Insn.Bra (k, _, rm) -> site va insn k Auth (getv rm)
          | Insn.Reta k -> site va insn k Auth Sp
          | Insn.Bl _ | Insn.Blr _ | Insn.Svc _ ->
              for n = 0 to 18 do
                m.(n) <- Dyn
              done;
              m.(30) <- Dyn
          | insn ->
              let defs, _ = Insn.defs_uses insn in
              List.iter kill defs)
        blk.Cfg.insns)
    cfg.Cfg.blocks;
  List.rev !out

let key_order k = match k with Sysreg.IA -> 0 | IB -> 1 | DA -> 2 | DB -> 3 | GA -> 4

let run (summary : Summary.report) =
  let per_fn = Array.map2 sites_of_fn summary.cg.Callgraph.fns summary.cfgs in
  let sites = List.concat (Array.to_list per_fn) in
  let sites = List.sort (fun a b -> Int64.compare a.va b.va) sites in
  (* partition by (key, class) *)
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let k = (key_order s.skey, s.cls) in
      Hashtbl.replace tbl k (s :: (Option.value ~default:[] (Hashtbl.find_opt tbl k))))
    sites;
  let classes =
    Hashtbl.fold
      (fun (_, cls) group acc ->
        let group = List.rev group in
        let s0 = List.hd group in
        let fns = List.sort_uniq Int64.compare (List.map (fun s -> s.fn) group) in
        let signs = List.filter (fun s -> s.dir = Sign) group in
        let auths = List.filter (fun s -> s.dir = Auth) group in
        let per_fn_product =
          List.fold_left
            (fun acc fe ->
              let sf = List.length (List.filter (fun s -> s.fn = fe) signs) in
              let af = List.length (List.filter (fun s -> s.fn = fe) auths) in
              acc + (sf * af))
            0 fns
        in
        let pairs = (List.length signs * List.length auths) - per_fn_product in
        let first_sign =
          match signs with [] -> None | s :: _ -> Some (s.va, s.insn)
        in
        {
          ckey = s0.skey;
          cls;
          dynamism = dynamism s0.modifier;
          sign_sites = List.length signs;
          auth_sites = List.length auths;
          fn_count = List.length fns;
          pairs;
          dynamic_bits = dynamic_bits s0.modifier;
          first_sign;
        }
        :: acc)
      tbl []
  in
  let classes =
    List.sort
      (fun a b ->
        let c = compare (key_order a.ckey) (key_order b.ckey) in
        if c <> 0 then c else String.compare a.cls b.cls)
      classes
  in
  { sites; classes }

let to_diags t =
  List.filter_map
    (fun c ->
      if c.fn_count >= 2 && c.pairs >= 1 then
        match c.first_sign with
        | Some (va, insn) ->
            Some
              {
                Diag.va;
                insn;
                kind =
                  Diag.Modifier_collision
                    {
                      Diag.ckey = c.ckey;
                      cls = c.cls;
                      sites = c.sign_sites + c.auth_sites;
                      pairs = c.pairs;
                      dynamism = c.dynamism;
                    };
              }
        | None -> None
      else None)
    t.classes

(* ----- output ----- *)

let dir_name = function Sign -> "sign" | Auth -> "auth"

let site_to_json s =
  Printf.sprintf
    {|{"va":"0x%Lx","fn":"0x%Lx","fn_name":%s,"key":"%s","dir":"%s","class":"%s"}|}
    s.va s.fn
    (match s.fn_name with
    | Some n -> Printf.sprintf {|"%s"|} (Camo_util.Json.escape n)
    | None -> "null")
    (Diag.key_name s.skey) (dir_name s.dir) (Camo_util.Json.escape s.cls)

let cls_to_json c =
  Printf.sprintf
    {|{"key":"%s","class":"%s","dynamism":"%s","sign_sites":%d,"auth_sites":%d,"functions":%d,"gadget_pairs":%d,"dynamic_bits":%d,"forgery_p":%.6g}|}
    (Diag.key_name c.ckey) (Camo_util.Json.escape c.cls)
    (Diag.dynamism_name c.dynamism)
    c.sign_sites c.auth_sites c.fn_count c.pairs c.dynamic_bits
    (forgery_probability c)

let to_json t =
  Printf.sprintf
    {|{"classes":[%s],"collision_classes":%d,"gadget_pairs":%d,"sites":[%s]}|}
    (String.concat "," (List.map cls_to_json t.classes))
    (List.length (List.filter (fun c -> c.fn_count >= 2 && c.pairs >= 1) t.classes))
    (List.fold_left (fun acc c -> acc + c.pairs) 0 t.classes)
    (String.concat "," (List.map site_to_json t.sites))

let table t =
  let b = Buffer.create 256 in
  Buffer.add_string b
    "key  class                                      dyn              sign auth fns pairs bits p\n";
  List.iter
    (fun c ->
      Buffer.add_string b
        (Printf.sprintf "%-4s %-42s %-16s %4d %4d %3d %5d %4d %.3g\n"
           (Diag.key_name c.ckey) c.cls
           (Diag.dynamism_name c.dynamism)
           c.sign_sites c.auth_sites c.fn_count c.pairs c.dynamic_bits
           (forgery_probability c)))
    t.classes;
  Buffer.contents b
