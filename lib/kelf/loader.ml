open Aarch64
module C = Camouflage

type purpose = Text | Rodata | Data

type env = {
  place : text_bytes:int -> rodata_bytes:int -> data_bytes:int -> int64 * int64 * int64;
  map_region : base:int64 -> bytes:int -> purpose -> unit;
  unmap_region : base:int64 -> bytes:int -> purpose -> unit;
  read32 : int64 -> int32;
  write32 : int64 -> int32 -> unit;
  read64 : int64 -> int64;
  write64 : int64 -> int64 -> unit;
  extra_symbols : (string * int64) list;
  allowed_key_writer : int64 -> bool;
}

type placed = {
  object_name : string;
  text_layout : Asm.layout;
  text_base : int64;
  text_bytes : int;
  rodata_base : int64;
  rodata_bytes : int;
  data_base : int64;
  data_bytes : int;
  lint_warnings : Paclint.Diag.t list;
  symbol_table : (string, int64) Hashtbl.t;
}

type error =
  | Verification_failed of Paclint.Diag.t list
  | Unknown_symbol of string
  | Unknown_member of string * string

exception Load_error of error

(* The lookup table behind [symbol]: text symbols, then data symbols,
   and the first binding of a name wins. *)
let symbol_table ~text ~data =
  let tbl = Hashtbl.create (List.length text + List.length data) in
  List.iter
    (fun (name, a) -> if not (Hashtbl.mem tbl name) then Hashtbl.add tbl name a)
    (text @ data);
  tbl

let resolve_word symbols w =
  match w with
  | Object_file.Lit v -> v
  | Object_file.Sym s -> (
      match List.assoc_opt s symbols with
      | Some a -> a
      | None -> raise (Load_error (Unknown_symbol s)))
  | Object_file.Sym_off (s, off) -> (
      match List.assoc_opt s symbols with
      | Some a -> Int64.add a (Int64.of_int off)
      | None -> raise (Load_error (Unknown_symbol s)))

let load ~cpu ~config ~registry ~env (obj : Object_file.t) =
  try
    let text_bytes = 4 * Object_file.text_instruction_count obj in
    let rodata_bytes = Object_file.rodata_size_bytes obj in
    let data_bytes = Object_file.data_size_bytes obj in
    let text_base, rodata_base, data_base = env.place ~text_bytes ~rodata_bytes ~data_bytes in
    (* Text: assemble against kernel exports + this object's data symbols. *)
    let placed_ro = Object_file.place_blobs rodata_base obj.Object_file.rodata in
    let placed_rw = Object_file.place_blobs data_base obj.Object_file.data in
    let blob_symbols =
      List.map (fun (b, a) -> (b.Object_file.blob_name, a)) (placed_ro @ placed_rw)
    in
    let prog = Asm.create () in
    List.iter (fun (name, items) -> Asm.add_function prog ~name items) obj.Object_file.functions;
    let layout =
      Asm.assemble prog ~base:text_base ~extra_symbols:(blob_symbols @ env.extra_symbols)
    in
    Asm.encode_into layout ~write32:env.write32;
    (* Static verification before the code becomes reachable: the
       whole-object interprocedural lint under the policy this
       configuration promises, with the audited key setter as the only
       legitimate key writer. The analysis decodes what was actually
       written to memory (not the pre-encode listing), builds the
       object's call graph, and propagates PAC provenance across its
       internal calls; calls into kernel exports resolve to addresses
       outside the decoded region and fall back to the conservative
       clobber. Errors reject the object; warnings ride along on
       [placed]. *)
    let policy = C.Verifier.policy ~allowed:env.allowed_key_writer config in
    let code =
      Paclint.Lint.decode_region ~read32:env.read32 ~base:text_base
        ~size:layout.Asm.size
    in
    let report =
      Paclint.Summary.analyze_image ~symbols:layout.Asm.symbols ~policy code
    in
    let diags = report.Paclint.Summary.diags in
    let errors, lint_warnings = List.partition Paclint.Diag.is_error diags in
    if errors <> [] then Error (Verification_failed errors)
    else begin
      let all_symbols = layout.Asm.symbols @ blob_symbols @ env.extra_symbols in
      (* Relocate and write data words. *)
      let write_blob (b, base) =
        List.iteri
          (fun i w ->
            env.write64 (Int64.add base (Int64.of_int (8 * i))) (resolve_word all_symbols w))
          b.Object_file.words
      in
      List.iter write_blob placed_ro;
      List.iter write_blob placed_rw;
      (* Sign the statically initialized pointers in place. *)
      let table =
        List.map
          (fun s ->
            let blob_addr =
              match List.assoc_opt s.Object_file.sign_blob blob_symbols with
              | Some a -> a
              | None -> raise (Load_error (Unknown_symbol s.Object_file.sign_blob))
            in
            let location = Int64.add blob_addr (Int64.of_int (8 * s.Object_file.word_index)) in
            match
              C.Static_table.entry_for registry ~location
                ~type_name:s.Object_file.type_name ~member_name:s.Object_file.member_name
            with
            | entry -> entry
            | exception Not_found ->
                raise
                  (Load_error
                     (Unknown_member (s.Object_file.type_name, s.Object_file.member_name))))
          obj.Object_file.pauth_static
      in
      C.Static_table.sign_all cpu config registry table ~read64:env.read64
        ~write64:env.write64;
      (* Map with final permissions. *)
      if text_bytes > 0 then env.map_region ~base:text_base ~bytes:text_bytes Text;
      if rodata_bytes > 0 then env.map_region ~base:rodata_base ~bytes:rodata_bytes Rodata;
      if data_bytes > 0 then env.map_region ~base:data_base ~bytes:data_bytes Data;
      Ok
        {
          object_name = obj.Object_file.obj_name;
          text_layout = layout;
          text_base;
          text_bytes;
          rodata_base;
          rodata_bytes;
          data_base;
          data_bytes;
          lint_warnings;
          symbol_table =
            symbol_table ~text:layout.Asm.symbols ~data:blob_symbols;
        }
    end
  with Load_error e -> Error e

(* Tear a placed object down: remove its mappings (which also lifts
   any stage-2 protection via the environment's callback). Decoded
   instructions cached for the vacated pages are flushed by the MMU
   mutations this performs — a subsequent load at the same address
   re-decodes from the new bytes. *)
let unload ~env placed =
  if placed.text_bytes > 0 then
    env.unmap_region ~base:placed.text_base ~bytes:placed.text_bytes Text;
  if placed.rodata_bytes > 0 then
    env.unmap_region ~base:placed.rodata_base ~bytes:placed.rodata_bytes Rodata;
  if placed.data_bytes > 0 then
    env.unmap_region ~base:placed.data_base ~bytes:placed.data_bytes Data

let symbol placed name = Hashtbl.find placed.symbol_table name

let error_to_string = function
  | Verification_failed ds ->
      Printf.sprintf "verification failed: %s"
        (String.concat "; " (List.map Paclint.Diag.to_string ds))
  | Unknown_symbol s -> Printf.sprintf "unknown symbol %s" s
  | Unknown_member (t, m) -> Printf.sprintf "unknown protected member %s.%s" t m
