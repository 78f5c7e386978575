open Aarch64

type word = Lit of int64 | Sym of string | Sym_off of string * int

type blob = { blob_name : string; words : word list }

type static_sign = {
  sign_blob : string;
  word_index : int;
  type_name : string;
  member_name : string;
}

type t = {
  obj_name : string;
  functions : (string * Asm.item list) list;
  rodata : blob list;
  data : blob list;
  pauth_static : static_sign list;
}

let empty obj_name =
  { obj_name; functions = []; rodata = []; data = []; pauth_static = [] }

let add_function t ~name items = { t with functions = t.functions @ [ (name, items) ] }
let add_rodata t blob = { t with rodata = t.rodata @ [ blob ] }
let add_data t blob = { t with data = t.data @ [ blob ] }
let add_static_sign t s = { t with pauth_static = t.pauth_static @ [ s ] }

let text_instruction_count t =
  List.fold_left (fun acc (_, items) -> acc + Asm.instruction_count items) 0 t.functions

let blob_bytes blobs =
  List.fold_left (fun acc b -> acc + (8 * List.length b.words)) 0 blobs

let data_size_bytes t = blob_bytes t.data
let rodata_size_bytes t = blob_bytes t.rodata

let place_blobs base blobs =
  snd
    (List.fold_left_map
       (fun addr b -> (Int64.add addr (Int64.of_int (8 * List.length b.words)), (b, addr)))
       base blobs)

(* On-disk .kelf form: magic line + Marshal with closures (fixup items
   carry relocation functions). Closure marshalling is only valid
   within the binary that wrote it — exactly the modgen/lint --module
   workflow — so the magic names the format, not an ABI promise. *)
let magic = "CAMOKELF1\n"

let write_file path t =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc magic;
      Marshal.to_channel oc t [ Marshal.Closures ])

let read_file path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match really_input_string ic (String.length magic) with
          | exception End_of_file -> Error (path ^ ": not a .kelf object (truncated)")
          | m when m <> magic -> Error (path ^ ": not a .kelf object (bad magic)")
          | _ -> (
              match (Marshal.from_channel ic : t) with
              | t -> Ok t
              | exception _ ->
                  Error (path ^ ": corrupt .kelf object (marshal payload unreadable)")))
