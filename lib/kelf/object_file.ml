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

(* On-disk .kelf form: magic line, a header line with the payload's
   length and MD5, then the payload, Marshal with closures (fixup items
   carry relocation functions). Closure marshalling is only valid
   within the binary that wrote it — exactly the modgen/lint --module
   workflow — so the magic names the format, not an ABI promise. The
   payload is unmarshalled only when its length and digest match the
   header: a cut or altered file is refused before [Marshal] reads it.
   The digest catches damage, not a crafted payload. *)
let magic = "CAMOKELF2\n"

let header payload =
  Printf.sprintf "%d %s\n" (String.length payload) (Digest.to_hex (Digest.string payload))

let write_file path t =
  let payload = Marshal.to_string t [ Marshal.Closures ] in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc magic;
      output_string oc (header payload);
      output_string oc payload)

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | file -> (
      let m = String.length magic in
      if String.length file < m then Error (path ^ ": not a .kelf object (truncated)")
      else if String.sub file 0 m <> magic then
        Error (path ^ ": not a .kelf object (bad magic)")
      else
        match String.index_from_opt file m '\n' with
        | None -> Error (path ^ ": corrupt .kelf object (no header)")
        | Some eol -> (
            let payload = String.sub file (eol + 1) (String.length file - eol - 1) in
            if String.sub file m (eol + 1 - m) <> header payload then
              Error (path ^ ": corrupt .kelf object (length or digest mismatch)")
            else
              match (Marshal.from_string payload 0 : t) with
              | t -> Ok t
              | exception _ ->
                  Error (path ^ ": corrupt .kelf object (marshal payload unreadable)")))
