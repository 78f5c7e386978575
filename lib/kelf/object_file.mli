(** Relocatable kernel objects (the model's ELF stand-in).

    A loadable kernel module — and the kernel image itself — is a set of
    text functions (pre-assembly, so they can be placed anywhere), data
    and rodata blobs whose words may reference symbols, and the paper's
    new [.pauth_static] section (Section 4.6) listing every statically
    initialized pointer that must be signed in place after placement. *)

open Aarch64

(** A 64-bit data word: either a literal or a symbol reference resolved
    at load time (function or data symbol), optionally displaced. *)
type word = Lit of int64 | Sym of string | Sym_off of string * int

type blob = {
  blob_name : string;  (** data symbol name *)
  words : word list;
}

(** One [.pauth_static] entry in symbolic form: the pointer at
    [blob_name + word_index*8] is a statically initialized instance of
    (type, member) and must be signed after relocation. *)
type static_sign = {
  sign_blob : string;
  word_index : int;
  type_name : string;
  member_name : string;
}

type t = {
  obj_name : string;
  functions : (string * Asm.item list) list;  (** text, in layout order *)
  rodata : blob list;  (** write-protected after load *)
  data : blob list;
  pauth_static : static_sign list;
}

val empty : string -> t

val add_function : t -> name:string -> Asm.item list -> t
val add_rodata : t -> blob -> t
val add_data : t -> blob -> t
val add_static_sign : t -> static_sign -> t

(** [text_instruction_count t] — total instructions across functions. *)
val text_instruction_count : t -> int

(** [data_size_bytes t] / [rodata_size_bytes t]. *)
val data_size_bytes : t -> int

val rodata_size_bytes : t -> int

(** [place_blobs base blobs] — each blob with its address, laid out back
    to back from [base] at 8 bytes a word: how the loader places an
    object's rodata and data, and how the image and module lints mirror
    that placement. *)
val place_blobs : int64 -> blob list -> (blob * int64) list

(** [write_file path t] — serialize to a [.kelf] file: the magic line
    [CAMOKELF2], a line with the payload's byte length and MD5, then the
    marshalled object. Function items carry relocation closures, so a
    [.kelf] file is only readable by the binary that wrote it (the
    [camouflage modgen] / [camouflage lint --module] workflow). *)
val write_file : string -> t -> unit

(** [read_file path] — load a [.kelf] file; [Error] carries a
    human-readable reason (missing file, bad magic, a length or digest
    that does not match the payload, an unreadable payload). Only a
    payload whose length and MD5 match its header is unmarshalled, so a
    cut or damaged file is an [Error], never a crash; the digest does
    not defend against a deliberately crafted payload. *)
val read_file : string -> (t, string) result
