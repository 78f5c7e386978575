(** A miniature C abstract syntax, rich enough for the paper's semantic
    search (Section 5.3): compound type declarations with
    function-pointer members, static initializers, and function bodies
    containing member reads, member writes and indirect calls. *)

type ctype =
  | Void
  | Int
  | Char
  | Ptr of ctype
  | Func_ptr of string  (** named signature *)
  | Struct_ref of string

type field = { field_name : string; field_type : ctype }

type struct_def = { struct_name : string; fields : field list }

type expr =
  | Var of string
  | Int_lit of int
  | Addr_of_func of string
  | Addr_of_static of string * string
      (** [&name] where [name] is a static instance of the given struct *)
  | Field_read of expr * string  (** [e->f] *)
  | Call of string * expr list
  | Indirect_call of expr * expr list
  | Get_accessor of string * string * expr
      (** [type_member_get(obj)] — introduced by the rewrite *)

type stmt =
  | Expr_stmt of expr
  | Assign_var of string * expr
  | Field_write of expr * string * expr  (** [e->f = v] *)
  | Set_accessor of string * string * expr * expr
      (** [type_member_set(obj, v)] — introduced by the rewrite *)
  | If of expr * stmt list * stmt list
  | Return of expr option

type func_def = {
  func_name : string;
  params : (string * ctype) list;
  locals : (string * ctype) list;
  body : stmt list;
}

(** A static initializer: [static (const) struct S x = { .f = ... };].
    [is_const] models placement in .rodata (an operations structure). *)
type initializer_def = {
  init_name : string;
  init_struct : string;
  init_values : (string * expr) list;
  is_const : bool;
}

type file = {
  file_name : string;
  structs : struct_def list;
  functions : func_def list;
  initializers : initializer_def list;
}

type corpus = file list

(** [expr_type ~corpus ~env e] — best-effort type of [e] given variable
    typings [env]; [None] when unknown. *)
val expr_type : corpus:corpus -> env:(string * ctype) list -> expr -> ctype option

val struct_count : corpus -> int
val function_count : corpus -> int
