type insn_class =
  | Alu
  | Load
  | Store
  | Branch
  | Pac
  | Pacga
  | Aut
  | Auth_branch
  | Xpac
  | Sys
  | Exception

let class_count = 11

let class_index = function
  | Alu -> 0
  | Load -> 1
  | Store -> 2
  | Branch -> 3
  | Pac -> 4
  | Pacga -> 5
  | Aut -> 6
  | Auth_branch -> 7
  | Xpac -> 8
  | Sys -> 9
  | Exception -> 10

let class_name = function
  | Alu -> "alu"
  | Load -> "load"
  | Store -> "store"
  | Branch -> "branch"
  | Pac -> "pac"
  | Pacga -> "pacga"
  | Aut -> "aut"
  | Auth_branch -> "auth-branch"
  | Xpac -> "xpac"
  | Sys -> "sys"
  | Exception -> "exception"

let all_classes =
  [ Alu; Load; Store; Branch; Pac; Pacga; Aut; Auth_branch; Xpac; Sys; Exception ]

type t = {
  mutable retired : int64;
  mutable cycles : int64;
  classes : int64 array;
  mutable auth_failures : int64;
  mutable key_installs : int64;
  mutable exception_entries : int64;
  mutable exception_returns : int64;
  mutable mmu_walks : int64;
  mutable ipis_sent : int64;
  mutable ipis_received : int64;
}

type snapshot = {
  retired : int64;
  cycles : int64;
  classes : int64 array;
  auth_failures : int64;
  key_installs : int64;
  exception_entries : int64;
  exception_returns : int64;
  mmu_walks : int64;
  ipis_sent : int64;
  ipis_received : int64;
}

let create () : t =
  {
    retired = 0L;
    cycles = 0L;
    classes = Array.make class_count 0L;
    auth_failures = 0L;
    key_installs = 0L;
    exception_entries = 0L;
    exception_returns = 0L;
    mmu_walks = 0L;
    ipis_sent = 0L;
    ipis_received = 0L;
  }

let retire (t : t) ~cls ~cycles =
  t.retired <- Int64.succ t.retired;
  t.cycles <- Int64.add t.cycles (Int64.of_int cycles);
  let i = class_index cls in
  t.classes.(i) <- Int64.succ t.classes.(i)

let count_auth_failure (t : t) = t.auth_failures <- Int64.succ t.auth_failures
let count_key_install (t : t) = t.key_installs <- Int64.succ t.key_installs

let count_exception_entry (t : t) =
  t.exception_entries <- Int64.succ t.exception_entries

let count_exception_return (t : t) =
  t.exception_returns <- Int64.succ t.exception_returns

let count_mmu_walk (t : t) = t.mmu_walks <- Int64.succ t.mmu_walks
let count_ipi_sent (t : t) = t.ipis_sent <- Int64.succ t.ipis_sent
let count_ipi_received (t : t) = t.ipis_received <- Int64.succ t.ipis_received

let snapshot (t : t) : snapshot =
  {
    retired = t.retired;
    cycles = t.cycles;
    classes = Array.copy t.classes;
    auth_failures = t.auth_failures;
    key_installs = t.key_installs;
    exception_entries = t.exception_entries;
    exception_returns = t.exception_returns;
    mmu_walks = t.mmu_walks;
    ipis_sent = t.ipis_sent;
    ipis_received = t.ipis_received;
  }

let restore (t : t) (s : snapshot) =
  t.retired <- s.retired;
  t.cycles <- s.cycles;
  Array.blit s.classes 0 t.classes 0 class_count;
  t.auth_failures <- s.auth_failures;
  t.key_installs <- s.key_installs;
  t.exception_entries <- s.exception_entries;
  t.exception_returns <- s.exception_returns;
  t.mmu_walks <- s.mmu_walks;
  t.ipis_sent <- s.ipis_sent;
  t.ipis_received <- s.ipis_received

let zero : snapshot =
  {
    retired = 0L;
    cycles = 0L;
    classes = Array.make class_count 0L;
    auth_failures = 0L;
    key_installs = 0L;
    exception_entries = 0L;
    exception_returns = 0L;
    mmu_walks = 0L;
    ipis_sent = 0L;
    ipis_received = 0L;
  }

let map2 f (a : snapshot) (b : snapshot) : snapshot =
  {
    retired = f a.retired b.retired;
    cycles = f a.cycles b.cycles;
    classes = Array.init class_count (fun i -> f a.classes.(i) b.classes.(i));
    auth_failures = f a.auth_failures b.auth_failures;
    key_installs = f a.key_installs b.key_installs;
    exception_entries = f a.exception_entries b.exception_entries;
    exception_returns = f a.exception_returns b.exception_returns;
    mmu_walks = f a.mmu_walks b.mmu_walks;
    ipis_sent = f a.ipis_sent b.ipis_sent;
    ipis_received = f a.ipis_received b.ipis_received;
  }

let diff ~after ~before = map2 Int64.sub after before
let merge a b = map2 Int64.add a b
let class_count_of (s : snapshot) cls = s.classes.(class_index cls)

let pac_ops s = Int64.add (class_count_of s Pac) (class_count_of s Pacga)
let aut_ops s = Int64.add (class_count_of s Aut) (class_count_of s Auth_branch)
let xpac_strips s = class_count_of s Xpac

let live_pac_ops (t : t) =
  Int64.add t.classes.(class_index Pac) t.classes.(class_index Pacga)

let live_aut_ops (t : t) =
  Int64.add t.classes.(class_index Aut) t.classes.(class_index Auth_branch)

let live_auth_failures (t : t) = t.auth_failures

let rows (s : snapshot) =
  [ ("retired", s.retired); ("cycles", s.cycles) ]
  @ List.map (fun c -> ("retired-" ^ class_name c, class_count_of s c)) all_classes
  @ [
      ("pac-ops", pac_ops s);
      ("aut-ops", aut_ops s);
      ("xpac-strips", xpac_strips s);
      ("auth-failures", s.auth_failures);
      ("key-installs", s.key_installs);
      ("exception-entries", s.exception_entries);
      ("exception-returns", s.exception_returns);
      ("mmu-walks", s.mmu_walks);
      ("ipis-sent", s.ipis_sent);
      ("ipis-received", s.ipis_received);
    ]

let to_string s =
  rows s
  |> List.filter (fun (k, v) -> v <> 0L || k = "retired" || k = "cycles")
  |> List.map (fun (k, v) -> Printf.sprintf "%s=%Ld" k v)
  |> String.concat " "

let to_json s =
  rows s
  |> List.map (fun (k, v) -> Printf.sprintf "\"%s\": %Ld" k v)
  |> String.concat ", "
  |> Printf.sprintf "{ %s }"
