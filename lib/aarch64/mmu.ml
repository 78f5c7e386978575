type perm = { r : bool; w : bool; x : bool }

let no_access = { r = false; w = false; x = false }
let rwx = { r = true; w = true; x = true }
let rw = { r = true; w = true; x = false }
let ro = { r = true; w = false; x = false }
let rx = { r = true; w = false; x = true }
let xo = { r = false; w = false; x = true }

type access = Read | Write | Exec

type fault_kind = Translation | Permission | Stage2_permission

type fault = { kind : fault_kind; va : int64; access : access }

type s1_entry = { pa_page : int64; el0 : perm; el1 : perm }

type t = {
  stage1 : (int64, s1_entry) Hashtbl.t;
  stage2 : (int64, perm) Hashtbl.t;
  mutable generation : int;
}

let create () =
  { stage1 = Hashtbl.create 256; stage2 = Hashtbl.create 64; generation = 0 }

let generation t = t.generation

let map t ~va_page ~pa_page ~el0 ~el1 =
  t.generation <- t.generation + 1;
  Hashtbl.replace t.stage1 va_page { pa_page; el0; el1 }

let unmap t ~va_page =
  t.generation <- t.generation + 1;
  Hashtbl.remove t.stage1 va_page

let stage1_lookup t va_page =
  match Hashtbl.find_opt t.stage1 va_page with
  | Some e -> Some (e.pa_page, e.el0, e.el1)
  | None -> None

let stage2_protect t ~pa_page perm =
  t.generation <- t.generation + 1;
  Hashtbl.replace t.stage2 pa_page perm

let stage2_lookup t pa_page = Hashtbl.find_opt t.stage2 pa_page

let allows perm access =
  match access with Read -> perm.r | Write -> perm.w | Exec -> perm.x

(* Stage 1 implicitly grants EL1 read on any mapping (VMSAv8 has no
   EL1 execute-only encoding): model that by or-ing in the read bit. *)
let effective_el1 perm = { perm with r = true }

let translate t ~el ~access va =
  let va_page = Int64.shift_right_logical va 12 in
  match Hashtbl.find_opt t.stage1 va_page with
  | None -> Error { kind = Translation; va; access }
  | Some entry ->
      let s1_perm =
        match el with
        | El.El0 -> entry.el0
        | El.El1 -> effective_el1 entry.el1
        | El.El2 -> invalid_arg "Mmu.translate: EL2 is not subject to this walk"
      in
      if not (allows s1_perm access) then Error { kind = Permission; va; access }
      else begin
        let s2_perm =
          match Hashtbl.find_opt t.stage2 entry.pa_page with
          | Some p -> p
          | None -> rwx
        in
        if not (allows s2_perm access) then Error { kind = Stage2_permission; va; access }
        else
          Ok (Int64.logor (Int64.shift_left entry.pa_page 12) (Int64.logand va 0xfffL))
      end

(* Both-stage permission summary for one page, with the same EL
   semantics as [translate] (including the implicit EL1 read grant).
   Powers the micro-TLB: a cached (pa_page, perm) pair stays valid
   until [generation] moves, so callers can combine one probe with a
   generation check instead of re-walking both stages per access. *)
let probe t ~el va_page =
  match Hashtbl.find_opt t.stage1 va_page with
  | None -> None
  | Some entry ->
      let s1 =
        match el with
        | El.El0 -> entry.el0
        | El.El1 -> effective_el1 entry.el1
        | El.El2 -> invalid_arg "Mmu.probe: EL2 is not subject to this walk"
      in
      let s2 =
        match Hashtbl.find_opt t.stage2 entry.pa_page with
        | Some p -> p
        | None -> rwx
      in
      Some (entry.pa_page, { r = s1.r && s2.r; w = s1.w && s2.w; x = s1.x && s2.x })

type snapshot = {
  s_stage1 : (int64, s1_entry) Hashtbl.t;
  s_stage2 : (int64, perm) Hashtbl.t;
  s_mmu : t;  (* the tables this snapshot was taken from *)
  (* a generation of [s_mmu] at which its tables equalled the copies
     above: the capture itself, then every refill *)
  mutable s_gen : int;
}

let snapshot t =
  {
    s_stage1 = Hashtbl.copy t.stage1;
    s_stage2 = Hashtbl.copy t.stage2;
    s_mmu = t;
    s_gen = t.generation;
  }

(* Every mutation of the tables advances the generation, so a
   generation that still reads [s_gen] means the tables still equal the
   snapshot: restore is then a no-op and the caches built over them stay
   valid. Otherwise it refills both tables and *advances* the generation
   rather than restoring it: a micro-TLB entry filled after the snapshot
   must not find its fill-time generation current again. Another [t]'s
   generation says nothing about these copies, so it always refills. *)
let restore t s =
  if t != s.s_mmu || t.generation <> s.s_gen then begin
    Hashtbl.reset t.stage1;
    Hashtbl.iter (fun k v -> Hashtbl.replace t.stage1 k v) s.s_stage1;
    Hashtbl.reset t.stage2;
    Hashtbl.iter (fun k v -> Hashtbl.replace t.stage2 k v) s.s_stage2;
    t.generation <- t.generation + 1;
    if t == s.s_mmu then s.s_gen <- t.generation
  end

(* Key-sorted bindings of a table whose keys are unique ([replace]
   only): one pass, no per-key re-lookup. *)
let sorted_bindings tbl =
  List.sort
    (fun (a, _) (b, _) -> Int64.compare a b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let fold_stage1 t f acc =
  List.fold_left
    (fun acc (k, e) -> f acc k (e.pa_page, e.el0, e.el1))
    acc (sorted_bindings t.stage1)

let fold_stage2 t f acc =
  List.fold_left (fun acc (k, p) -> f acc k p) acc (sorted_bindings t.stage2)

let access_name = function Read -> "read" | Write -> "write" | Exec -> "exec"

let fault_to_string f =
  let kind =
    match f.kind with
    | Translation -> "translation fault"
    | Permission -> "stage-1 permission fault"
    | Stage2_permission -> "stage-2 permission fault"
  in
  Printf.sprintf "%s on %s at 0x%Lx" kind (access_name f.access) f.va
