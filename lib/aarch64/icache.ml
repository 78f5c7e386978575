(* Decoded-instruction cache + micro-TLB for the interpreter hot path.

   Purely a host-speed structure: nothing here is guest-visible. Cycle
   charges, telemetry counters, fault kinds and all architectural state
   must be bit-identical with the cache on or off — the differential
   harness in test/test_icache.ml holds this line.

   Entries are keyed by (EL, VA page), not by physical frame: decoded
   instructions embed absolute branch/ADR targets computed from the PC
   at decode time, so the same physical word mapped at two virtual
   addresses decodes to two different [Insn.t] values. Each entry also
   memoizes the combined two-stage permission triple, so it doubles as
   a micro-TLB for data-side translations of the same page.

   Coherence has three channels:
   - a [Mem] write hook drops every entry whose decoded lines shadow
     the written frame (guest stores, host [Kmem] writes and
     fault-injector memory flips all funnel through [Mem]);
   - the [Mmu] generation counter: any map/unmap/stage-2 change flushes
     everything at the next lookup;
   - an explicit [flush] the CPU issues on writes to the MMU-control
     system registers (TTBR0/TTBR1/SCTLR) and CONTEXTIDR (ASID rolls).

   PAuth key-register writes deliberately do NOT flush: keys affect
   PAC computation at execute time, never decode or translation, so the
   affected-line set is empty — and the XOM key setter rewrites all
   five keys on every kernel entry, which would otherwise wipe the
   cache continuously. *)

type entry = {
  e_el : El.t;
  e_va_page : int;  (* va lsr 12 — exact, top 12 bits of the VA are shifted out *)
  e_pa_page : int64;
  e_perm : Mmu.perm;  (* combined stage-1 AND stage-2 permissions *)
  e_slot : int;
  e_frame_idx : int;  (* [Int64.to_int e_pa_page] — exact, 52 bits *)
  (* the physical frame's backing bytes, memoized on the first data
     access so cached loads/stores skip both PA reconstruction and the
     frame table (the same trick a real TLB plays by caching the host
     address); [Bytes.empty] until then *)
  mutable e_frame : Bytes.t;
  (* decoded lines for the page, lazily allocated on the first
     instruction fetch; [||] marks a translation-only (data) entry *)
  mutable e_lines : Insn.t option array;
}

let no_frame = Bytes.create 0

type stats = {
  fetch_hits : int;
  fetch_misses : int;
  fills : int;
  tlb_hits : int;
  tlb_misses : int;
  invalidations : int;
  flushes : int;
}

type counters = {
  mutable c_fetch_hits : int;
  mutable c_fetch_misses : int;
  mutable c_fills : int;
  mutable c_tlb_hits : int;
  mutable c_tlb_misses : int;
  mutable c_invalidations : int;
  mutable c_flushes : int;
}

type t = {
  enabled : bool;
  slots : entry option array;  (* direct-mapped on (EL, VA page) *)
  (* frame index -> entries whose decoded lines shadow that frame;
     only entries with allocated lines are registered here *)
  by_frame : (int, entry list) Hashtbl.t;
  (* Bloom filter over the registered frame indices: a store whose
     frame bit is clear definitely shadows no decoded lines and skips
     the [by_frame] lookup. Registration sets bits; only [flush]
     clears them (unregistration leaves stale bits — conservative). *)
  mutable reg_mask : int;
  mutable gen : int;  (* Mmu generation observed at the last lookup *)
  mem : Mem.t;
  mmu : Mmu.t;
  c : counters;
}

type fetch_error = Fetch_fault of Mmu.fault | Fetch_undefined of int32

(* The raising fetch API exists for the interpreter's fast loop: a
   [result] return would allocate an [Ok] block per retired
   instruction. Faults are rare, so they pay the exception instead. *)
exception Fetch_stop of fetch_error

let slot_count = 1024
let lines_per_page = 1024  (* 4 KiB / 4-byte instructions *)

let el_index = function El.El0 -> 0 | El.El1 -> 1 | El.El2 -> 2

(* Fibonacci-multiply slot hash: plain xor-folding maps the common
   code/stack/data layouts (pages a power-of-two distance apart) onto
   one slot, so a loop's data page evicts its own code page every
   iteration. The golden-ratio multiply spreads those deltas. [lsr] is
   logical, so a product truncated to a negative native int still
   indexes safely. *)
let slot_of ~el va_page =
  (((va_page * 0x61C8_8647) lsr 13) * 2 + el_index el) land (slot_count - 1)

(* Golden-ratio spread of a frame index onto one of 32 filter bits. *)
let[@inline] bloom_bit frame = 1 lsl ((frame * 0x61C8_8647) lsr 5 land 31)

let flush t =
  Array.fill t.slots 0 slot_count None;
  Hashtbl.reset t.by_frame;
  t.reg_mask <- 0;
  t.c.c_flushes <- t.c.c_flushes + 1

(* Drop one entry: clear its slot (unless already evicted) and its
   frame registration. Called from the store hook. *)
let drop t e =
  (match t.slots.(e.e_slot) with
  | Some e' when e' == e -> t.slots.(e.e_slot) <- None
  | _ -> ());
  t.c.c_invalidations <- t.c.c_invalidations + 1

(* Runs on every store; almost always a miss, so the Bloom filter
   screens out frames that never held decoded lines before paying the
   table lookup. *)
let on_store t frame =
  if t.reg_mask land bloom_bit frame <> 0 then
    match Hashtbl.find t.by_frame frame with
    | entries ->
        Hashtbl.remove t.by_frame frame;
        List.iter (drop t) entries
    | exception Not_found -> ()

let create ?(enabled = true) ~mem ~mmu () =
  let t =
    {
      enabled;
      slots = Array.make slot_count None;
      by_frame = Hashtbl.create 64;
      reg_mask = 0;
      gen = Mmu.generation mmu;
      mem;
      mmu;
      c =
        {
          c_fetch_hits = 0;
          c_fetch_misses = 0;
          c_fills = 0;
          c_tlb_hits = 0;
          c_tlb_misses = 0;
          c_invalidations = 0;
          c_flushes = 0;
        };
    }
  in
  Mem.add_write_hook mem (fun frame -> on_store t frame);
  t

let enabled t = t.enabled

let stats t =
  {
    fetch_hits = t.c.c_fetch_hits;
    fetch_misses = t.c.c_fetch_misses;
    fills = t.c.c_fills;
    tlb_hits = t.c.c_tlb_hits;
    tlb_misses = t.c.c_tlb_misses;
    invalidations = t.c.c_invalidations;
    flushes = t.c.c_flushes;
  }

(* Discard everything when translation tables changed underneath us. *)
let sync t =
  let g = Mmu.generation t.mmu in
  if g <> t.gen then begin
    flush t;
    t.gen <- g
  end

(* Remove an entry's frame registration (slot eviction path). *)
let unregister t e =
  if Array.length e.e_lines > 0 then begin
    let f = e.e_frame_idx in
    match Hashtbl.find_opt t.by_frame f with
    | None -> ()
    | Some l -> (
        match List.filter (fun x -> x != e) l with
        | [] -> Hashtbl.remove t.by_frame f
        | l' -> Hashtbl.replace t.by_frame f l')
  end

let install t ~el ~va_page ~pa_page ~perm =
  let slot = slot_of ~el va_page in
  (match t.slots.(slot) with Some old -> unregister t old | None -> ());
  let e =
    { e_el = el; e_va_page = va_page; e_pa_page = pa_page; e_perm = perm;
      e_slot = slot; e_frame_idx = Int64.to_int pa_page; e_frame = no_frame;
      e_lines = [||] }
  in
  t.slots.(slot) <- Some e;
  e

(* Memoize the frame's bytes on first data use. Frames are never
   replaced by [Mem], so the pointer stays valid for the entry's life. *)
let[@inline] frame_of_entry t e =
  if Bytes.length e.e_frame = 0 then begin
    let b = Mem.frame_bytes t.mem e.e_frame_idx in
    e.e_frame <- b;
    b
  end
  else e.e_frame

(* Allocate the decoded-line array on first instruction use and register
   the entry for store invalidation from that moment on. Data-only
   entries stay unregistered: their translation does not depend on the
   frame's contents, so stores must not evict them. *)
let lines_of t e =
  if Array.length e.e_lines = 0 then begin
    e.e_lines <- Array.make lines_per_page None;
    let f = e.e_frame_idx in
    let prev = match Hashtbl.find_opt t.by_frame f with Some l -> l | None -> [] in
    Hashtbl.replace t.by_frame f (e :: prev);
    t.reg_mask <- t.reg_mask lor bloom_bit f
  end;
  e.e_lines

let uncached_fetch_exn t ~el pc =
  match Mmu.translate t.mmu ~el ~access:Mmu.Exec pc with
  | Error f -> raise (Fetch_stop (Fetch_fault f))
  | Ok pa -> (
      let word = Mem.read32 t.mem pa in
      match Encode.decode ~pc word with
      | None -> raise (Fetch_stop (Fetch_undefined word))
      | Some insn -> insn)

(* Fill or hit one line of an installed executable entry. [off] is the
   page offset of the PC as a native int (low 12 bits are unaffected by
   the 63-bit truncation). Decode failures are never cached: the
   undefined word is re-read on every attempt, exactly like the
   uncached path. *)
let line_fetch_exn t e pc off =
  let lines = lines_of t e in
  let line = off lsr 2 in
  match Array.unsafe_get lines line with
  | Some insn ->
      t.c.c_fetch_hits <- t.c.c_fetch_hits + 1;
      insn
  | None -> (
      t.c.c_fills <- t.c.c_fills + 1;
      let pa = Int64.logor (Int64.shift_left e.e_pa_page 12) (Int64.of_int off) in
      let word = Mem.read32 t.mem pa in
      match Encode.decode ~pc word with
      | None -> raise (Fetch_stop (Fetch_undefined word))
      | Some insn ->
          Array.unsafe_set lines line (Some insn);
          insn)

let fetch_exn t ~el pc =
  if (not t.enabled) || el = El.El2 then uncached_fetch_exn t ~el pc
  else begin
    sync t;
    let va_page = Int64.to_int (Int64.shift_right_logical pc 12) in
    let off = Int64.to_int pc land 0xfff in
    match t.slots.(slot_of ~el va_page) with
    | Some e
      when e.e_va_page = va_page && e.e_el = el && e.e_perm.Mmu.x
           && off land 3 = 0 ->
        line_fetch_exn t e pc off
    | _ -> (
        t.c.c_fetch_misses <- t.c.c_fetch_misses + 1;
        match Mmu.probe t.mmu ~el (Int64.of_int va_page) with
        | Some (pa_page, perm) when perm.Mmu.x && off land 3 = 0 ->
            let e = install t ~el ~va_page ~pa_page ~perm in
            line_fetch_exn t e pc off
        | _ ->
            (* unmapped, not executable, or a misaligned PC: take the
               real walk so the fault kind is exact *)
            uncached_fetch_exn t ~el pc)
  end

let fetch t ~el pc =
  match fetch_exn t ~el pc with
  | insn -> Ok insn
  | exception Fetch_stop e -> Error e

exception Translate_fault of Mmu.fault

let translate_exn t ~el ~access va =
  if (not t.enabled) || el = El.El2 then
    match Mmu.translate t.mmu ~el ~access va with
    | Ok pa -> pa
    | Error f -> raise (Translate_fault f)
  else begin
    sync t;
    let va_page = Int64.to_int (Int64.shift_right_logical va 12) in
    match t.slots.(slot_of ~el va_page) with
    | Some e
      when e.e_va_page = va_page && e.e_el = el && Mmu.allows e.e_perm access ->
        t.c.c_tlb_hits <- t.c.c_tlb_hits + 1;
        Int64.logor (Int64.shift_left e.e_pa_page 12) (Int64.logand va 0xfffL)
    | _ -> (
        t.c.c_tlb_misses <- t.c.c_tlb_misses + 1;
        match Mmu.probe t.mmu ~el (Int64.of_int va_page) with
        | Some (pa_page, perm) when Mmu.allows perm access ->
            ignore (install t ~el ~va_page ~pa_page ~perm : entry);
            Int64.logor (Int64.shift_left pa_page 12) (Int64.logand va 0xfffL)
        | _ -> (
            (* denied or unmapped: real walk for the exact fault kind *)
            match Mmu.translate t.mmu ~el ~access va with
            | Ok pa -> pa
            | Error f -> raise (Translate_fault f)))
  end

let translate t ~el ~access va =
  match translate_exn t ~el ~access va with
  | pa -> Ok pa
  | exception Translate_fault f -> Error f

(* Whole-access fast paths: a micro-TLB hit resolves a 64-bit load or
   store directly against the memoized frame bytes, skipping the PA
   reconstruction and the frame table. Accesses that straddle a page
   boundary (offset > 4088) and every miss fall back to the exact
   translate-then-[Mem] path; stores still run the write hooks via
   [Mem.notify_store], so invalidation sees them. *)
let read64_exn t ~el va =
  if (not t.enabled) || el = El.El2 then
    Mem.read64 t.mem (translate_exn t ~el ~access:Mmu.Read va)
  else begin
    sync t;
    let off = Int64.to_int va land 0xfff in
    let va_page = Int64.to_int (Int64.shift_right_logical va 12) in
    match t.slots.(slot_of ~el va_page) with
    | Some e
      when e.e_va_page = va_page && e.e_el = el && e.e_perm.Mmu.r && off <= 4088
      ->
        t.c.c_tlb_hits <- t.c.c_tlb_hits + 1;
        Bytes.get_int64_le (frame_of_entry t e) off
    | _ -> Mem.read64 t.mem (translate_exn t ~el ~access:Mmu.Read va)
  end

let write64_exn t ~el va v =
  if (not t.enabled) || el = El.El2 then
    Mem.write64 t.mem (translate_exn t ~el ~access:Mmu.Write va) v
  else begin
    sync t;
    let off = Int64.to_int va land 0xfff in
    let va_page = Int64.to_int (Int64.shift_right_logical va 12) in
    match t.slots.(slot_of ~el va_page) with
    | Some e
      when e.e_va_page = va_page && e.e_el = el && e.e_perm.Mmu.w && off <= 4088
      ->
        t.c.c_tlb_hits <- t.c.c_tlb_hits + 1;
        Bytes.set_int64_le (frame_of_entry t e) off v;
        Mem.notify_store t.mem e.e_frame_idx
    | _ -> Mem.write64 t.mem (translate_exn t ~el ~access:Mmu.Write va) v
  end

(* Fill path for the trace tier's per-op page caches: resolve the page
   backing [va] for [access] and hand out its frame bytes and frame
   index. Frame byte buffers are stable for the life of the [Mem]
   (see [Mem.frame_bytes]), so the caller may keep the pair for as
   long as the MMU generation stands still — any translation or
   permission change advances it, and the trace tier kills the owning
   block before its next dispatch. *)
let data_page t ~el ~access va =
  if (not t.enabled) || el = El.El2 then None
  else begin
    sync t;
    let va_page = Int64.to_int (Int64.shift_right_logical va 12) in
    match t.slots.(slot_of ~el va_page) with
    | Some e
      when e.e_va_page = va_page && e.e_el = el && Mmu.allows e.e_perm access
      ->
        Some (frame_of_entry t e, e.e_frame_idx)
    | _ -> (
        match Mmu.probe t.mmu ~el (Int64.of_int va_page) with
        | Some (pa_page, perm) when Mmu.allows perm access ->
            let e = install t ~el ~va_page ~pa_page ~perm in
            Some (frame_of_entry t e, e.e_frame_idx)
        | _ -> None)
  end
