(* Decoded-instruction cache for the single-step path, and the one
   owner of code-cache coherence.

   Purely a host-speed structure: nothing here is guest-visible. Cycle
   charges, telemetry counters, fault kinds and all architectural state
   must be bit-identical with the cache on or off — the differential
   harness in test/test_icache.ml holds this line.

   Entries are keyed by (EL, VA page), not by physical frame: decoded
   instructions embed absolute branch/ADR targets computed from the PC
   at decode time, so the same physical word mapped at two virtual
   addresses decodes to two different [Insn.t] values. A line holds the
   decoded instruction and the op the CPU's compiler built for it at
   fill, for the entry's EL and the line's address; the cache never
   looks inside an op. Each entry also memoizes the combined two-stage
   permission triple and the frame's bytes, which the ops' page caches
   refill from ([data_page]).

   The entries live in one keyed table and nothing evicts them: an
   entry leaves only through a store to its frame (entries that hold
   decoded lines) or a flush, and both run the [on_stale] hooks.

   Coherence has three channels:
   - a [Mem] write hook drops every entry whose decoded lines shadow
     the written frame (guest stores, host [Kmem] writes,
     fault-injector memory flips and every frame a snapshot restore
     reverts all funnel through [Mem]);
   - the [Mmu] generation counter: any map/unmap/stage-2 change, or a
     restore that refills the tables, flushes everything at the next
     lookup;
   - an explicit [flush] the CPU issues on writes to the MMU-control
     system registers (TTBR0/TTBR1/SCTLR) and CONTEXTIDR (ASID rolls).

   Trace blocks are built only from this cache's lines, so every event
   that can make a block stale passes through here first: the [on_stale]
   hooks (each traces core's flush) run on every flush and on every
   store to a frame whose decoded lines are cached.

   A snapshot restore adds no flush of its own: the first two channels
   cover everything it reverts, so the caches stay warm across fault
   trials.

   PAuth key-register writes deliberately do NOT flush: keys affect
   PAC computation at execute time, never decode or translation, so the
   affected-line set is empty — and the XOM key setter rewrites all
   five keys on every kernel entry, which would otherwise wipe the
   cache continuously. *)

type 'op line = { insn : Insn.t; op : 'op }

type 'op entry = {
  e_key : int;  (* its key in [entries] *)
  e_perm : Mmu.perm;  (* combined stage-1 AND stage-2 permissions *)
  e_frame_idx : int;  (* the physical frame number — exact, 52 bits *)
  (* the physical frame's backing bytes, memoized on the first data
     access so cached loads/stores skip both PA reconstruction and the
     frame table (the same trick a real TLB plays by caching the host
     address); [Bytes.empty] until then *)
  mutable e_frame : Bytes.t;
  (* decoded lines for the page, lazily allocated on the first
     instruction fetch; [||] marks a translation-only (data) entry *)
  mutable e_lines : 'op line option array;
}

let no_frame = Bytes.create 0

type stats = {
  mutable fetch_hits : int;
  mutable fetch_misses : int;
  mutable fills : int;
  mutable invalidations : int;
  mutable flushes : int;
}

(* Exact int keys, spread by a golden-ratio multiply: the product's
   high half mixes every key bit into the low bits a table indexes by. *)
module Tbl = Hashtbl.Make (struct
  type t = int
  let equal = Int.equal
  let hash k = (k * 0x61C8_8646_80B5_83EB) lsr 31
end)

type 'op t = {
  enabled : bool;
  compile : Insn.t -> el:El.t -> next:int64 -> 'op;
  entries : 'op entry Tbl.t;  (* exact on (EL, VA page) *)
  (* frame index -> the entries whose decoded lines shadow that frame *)
  by_frame : 'op entry list Tbl.t;
  (* Bloom filter over the registered frame indices: a store whose
     frame bit is clear definitely shadows no decoded lines and skips
     the [by_frame] lookup. Registration sets bits; only [flush]
     clears them. *)
  mutable reg_mask : int;
  mutable gen : int;  (* Mmu generation observed at the last lookup *)
  mutable stale_hooks : (unit -> unit) list;
  mem : Mem.t;
  mmu : Mmu.t;
  c : stats;
}

type fetch_error = Fetch_fault of Mmu.fault | Fetch_undefined of int32

(* The raising fetch API exists for the CPU's run loop: a
   [result] return would allocate an [Ok] block per retired
   instruction. Faults are rare, so they pay the exception instead. *)
exception Fetch_stop of fetch_error

let lines_per_page = 1024  (* 4 KiB / 4-byte instructions *)

let el_index = function El.El0 -> 0 | El.El1 -> 1 | El.El2 -> 2

(* A VA page is 52 bits, so the EL fits beside it and the key is
   exact. *)
let[@inline] key ~el va_page = (va_page lsl 2) lor el_index el

(* Golden-ratio spread of a frame index onto one of 32 filter bits. *)
let[@inline] bloom_bit frame = 1 lsl ((frame * 0x61C8_8647) lsr 5 land 31)

let run_stale_hooks t = List.iter (fun h -> h ()) t.stale_hooks

let flush t =
  Tbl.reset t.entries;
  Tbl.reset t.by_frame;
  t.reg_mask <- 0;
  t.c.flushes <- t.c.flushes + 1;
  run_stale_hooks t

(* Runs on every store; almost always a miss, so the Bloom filter
   screens out frames that never held decoded lines before paying the
   table lookup. *)
let on_store t frame =
  if t.reg_mask land bloom_bit frame <> 0 then
    match Tbl.find t.by_frame frame with
    | entries ->
        Tbl.remove t.by_frame frame;
        List.iter (fun e -> Tbl.remove t.entries e.e_key) entries;
        t.c.invalidations <- t.c.invalidations + List.length entries;
        run_stale_hooks t
    | exception Not_found -> ()

let create ?(enabled = true) ~compile ~mem ~mmu () =
  let t =
    {
      enabled;
      compile;
      entries = Tbl.create 64;
      by_frame = Tbl.create 64;
      reg_mask = 0;
      gen = Mmu.generation mmu;
      stale_hooks = [];
      mem;
      mmu;
      c = { fetch_hits = 0; fetch_misses = 0; fills = 0; invalidations = 0; flushes = 0 };
    }
  in
  Mem.add_write_hook mem (fun frame -> on_store t frame);
  t

let enabled t = t.enabled
let on_stale t h = t.stale_hooks <- t.stale_hooks @ [ h ]

(* a copy: the live record keeps counting *)
let stats t = { t.c with fetch_hits = t.c.fetch_hits }

(* Discard everything when translation tables changed underneath us.
   The generation is recorded first, so a stale hook that looks
   something up finds the cache in sync. *)
let sync t =
  let g = Mmu.generation t.mmu in
  if g <> t.gen then begin
    t.gen <- g;
    flush t
  end

(* The entry of a page no lookup has found since the last flush,
   probed and kept. An unmapped page gets a denied entry that is not
   kept, so a fault on it takes the real walk. *)
let fill t ~el k va_page =
  match Mmu.probe t.mmu ~el (Int64.of_int va_page) with
  | Some (pa_page, perm) ->
      let e =
        { e_key = k; e_perm = perm; e_frame_idx = Int64.to_int pa_page; e_frame = no_frame;
          e_lines = [||] }
      in
      Tbl.replace t.entries k e;
      e
  | None ->
      { e_key = k; e_perm = Mmu.no_access; e_frame_idx = 0; e_frame = no_frame; e_lines = [||] }

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
   frame's contents, so stores must not drop them. *)
let lines_of t e =
  if Array.length e.e_lines = 0 then begin
    e.e_lines <- Array.make lines_per_page None;
    let f = e.e_frame_idx in
    let prev = match Tbl.find t.by_frame f with l -> l | exception Not_found -> [] in
    Tbl.replace t.by_frame f (e :: prev);
    t.reg_mask <- t.reg_mask lor bloom_bit f
  end;
  e.e_lines

(* Decode and compile one line. Decode failures raise and are never
   cached: the undefined word is re-read on every attempt. *)
let decode_line_exn t ~el pc word =
  match Encode.decode ~pc word with
  | None -> raise (Fetch_stop (Fetch_undefined word))
  | Some insn -> { insn; op = t.compile insn ~el ~next:(Int64.add pc 4L) }

(* The uncached path compiles a fresh line on every fetch. *)
let uncached_fetch_exn t ~el pc =
  match Mmu.translate t.mmu ~el ~access:Mmu.Exec pc with
  | Error f -> raise (Fetch_stop (Fetch_fault f))
  | Ok pa -> decode_line_exn t ~el pc (Mem.read32 t.mem pa)

(* Fill or hit one line of an executable entry. [off] is the page
   offset of the PC as a native int (low 12 bits are unaffected by the
   63-bit truncation). *)
let line_fetch_exn t ~el e pc off =
  let lines = lines_of t e in
  let i = off lsr 2 in
  match Array.unsafe_get lines i with
  | Some line ->
      t.c.fetch_hits <- t.c.fetch_hits + 1;
      line
  | None ->
      t.c.fills <- t.c.fills + 1;
      let pa = Int64.logor (Int64.shift_left (Int64.of_int e.e_frame_idx) 12) (Int64.of_int off) in
      let line = decode_line_exn t ~el pc (Mem.read32 t.mem pa) in
      Array.unsafe_set lines i (Some line);
      line

let fetch_exn t ~el pc =
  if (not t.enabled) || el = El.El2 then uncached_fetch_exn t ~el pc
  else begin
    sync t;
    let va_page = Int64.to_int (Int64.shift_right_logical pc 12) in
    let off = Int64.to_int pc land 0xfff in
    let k = key ~el va_page in
    let e =
      match Tbl.find t.entries k with
      | e -> e
      | exception Not_found ->
          t.c.fetch_misses <- t.c.fetch_misses + 1;
          fill t ~el k va_page
    in
    if e.e_perm.Mmu.x && off land 3 = 0 then line_fetch_exn t ~el e pc off
    else
      (* unmapped, not executable, or a misaligned PC: take the real
         walk so the fault kind is exact *)
      uncached_fetch_exn t ~el pc
  end

let fetch t ~el pc =
  match fetch_exn t ~el pc with
  | line -> Ok line
  | exception Fetch_stop e -> Error e

exception Translate_fault of Mmu.fault

let translate_exn t ~el ~access va =
  match Mmu.translate t.mmu ~el ~access va with
  | Ok pa -> pa
  | Error f -> raise (Translate_fault f)

(* Fill path for the per-op page caches: resolve the page backing [va]
   for [access] and hand out its frame bytes and frame index. Frame
   byte buffers are stable for the life of the [Mem] (see
   [Mem.frame_bytes]), so the caller may keep the pair for as long as
   the MMU generation stands still — any translation or permission
   change advances it, which flushes every line (and so every op) here
   at the next lookup. *)
let data_page t ~el ~access va =
  if (not t.enabled) || el = El.El2 then None
  else begin
    sync t;
    let va_page = Int64.to_int (Int64.shift_right_logical va 12) in
    let k = key ~el va_page in
    let e = match Tbl.find t.entries k with e -> e | exception Not_found -> fill t ~el k va_page in
    if Mmu.allows e.e_perm access then Some (frame_of_entry t e, e.e_frame_idx) else None
  end
