(* Superblock trace cache: hotness detection, block storage, chaining
   metadata and invalidation for the traces execution tier.

   Parametric in the compiled representation: the CPU layer chains the
   ops of straight-line guest code into closures and drives them; this
   module never looks inside 'code. What it owns is the part that must
   be exactly right — the invalidation contract, which is the PR 5
   icache machinery reused wholesale:

   - a [Mem] write hook kills every block whose code spans the written
     frame (guest stores, host [Kmem] writes, fault-injector flips,
     frames a snapshot restore reverts), screened by the same 32-bit
     golden-ratio Bloom filter;
   - the [Mmu] generation counter flushes everything at the next [sync]
     after any map/unmap/stage-2 change, or a snapshot restore that
     refills the tables;
   - an explicit [flush] on MMU-control/CONTEXTIDR writes (the CPU's
     MSR flush matrix calls it right next to [Icache.flush]).

   Blocks die in place (bk_live <- false) instead of being unlinked:
   the driver re-checks liveness between instructions, which is what
   makes a store *inside* an active superblock abort the rest of the
   block — the interpreter-equivalent of re-fetching after every
   retirement. *)

type 'code block = {
  bk_el : El.t;
  bk_entry : int64;
  bk_len : int;  (* guest instructions retired by a full run *)
  bk_code : 'code;
  bk_slot : int;
  bk_frames : int array;  (* physical frames the code was fetched from *)
  mutable bk_live : bool;
  mutable bk_next : 'code block option;  (* chained successor, a hint *)
}

type stats = {
  compiled : int;
  executed : int;
  block_insns : int;
  invalidations : int;
  flushes : int;
  chain_links : int;
  chain_follows : int;
  blacklisted : int;
}

type counters = {
  mutable c_compiled : int;
  mutable c_executed : int;
  mutable c_block_insns : int;
  mutable c_invalidations : int;
  mutable c_flushes : int;
  mutable c_chain_links : int;
  mutable c_chain_follows : int;
  mutable c_blacklisted : int;
}

type 'code t = {
  slots : 'code block option array;  (* direct-mapped on (EL, entry PC) *)
  (* frame index -> blocks whose code shadows that frame *)
  by_frame : (int, 'code block list) Hashtbl.t;
  (* Bloom filter over registered frames, same scheme as the icache:
     registration sets bits, only [flush] clears them *)
  mutable reg_mask : int;
  (* per-entry execution counters, keyed by EL-tagged entry PC; the
     blacklist shares the table as a sentinel value *)
  counts : (int64, int) Hashtbl.t;
  mutable gen : int;  (* Mmu generation observed at the last sync *)
  mmu : Mmu.t;
  c : counters;
}

let slot_count = 1024
let el_index = function El.El0 -> 0 | El.El1 -> 1 | El.El2 -> 2

(* Same Fibonacci-multiply spread as the icache's slot hash: entry PCs
   are 4-aligned and cluster at power-of-two distances, which plain
   masking would collide. *)
let slot_of ~el pc =
  ((((Int64.to_int pc lsr 2) * 0x61C8_8647) lsr 13) * 3 + el_index el)
  land (slot_count - 1)

let[@inline] bloom_bit frame = 1 lsl ((frame * 0x61C8_8647) lsr 5 land 31)

(* Entry PCs are instruction-aligned, so the low two bits are free to
   carry the EL tag — no tuple allocation per hotness bump. *)
let[@inline] key ~el pc = Int64.logor pc (Int64.of_int (el_index el))

(* Counter value marking an entry as uncompilable. *)
let black = min_int

(* Boundary executions of an entry PC before it counts as hot. *)
let hot_threshold = 16

let create ~mem ~mmu () =
  let t =
    {
      slots = Array.make slot_count None;
      by_frame = Hashtbl.create 64;
      reg_mask = 0;
      counts = Hashtbl.create 256;
      gen = Mmu.generation mmu;
      mmu;
      c =
        {
          c_compiled = 0;
          c_executed = 0;
          c_block_insns = 0;
          c_invalidations = 0;
          c_flushes = 0;
          c_chain_links = 0;
          c_chain_follows = 0;
          c_blacklisted = 0;
        };
    }
  in
  Mem.add_write_hook mem (fun frame ->
      if t.reg_mask land bloom_bit frame <> 0 then
        match Hashtbl.find t.by_frame frame with
        | blocks ->
            Hashtbl.remove t.by_frame frame;
            List.iter
              (fun b ->
                if b.bk_live then begin
                  b.bk_live <- false;
                  t.c.c_invalidations <- t.c.c_invalidations + 1
                end;
                match t.slots.(b.bk_slot) with
                | Some b' when b' == b -> t.slots.(b.bk_slot) <- None
                | _ -> ())
              blocks
        | exception Not_found -> ());
  t

let flush t =
  Array.iteri
    (fun i slot ->
      match slot with
      | Some b ->
          b.bk_live <- false;
          t.slots.(i) <- None
      | None -> ())
    t.slots;
  Hashtbl.reset t.by_frame;
  t.reg_mask <- 0;
  Hashtbl.reset t.counts;
  t.c.c_flushes <- t.c.c_flushes + 1

let sync t =
  let g = Mmu.generation t.mmu in
  if g <> t.gen then begin
    flush t;
    t.gen <- g
  end

let lookup t ~el pc =
  match t.slots.(slot_of ~el pc) with
  | Some b when b.bk_live && b.bk_el = el && Int64.equal b.bk_entry pc -> Some b
  | _ -> None

let bump t ~el pc =
  let k = key ~el pc in
  match Hashtbl.find_opt t.counts k with
  | Some n when n = black -> false
  | Some n ->
      if n + 1 >= hot_threshold then begin
        Hashtbl.remove t.counts k;
        true
      end
      else begin
        Hashtbl.replace t.counts k (n + 1);
        false
      end
  | None ->
      (* bound the table so pathological entry churn (a fuzzer walking
         fresh addresses forever) cannot grow it without limit; losing
         warm counts only delays compilation, never breaks it *)
      if Hashtbl.length t.counts >= 16384 then Hashtbl.reset t.counts;
      Hashtbl.add t.counts k 1;
      false

let blacklist t ~el pc =
  Hashtbl.replace t.counts (key ~el pc) black;
  t.c.c_blacklisted <- t.c.c_blacklisted + 1

(* Remove a block's frame registrations (slot-eviction path; the store
   hook removes whole per-frame lists instead). *)
let unregister t b =
  Array.iter
    (fun f ->
      match Hashtbl.find_opt t.by_frame f with
      | None -> ()
      | Some l -> (
          match List.filter (fun x -> x != b) l with
          | [] -> Hashtbl.remove t.by_frame f
          | l' -> Hashtbl.replace t.by_frame f l'))
    b.bk_frames

let install t ~el ~entry ~len ~frames code =
  let slot = slot_of ~el entry in
  (match t.slots.(slot) with
  | Some old ->
      old.bk_live <- false;
      unregister t old;
      t.c.c_invalidations <- t.c.c_invalidations + 1
  | None -> ());
  let b =
    {
      bk_el = el;
      bk_entry = entry;
      bk_len = len;
      bk_code = code;
      bk_slot = slot;
      bk_frames = Array.of_list frames;
      bk_live = true;
      bk_next = None;
    }
  in
  t.slots.(slot) <- Some b;
  Array.iter
    (fun f ->
      let prev =
        match Hashtbl.find_opt t.by_frame f with Some l -> l | None -> []
      in
      Hashtbl.replace t.by_frame f (b :: prev);
      t.reg_mask <- t.reg_mask lor bloom_bit f)
    b.bk_frames;
  t.c.c_compiled <- t.c.c_compiled + 1;
  b

let link t b succ =
  b.bk_next <- Some succ;
  t.c.c_chain_links <- t.c.c_chain_links + 1

let counters t = t.c

let stats t =
  {
    compiled = t.c.c_compiled;
    executed = t.c.c_executed;
    block_insns = t.c.c_block_insns;
    invalidations = t.c.c_invalidations;
    flushes = t.c.c_flushes;
    chain_links = t.c.c_chain_links;
    chain_follows = t.c.c_chain_follows;
    blacklisted = t.c.c_blacklisted;
  }
