(* Superblock trace cache: hotness detection, block storage and chaining
   metadata for the traces execution tier.

   Parametric in the compiled representation: the CPU layer chains the
   ops of straight-line guest code into closures and drives them; this
   module never looks inside 'code. It keeps no coherence machinery of
   its own: blocks are built only from icache lines, so the CPU
   registers [flush] with [Icache.on_stale], and every event that can
   make a block stale (a store to a frame holding decoded lines, a
   moved MMU generation, an MSR that flushes) kills every block here.

   One table holds one state per (EL, entry PC). Nothing evicts a
   block: only a flush or the size bound kills it, and both take it out
   of the table, so a block in the table is live and a live block is in
   the table, where the next flush finds it.

   Blocks die in place (bk_live <- false) instead of being unlinked:
   the driver re-checks liveness after stores, which is what makes a
   store *inside* an active superblock abort the rest of the block —
   the interpreter-equivalent of re-fetching after every retirement. *)

type 'code block = {
  bk_el : El.t;
  bk_entry : int64;
  bk_len : int;  (* guest instructions retired by a full run *)
  bk_code : 'code;
  mutable bk_live : bool;
  mutable bk_next : 'code block option;  (* chained successor, a hint *)
}

type stats = {
  mutable compiled : int;
  mutable executed : int;
  mutable block_insns : int;
  mutable invalidations : int;
  mutable flushes : int;
  mutable chain_links : int;
  mutable chain_follows : int;
  mutable blacklisted : int;
}

(* An entry's heat until it is hot, then its block or the mark that
   it cannot start one. *)
type 'code state = Heat of { mutable heat : int } | Block of 'code block | Black

module Tbl = Icache.Tbl

type 'code t = { states : 'code state Tbl.t; c : stats }

let el_index = function El.El0 -> 0 | El.El1 -> 1 | El.El2 -> 2

(* A 4-aligned PC whose bit 63 equals bit 62 is exact as a native int,
   with its low two bits free for the EL. Every other PC gets [no_key],
   under which no state is ever stored: a misaligned PC cannot be
   fetched, and the bit-63 twin of a keyed PC must neither find its
   block nor touch its heat. *)
let no_key = 3

let[@inline] key ~el pc =
  let i = Int64.to_int pc in
  if i land 3 = 0 && Int64.equal (Int64.of_int i) pc then i lor el_index el else no_key

(* Boundary executions of an entry PC before it counts as hot. *)
let hot_threshold = 16

let max_states = 16384

let create () =
  {
    states = Tbl.create 256;
    c =
      {
        compiled = 0;
        executed = 0;
        block_insns = 0;
        invalidations = 0;
        flushes = 0;
        chain_links = 0;
        chain_follows = 0;
        blacklisted = 0;
      };
  }

let kill t b =
  b.bk_live <- false;
  t.c.invalidations <- t.c.invalidations + 1

(* Heat and blacklist marks survive: a flush runs on every store to
   code, and a self-patching loop must still heat up and compile. *)
let flush t =
  Tbl.filter_map_inplace
    (fun _ s -> match s with Block b -> kill t b; None | Heat _ | Black -> Some s)
    t.states;
  t.c.flushes <- t.c.flushes + 1

let find t ~el pc =
  match Tbl.find t.states (key ~el pc) with
  | Block b -> b
  | Heat _ | Black -> raise Not_found

let bump t ~el pc =
  let k = key ~el pc in
  match Tbl.find t.states k with
  | Heat h ->
      h.heat <- h.heat + 1;
      h.heat >= hot_threshold
  | Block _ | Black -> false
  | exception Not_found ->
      if k <> no_key then begin
        (* bound the table so pathological entry churn (a fuzzer walking
           fresh addresses forever) cannot grow it without limit; every
           block dies before the table starts over *)
        if Tbl.length t.states >= max_states then begin
          Tbl.iter (fun _ s -> match s with Block b -> kill t b | Heat _ | Black -> ()) t.states;
          Tbl.reset t.states
        end;
        Tbl.add t.states k (Heat { heat = 1 })
      end;
      false

let blacklist t ~el pc =
  Tbl.replace t.states (key ~el pc) Black;
  t.c.blacklisted <- t.c.blacklisted + 1

let install t ~el ~entry ~len code =
  let b =
    { bk_el = el; bk_entry = entry; bk_len = len; bk_code = code; bk_live = true;
      bk_next = None }
  in
  Tbl.replace t.states (key ~el entry) (Block b);
  t.c.compiled <- t.c.compiled + 1;
  b

let link t b succ =
  b.bk_next <- Some succ;
  t.c.chain_links <- t.c.chain_links + 1

let counters t = t.c

(* a copy: the live record keeps counting *)
let stats t = { t.c with compiled = t.c.compiled }
