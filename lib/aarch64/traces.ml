(* Superblock trace cache: hotness detection, block storage and chaining
   metadata for the traces execution tier.

   Parametric in the compiled representation: the CPU layer chains the
   ops of straight-line guest code into closures and drives them; this
   module never looks inside 'code. It keeps no coherence machinery of
   its own: blocks are built only from icache lines, so the CPU
   registers [flush] with [Icache.on_stale], and every event that can
   make a block stale (a store to a frame holding decoded lines, a
   moved MMU generation, an MSR that flushes) kills every block here.

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

type 'code t = {
  slots : 'code block option array;  (* direct-mapped on (EL, entry PC) *)
  (* per-entry execution counters, keyed by EL-tagged entry PC; the
     blacklist shares the table as a sentinel value *)
  counts : (int64, int) Hashtbl.t;
  c : stats;
}

let slot_count = 1024
let el_index = function El.El0 -> 0 | El.El1 -> 1 | El.El2 -> 2

(* Same Fibonacci-multiply spread as the icache's slot hash: entry PCs
   are 4-aligned and cluster at power-of-two distances, which plain
   masking would collide. *)
let slot_of ~el pc =
  ((((Int64.to_int pc lsr 2) * 0x61C8_8647) lsr 13) * 3 + el_index el)
  land (slot_count - 1)

(* Entry PCs are instruction-aligned, so the low two bits are free to
   carry the EL tag — no tuple allocation per hotness bump. *)
let[@inline] key ~el pc = Int64.logor pc (Int64.of_int (el_index el))

(* Counter value marking an entry as uncompilable. *)
let black = min_int

(* Boundary executions of an entry PC before it counts as hot. *)
let hot_threshold = 16

let create () =
  {
    slots = Array.make slot_count None;
    counts = Hashtbl.create 256;
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

(* The hotness counters survive: a flush runs on every store to code,
   and a self-patching loop must still heat up and compile. *)
let flush t =
  Array.iteri
    (fun i slot ->
      match slot with
      | Some b ->
          kill t b;
          t.slots.(i) <- None
      | None -> ())
    t.slots;
  t.c.flushes <- t.c.flushes + 1

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
  t.c.blacklisted <- t.c.blacklisted + 1

let install t ~el ~entry ~len code =
  let slot = slot_of ~el entry in
  (match t.slots.(slot) with Some old -> kill t old | None -> ());
  let b =
    { bk_el = el; bk_entry = entry; bk_len = len; bk_code = code; bk_live = true;
      bk_next = None }
  in
  t.slots.(slot) <- Some b;
  t.c.compiled <- t.c.compiled + 1;
  b

let link t b succ =
  b.bk_next <- Some succ;
  t.c.chain_links <- t.c.chain_links + 1

let counters t = t.c

(* a copy: the live record keeps counting *)
let stats t = { t.c with compiled = t.c.compiled }
