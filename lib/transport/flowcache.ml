(* Direct-mapped flow cache over a pair of integer keys.

   The fast path (after OVS megaflows / NuevoMatchUP computational
   caches) needs a tiny associative map probed once per chunk: the
   connection-level cache keyed on C.ID.  It wants an O(1) probe with
   zero allocation on hit or miss, explicit invalidation, and cheap
   statistics.

   Direct-mapped (one entry per slot, insert displaces) rather than
   set-associative: the point of the cache is the Zipf head, where a
   handful of hot flows dominate; conflict misses on the tail just fall
   back to the always-correct slow path.  Keys and values live in
   parallel arrays so a probe touches two int cells before ever looking
   at the value. *)

type 'a t = {
  slots : int;  (* 0 = capacity-0 reference mode: stores nothing *)
  mask : int;
  shift : int;  (* 63 - log2 of the table size (at least 1) *)
  k1s : int array;
  k2s : int array;
  vals : 'a option array;
  mutable hits : int;
  mutable misses : int;
  mutable insertions : int;
  mutable invalidations : int;
  mutable evictions : int;
  (* Counters already flushed into the global [Obs] mirrors.  The
     mirrors are refreshed lazily, when [stats] is read: a per-probe
     atomic increment would cost more than the probe itself. *)
  mutable flushed : int array;
  c_hits : Obs.Metrics.counter;
  c_misses : Obs.Metrics.counter;
  c_insertions : Obs.Metrics.counter;
  c_invalidations : Obs.Metrics.counter;
  c_evictions : Obs.Metrics.counter;
}

type stats = {
  s_hits : int;
  s_misses : int;
  s_insertions : int;
  s_invalidations : int;
  s_evictions : int;
}

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (k * 2)
let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2)

(* A capacity-0 cache keeps one sentinel slot that [insert] never
   writes, so [find] and [invalidate] need no branch of their own: no
   key ever matches.  Only the miss counter and [insert] test [slots]. *)
let create ~name ~slots () =
  if slots < 0 then invalid_arg "Flowcache.create: slots must be >= 0";
  let n = pow2_at_least slots 1 in
  let metric suffix =
    Obs.Metrics.counter (Printf.sprintf "flowcache_%s_%s_total" name suffix)
  in
  {
    slots = (if slots = 0 then 0 else n);
    mask = n - 1;
    shift = 63 - max 1 (log2 n);
    k1s = Array.make n (-1);
    k2s = Array.make n (-1);
    vals = Array.make n None;
    hits = 0;
    misses = 0;
    insertions = 0;
    invalidations = 0;
    evictions = 0;
    flushed = Array.make 5 0;
    c_hits = metric "hits";
    c_misses = metric "misses";
    c_insertions = metric "insertions";
    c_invalidations = metric "invalidations";
    c_evictions = metric "evictions";
  }

let slots c = c.slots

(* Fibonacci hashing: the key pair folded into one word, multiplied by
   2^63 / golden ratio, and the slot taken from the {e high} bits of
   the product — every key bit reaches them, while a product's low bits
   depend only on the key's low bits.  Sequential IDs, the common
   benign case, land about 0.618 of a table apart, in distinct slots
   whenever the table holds them.  The keys are wire-supplied 32-bit
   IDs, so an attacker controls them — the mix only has to spread
   benign traffic, hostile traffic degenerates to slow path, never to
   wrong answers. *)
let index c ~k1 ~k2 =
  let h = (k1 + (k2 * 0x2545F4914F6CDD1D)) * 0x4F1BBCDCBFA53E0B in
  (h lsr c.shift) land c.mask

(* [index] masks into the arrays, so unsafe reads below are in bounds
   by construction.  Occupancy lives in the key arrays alone: empty
   slots hold the [-1] sentinel (keys are wire u32s, so never negative
   — [insert] enforces it), and a key match therefore implies the slot
   holds a value.  [find] then returns the stored option without
   inspecting it: one load and no branch beyond the key compare. *)
let find c ~k1 ~k2 =
  let i = index c ~k1 ~k2 in
  if Array.unsafe_get c.k1s i = k1 && Array.unsafe_get c.k2s i = k2 then begin
    c.hits <- c.hits + 1;
    Array.unsafe_get c.vals i
  end
  else begin
    if c.slots > 0 then c.misses <- c.misses + 1;
    None
  end

let insert c ~k1 ~k2 v =
  if k1 < 0 || k2 < 0 then
    invalid_arg "Flowcache.insert: keys are non-negative wire IDs";
  if c.slots > 0 then begin
    let i = index c ~k1 ~k2 in
    let old1 = Array.unsafe_get c.k1s i in
    if old1 >= 0 && not (old1 = k1 && Array.unsafe_get c.k2s i = k2) then
      c.evictions <- c.evictions + 1;
    Array.unsafe_set c.k1s i k1;
    Array.unsafe_set c.k2s i k2;
    c.vals.(i) <- Some v;
    c.insertions <- c.insertions + 1
  end

let invalidate c ~k1 ~k2 =
  let i = index c ~k1 ~k2 in
  if Array.unsafe_get c.k1s i = k1 && Array.unsafe_get c.k2s i = k2 then begin
    Array.unsafe_set c.k1s i (-1);
    c.vals.(i) <- None;
    (* the key is the occupancy bit; [None] just releases the value *)
    c.invalidations <- c.invalidations + 1
  end

let clear c =
  let n = Array.length c.vals in
  let dropped = ref 0 in
  for i = 0 to n - 1 do
    if c.k1s.(i) >= 0 then begin
      c.k1s.(i) <- -1;
      c.vals.(i) <- None;
      incr dropped
    end
  done;
  c.invalidations <- c.invalidations + !dropped

let stats c =
  if Obs.enabled then begin
    let flush j counter v =
      Obs.Metrics.add counter (v - c.flushed.(j));
      c.flushed.(j) <- v
    in
    flush 0 c.c_hits c.hits;
    flush 1 c.c_misses c.misses;
    flush 2 c.c_insertions c.insertions;
    flush 3 c.c_invalidations c.invalidations;
    flush 4 c.c_evictions c.evictions
  end;
  {
    s_hits = c.hits;
    s_misses = c.misses;
    s_insertions = c.insertions;
    s_invalidations = c.invalidations;
    s_evictions = c.evictions;
  }

let zero_stats =
  {
    s_hits = 0;
    s_misses = 0;
    s_insertions = 0;
    s_invalidations = 0;
    s_evictions = 0;
  }

(* Counters are non-negative, so the only overflow is past [max_int];
   saturate there instead of wrapping to a negative total — a soak
   aggregating reports forever should read "pegged", not garbage. *)
let sat_add a b = let s = a + b in if s < 0 then max_int else s

let add_stats a b =
  {
    s_hits = sat_add a.s_hits b.s_hits;
    s_misses = sat_add a.s_misses b.s_misses;
    s_insertions = sat_add a.s_insertions b.s_insertions;
    s_invalidations = sat_add a.s_invalidations b.s_invalidations;
    s_evictions = sat_add a.s_evictions b.s_evictions;
  }

let hit_rate s =
  let total = s.s_hits + s.s_misses in
  if total = 0 then 0.0 else float_of_int s.s_hits /. float_of_int total
