(* The flow-cache fast path is pure acceleration: unit tests of the
   cache structure itself (including the capacity-0 reference mode),
   fuzz agreement of the structural scanner and [Wire.decode_packet]
   with an independent reference decoder, and properties pinning
   cache-on [Multi.ingest] to byte-identical delivery with cache-off
   [Multi.ingest] under packet permutation, epoch reuse, crash-restore
   and thrown exceptions.  The receive path reads packets in place, so
   it also gets buffer-ownership properties (for [Multi.ingest_batch]
   and [Receiver.ingest]) and allocation bounds on its payload-free
   outcomes. *)

open Labelling
module CT = Transport.Chunk_transport
module FC = Transport.Flowcache

(* --- the cache structure ------------------------------------------ *)

let test_cache_basics () =
  let c = FC.create ~name:"test-basics" ~slots:8 () in
  Alcotest.(check int) "slots rounded to a power of two" 8 (FC.slots c);
  Alcotest.(check bool) "empty cache misses" true (FC.find c ~k1:3 ~k2:9 = None);
  FC.insert c ~k1:3 ~k2:9 "v";
  Alcotest.(check (option string)) "hit after insert" (Some "v")
    (FC.find c ~k1:3 ~k2:9);
  Alcotest.(check bool) "other key still misses" true
    (FC.find c ~k1:3 ~k2:10 = None);
  FC.invalidate c ~k1:3 ~k2:9;
  Alcotest.(check bool) "miss after invalidate" true
    (FC.find c ~k1:3 ~k2:9 = None);
  let s = FC.stats c in
  Alcotest.(check int) "hits" 1 s.FC.s_hits;
  Alcotest.(check int) "misses" 3 s.FC.s_misses;
  Alcotest.(check int) "insertions" 1 s.FC.s_insertions;
  Alcotest.(check int) "invalidations" 1 s.FC.s_invalidations;
  Alcotest.(check (float 1e-9)) "hit rate" 0.25 (FC.hit_rate s)

let test_cache_eviction () =
  (* direct-mapped: some other key must land in key 1's slot; inserting
     it displaces the older entry and counts one eviction *)
  let c = FC.create ~name:"test-evict" ~slots:8 () in
  FC.insert c ~k1:1 ~k2:0 1;
  let rec displace k =
    if k > 10_000 then Alcotest.fail "no colliding key found"
    else begin
      FC.insert c ~k1:k ~k2:0 k;
      if FC.find c ~k1:1 ~k2:0 = None then k else displace (k + 1)
    end
  in
  let k = displace 2 in
  Alcotest.(check (option int)) "displacing key resident" (Some k)
    (FC.find c ~k1:k ~k2:0);
  Alcotest.(check bool) "eviction counted" true
    ((FC.stats c).FC.s_evictions >= 1)

let test_cache_negative_key_rejected () =
  let c = FC.create ~name:"test-neg" ~slots:4 () in
  Alcotest.check_raises "negative keys are reserved"
    (Invalid_argument "Flowcache.insert: keys are non-negative wire IDs")
    (fun () -> FC.insert c ~k1:(-1) ~k2:0 ())

let test_cache_clear () =
  let c = FC.create ~name:"test-clear" ~slots:16 () in
  for k = 1 to 5 do
    FC.insert c ~k1:k ~k2:7 k
  done;
  FC.clear c;
  for k = 1 to 5 do
    Alcotest.(check bool) "cleared" true (FC.find c ~k1:k ~k2:7 = None)
  done;
  (* every inserted entry either survived to be cleared (invalidation)
     or was displaced by a colliding insert (eviction) *)
  let s = FC.stats c in
  Alcotest.(check int) "all five entries accounted" 5
    (s.FC.s_invalidations + s.FC.s_evictions)

(* Capacity 0 is the reference mode: nothing is ever stored, so every
   probe misses — and nothing is counted, so a cache-off endpoint
   reports exactly [zero_stats]. *)
let test_cache_zero_slots () =
  let c = FC.create ~name:"test-zero" ~slots:0 () in
  Alcotest.(check int) "no slots" 0 (FC.slots c);
  Alcotest.(check bool) "empty probe misses" true (FC.find c ~k1:0 ~k2:0 = None);
  FC.insert c ~k1:3 ~k2:9 "v";
  Alcotest.(check bool) "insert stores nothing" true
    (FC.find c ~k1:3 ~k2:9 = None);
  FC.insert c ~k1:0 ~k2:0 "w";
  Alcotest.(check bool) "not even in the sentinel slot" true
    (FC.find c ~k1:0 ~k2:0 = None);
  FC.invalidate c ~k1:3 ~k2:9;
  FC.clear c;
  Alcotest.(check bool) "still empty after invalidate and clear" true
    (FC.find c ~k1:3 ~k2:9 = None);
  Alcotest.(check bool) "stats stay zero_stats" true
    (FC.stats c = FC.zero_stats);
  Alcotest.check_raises "negative slots still rejected"
    (Invalid_argument "Flowcache.create: slots must be >= 0")
    (fun () -> ignore (FC.create ~name:"test-zero" ~slots:(-1) ()))

(* Sequential C.IDs, the common benign assignment, each keep a slot of
   their own in a table four times their count and mostly do in a
   table of their count; strided IDs mostly do in a table four times
   their count.  (A mix that chose the slot by the product's low bits
   put C.IDs 1-16 in 5 of 64 slots.) *)
let test_cache_spread () =
  let resident ~slots keys =
    let c = FC.create ~name:"test-spread" ~slots () in
    List.iter (fun k -> FC.insert c ~k1:k ~k2:0 ()) keys;
    List.length (List.filter (fun k -> FC.find c ~k1:k ~k2:0 <> None) keys)
  in
  let at_least what pct ~slots keys =
    let n = List.length keys and r = resident ~slots keys in
    if 100 * r < pct * n then
      Alcotest.failf "%s: %d of %d keys resident in %d slots, want %d%%" what
        r n slots pct
  in
  List.iter
    (fun n ->
      let seq base = List.init n (fun i -> base + i) in
      at_least (Printf.sprintf "1..%d" n) 85 ~slots:n (seq 1);
      List.iter
        (fun base ->
          at_least (Printf.sprintf "%d sequential from %d" n base) 100
            ~slots:(4 * n) (seq base))
        [ 0; 1; 1000; 0xFFFF_0000 ];
      List.iter
        (fun stride ->
          at_least (Printf.sprintf "%d at stride %d" n stride) 60
            ~slots:(4 * n)
            (List.init n (fun i -> 1 + (stride * i))))
        [ 3; 7; 8; 64; 101; 1024; 4096 ])
    [ 16; 64; 256 ]

(* --- stats algebra ------------------------------------------------ *)

(* Soak reports fold [add_stats] over arbitrarily many runs in whatever
   grouping the loop happens to use, so the fold must not care: the
   operation is associative and commutative with [zero_stats] as
   identity, and saturates at [max_int] instead of wrapping negative. *)
let gen_stats =
  QCheck2.Gen.(
    let field = oneof [ int_range 0 1000; return max_int; return (max_int / 2) ] in
    let* s_hits = field in
    let* s_misses = field in
    let* s_insertions = field in
    let* s_invalidations = field in
    let* s_evictions = field in
    return
      { FC.s_hits; s_misses; s_insertions; s_invalidations; s_evictions })

let stats_eq (a : FC.stats) (b : FC.stats) =
  a.FC.s_hits = b.FC.s_hits
  && a.FC.s_misses = b.FC.s_misses
  && a.FC.s_insertions = b.FC.s_insertions
  && a.FC.s_invalidations = b.FC.s_invalidations
  && a.FC.s_evictions = b.FC.s_evictions

let stats_sane (s : FC.stats) =
  s.FC.s_hits >= 0 && s.FC.s_misses >= 0 && s.FC.s_insertions >= 0
  && s.FC.s_invalidations >= 0 && s.FC.s_evictions >= 0

let prop_stats_algebra =
  QCheck2.Test.make ~name:"add_stats is a commutative monoid that saturates"
    ~count:500
    QCheck2.Gen.(triple gen_stats gen_stats gen_stats)
    (fun (a, b, c) ->
      stats_eq (FC.add_stats a b) (FC.add_stats b a)
      && stats_eq
           (FC.add_stats a (FC.add_stats b c))
           (FC.add_stats (FC.add_stats a b) c)
      && stats_eq (FC.add_stats a FC.zero_stats) a
      && stats_eq (FC.add_stats FC.zero_stats a) a
      && stats_sane (FC.add_stats a (FC.add_stats b c)))

let test_stats_saturate () =
  let pegged = { FC.zero_stats with FC.s_hits = max_int } in
  let s = FC.add_stats pegged { FC.zero_stats with FC.s_hits = 1 } in
  Alcotest.(check int) "saturates at max_int, never wraps" max_int s.FC.s_hits;
  let s2 = FC.add_stats pegged pegged in
  Alcotest.(check int) "pegged + pegged stays pegged" max_int s2.FC.s_hits

(* --- scanner agreement with the decoder --------------------------- *)

(* Random garbage: mirrors [Test_fuzz.gen_garbage]. *)
let gen_garbage =
  QCheck2.Gen.(
    let* n = int_range 0 300 in
    let* seed = int_range 0 0xFFFFF in
    return
      (Bytes.init n (fun i ->
           Char.chr ((seed + (i * 2654435761)) land 0xFF))))

(* A valid packet image, optionally damaged by a random burst. *)
let gen_image =
  QCheck2.Gen.(
    let* _, chunks = Util.gen_framed_stream in
    let* damage = bool in
    let* burst_off = int_range 0 200 in
    let* burst_len = int_range 1 16 in
    let* seed = int_range 0 0xFFFF in
    let image =
      match Wire.encode_packet ~capacity:2048 chunks with
      | Ok b -> b
      | Error _ -> (
          match
            Wire.encode_packet (List.filteri (fun i _ -> i < 3) chunks)
          with
          | Ok b -> b
          | Error _ -> Bytes.create 64)
    in
    if not damage then return image
    else begin
      let b = Bytes.copy image in
      for k = 0 to burst_len - 1 do
        let i = (burst_off + k) mod Bytes.length b in
        Bytes.set b i (Char.chr ((seed + (k * 37)) land 0xFF))
      done;
      return b
    end)

(* Reference implementation: a packet decoder written straight over
   [Wire.decode_chunk], independent of [Wire.Scan].  [Wire.decode_packet]
   is built on the scanner, so the scanner is checked against this, not
   against itself. *)
let ref_decode_packet b =
  let n = Bytes.length b in
  let all_zero off =
    let rec go i = i >= n || (Bytes.get b i = '\000' && go (i + 1)) in
    go off
  in
  let rec go off acc =
    if off >= n then Ok (List.rev acc)
    else if n - off < Wire.header_size then
      if all_zero off then Ok (List.rev acc)
      else Error "ref_decode_packet: trailing garbage"
    else
      match Wire.decode_chunk b off with
      | Error _ as e -> e
      | Ok (c, off') ->
          if Chunk.is_terminator c then Ok (List.rev acc)
          else go off' (c :: acc)
  in
  go 0 []

(* [Scan.packet] and [Wire.decode_packet] accept iff the reference
   decoder does, and then the recorded offsets, cached label prefix and
   materialised chunks agree exactly with the reference chunk list. *)
let scan_agrees b =
  let scan = Wire.Scan.create () in
  let accepted = Wire.Scan.packet scan b in
  match ref_decode_packet b with
  | Error _ -> (not accepted) && Result.is_error (Wire.decode_packet b)
  | Ok chunks ->
      (match Wire.decode_packet b with
      | Ok decoded -> List.equal Chunk.equal decoded chunks
      | Error _ -> false)
      && accepted
      && Wire.Scan.count scan = List.length chunks
      && List.for_all2
           (fun i c ->
             let off = Wire.Scan.offset scan i in
             let h = c.Chunk.header in
             Chunk.equal (Wire.Scan.chunk b off) c
             && Wire.Scan.c_id_at scan i = h.Header.c.Ftuple.id
             && Wire.Scan.ctype_code_at scan i = Ctype.code h.Header.ctype
             && Wire.Scan.c_st_at scan i = h.Header.c.Ftuple.st
             && Wire.Scan.c_id b off = h.Header.c.Ftuple.id
             && Wire.Scan.c_sn b off = h.Header.c.Ftuple.sn
             && Wire.Scan.t_id b off = h.Header.t.Ftuple.id
             && Wire.Scan.t_sn b off = h.Header.t.Ftuple.sn)
           (List.init (List.length chunks) Fun.id)
           chunks

let prop_scan_garbage =
  QCheck2.Test.make
    ~name:"scan agrees with decode_packet and the reference on garbage"
    ~count:2000 gen_garbage scan_agrees

let prop_scan_images =
  QCheck2.Test.make
    ~name:"scan agrees with decode_packet and the reference on (damaged) \
           packets"
    ~count:1000 gen_image scan_agrees

(* --- Multi: cache-on vs cache-off --------------------------------- *)

let multi_config =
  { CT.default_config with CT.elem_size = 4; tpdu_elems = 16 }

let mk_multi ?anomaly_budget ?persist ?fastpath_slots () =
  let engine = Netsim.Engine.create ~seed:42 () in
  Transport.Multi.create engine ~config:multi_config ~quota_elems:4096
    ~max_conns:8 ?anomaly_budget ?persist ?fastpath_slots
    ~send_ack:(fun _ -> ())
    ()

(* The cache-off reference: the same receive path over a capacity-0
   connection cache, so every chunk takes the slow path. *)
let mk_reference ?anomaly_budget ?persist () =
  mk_multi ?anomaly_budget ?persist ~fastpath_slots:0 ()

(* One connection's wire life: Open, each sealed TPDU as its own
   packet, Close. *)
(* The stream of [nbytes] for connection [conn] as chunks: its Open,
   its sealed TPDUs (each TPDU's data chunks, then its ED chunk) and its
   Close.  With [frame], the stream is pushed as frames of that many
   bytes, so a TPDU's data comes in several chunks. *)
let conn_chunks ?(first_tid = 0) ?frame ~conn ~seed nbytes =
  let framer =
    Framer.create ~elem_size:4 ~tpdu_elems:16 ~conn_id:conn ~first_tid ()
  in
  let data =
    Bytes.init nbytes (fun i -> Char.chr ((seed + (i * 31)) land 0xFF))
  in
  let frame = Option.value frame ~default:nbytes in
  let rec push off =
    let n = Int.min frame (nbytes - off) in
    match
      Framer.push_frame ~last:(off + n = nbytes) framer (Bytes.sub data off n)
    with
    | Ok cs -> if off + n = nbytes then cs else cs @ push (off + n)
    | Error e -> failwith e
  in
  let chunks = push 0 in
  let sealed =
    match Edc.Encoder.seal_tpdus chunks with
    | Ok cs -> cs
    | Error e -> failwith e
  in
  ( data,
    Connection.signal_chunk ~conn_id:conn (Open { first_csn = first_tid }),
    sealed,
    Connection.signal_chunk ~conn_id:conn Close )

let packet cs = match Wire.encode_packet cs with Ok b -> b | Error e -> failwith e

(* The same stream with every chunk in a packet of its own. *)
let conn_packets ?first_tid ~conn ~seed nbytes =
  let data, open_c, sealed, close_c = conn_chunks ?first_tid ~conn ~seed nbytes in
  (data, List.map (fun c -> packet [ c ]) ((open_c :: sealed) @ [ close_c ]))

let epochs_equal a b =
  let eq (x : Transport.Multi.epoch_report) (y : Transport.Multi.epoch_report)
      =
    Bytes.equal x.Transport.Multi.delivered y.Transport.Multi.delivered
    && x.Transport.Multi.complete = y.Transport.Multi.complete
    && x.Transport.Multi.closed = y.Transport.Multi.closed
  in
  Transport.Multi.known_conns a = Transport.Multi.known_conns b
  && List.for_all
       (fun cid ->
         List.equal eq
           (Transport.Multi.epochs a ~conn_id:cid)
           (Transport.Multi.epochs b ~conn_id:cid))
       (Transport.Multi.known_conns a)

(* A multi-connection packet mix under an arbitrary permutation (which
   reorders signals against data and interleaves connections) plus
   duplicated packets: the fast path must stay byte-identical with the
   cache-off reference — including on traffic that arrives before its
   Open. *)
let gen_permuted_mix =
  QCheck2.Gen.(
    let* n_conns = int_range 1 3 in
    let* sizes = list_repeat n_conns (map (fun n -> 4 * n) (int_range 12 225)) in
    let* seed = int_range 0 255 in
    let* dup = int_range 0 5 in
    let* shuffle_seed = int_range 0 0xFFFF in
    let* batch = int_range 1 7 in
    let all =
      List.concat
        (List.mapi
           (fun i nbytes ->
             snd (conn_packets ~conn:(i + 1) ~seed:(seed + i) nbytes))
           sizes)
    in
    let arr = Array.of_list all in
    let n = Array.length arr in
    let rng = Netsim.Rng.create ~seed:shuffle_seed in
    let dups =
      Array.init dup (fun _ -> arr.(Netsim.Rng.int rng n))
    in
    let mix = Array.append arr dups in
    (* Fisher-Yates with the deterministic sim RNG *)
    for i = Array.length mix - 1 downto 1 do
      let j = Netsim.Rng.int rng (i + 1) in
      let t = mix.(i) in
      mix.(i) <- mix.(j);
      mix.(j) <- t
    done;
    return (mix, batch))

let prop_permuted_mix =
  QCheck2.Test.make
    ~name:"ingest_batch delivers byte-identically to cache-off ingest"
    ~count:60 gen_permuted_mix
    (fun (mix, batch) ->
      let m_slow = mk_reference () and m_fast = mk_multi () in
      Array.iter (Transport.Multi.ingest m_slow) mix;
      let i = ref 0 in
      let n = Array.length mix in
      while !i < n do
        let k = min batch (n - !i) in
        Transport.Multi.ingest_batch m_fast (Array.sub mix !i k);
        i := !i + k
      done;
      epochs_equal m_slow m_fast)

(* --- buffer ownership ---------------------------------------------- *)

(* A forged single-chunk TPDU over connection elements [sn, sn+len):
   divergent bytes, an ED chunk agreeing with its C.SN - T.SN delta (so
   corroboration admits the bytes) and a garbage parity (so it never
   verifies).  Placed ahead of the honest TPDU, it forces that TPDU's
   run into quarantine until its own parity passes. *)
let forged_packet ~conn ~idx ~sn ~len ~key =
  let t_id = 7_000 + idx in
  let payload =
    Bytes.init (len * 4) (fun i -> Char.chr ((key + (i * 29)) land 0xFF))
  in
  let data =
    Result.get_ok
      (Chunk.data ~size:4
         ~c:(Ftuple.v ~id:conn ~sn ())
         ~t:(Ftuple.v ~st:true ~id:t_id ~sn:0 ())
         ~x:(Ftuple.v ~id:t_id ~sn:0 ())
         payload)
  in
  let ed_payload = Bytes.make 12 '\000' in
  for i = 0 to 7 do
    Bytes.set ed_payload i (Char.chr ((key + (i * 41)) land 0xFF))
  done;
  Bytes.set_int32_be ed_payload 8 (Int32.of_int len);
  let ed =
    Result.get_ok
      (Chunk.control ~kind:Ctype.ed
         ~c:(Ftuple.v ~id:conn ~sn ())
         ~t:(Ftuple.v ~id:t_id ~sn:0 ())
         ~x:Ftuple.zero ed_payload)
  in
  match Wire.encode_packet [ data; ed ] with
  | Ok b -> b
  | Error e -> failwith e

let gen_ownership_case ~max_conns =
  QCheck2.Gen.(
    let* n_conns = int_range 1 max_conns in
    let* sizes = list_repeat n_conns (map (fun n -> 4 * n) (int_range 16 160)) in
    let* seed = int_range 0 255 in
    let* forged =
      list_size (int_range 0 6)
        (let* conn = int_range 1 n_conns in
         let* sn = int_range 0 15 in
         let* len = int_range 1 12 in
         let* key = int_range 1 255 in
         return (conn, sn, len, key))
    in
    let* forged_first = bool in
    let* shuffle_seed = int_range 0 0xFFFF in
    let* packing = oneofl [ `Alone; `Tpdu; `Runs ] in
    let* frame = oneofl [ None; Some 20; Some 36 ] in
    let* batch = int_range 1 9 in
    let* scribble_seed = int_range 0 0xFFFF in
    return
      ( (sizes, seed, forged, forged_first, shuffle_seed, packing, frame),
        batch,
        scribble_seed ))

let shuffle_in_place rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Netsim.Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Consecutive chunks with one T.ID, as lists. *)
let rec by_tpdu = function
  | [] -> []
  | c :: _ as cs ->
      let tid (c : Chunk.t) = c.Chunk.header.Header.t.Ftuple.id in
      let same, rest = List.partition (fun d -> tid d = tid c) cs in
      same :: by_tpdu rest

(* Runs of one to three consecutive chunks. *)
let rec runs rng = function
  | [] -> []
  | cs ->
      let k = 1 + Netsim.Rng.int rng 3 in
      List.filteri (fun i _ -> i < k) cs
      :: runs rng (List.filteri (fun i _ -> i >= k) cs)

(* The packets of an ownership case: every connection's Open, then (half
   the time) the forgeries so that they win the race to the shared
   elements, then everything else shuffled.  [packing] says how the
   rest travels: [`Alone], each chunk in a packet of its own, so a data
   chunk waits in the corroboration stash across packets until its ED
   chunk arrives (its view of the packet must be copied before [ingest]
   returns); [`Tpdu], each TPDU's chunks in one packet, data ahead of
   ED, so the stash empties within the packet; [`Runs], the chunks of
   all connections shuffled and cut into packets of one to three, so
   one packet may leave some views stashed and flush others.  A forgery
   that got there first holds the honest TPDU's run in quarantine until
   its parity passes.  [frame] cuts each TPDU's data into several
   chunks, whose views of one packet must each get their own copy. *)
let ownership_mix
    (sizes, seed, forged, forged_first, shuffle_seed, packing, frame) =
  let conns =
    List.mapi
      (fun i nbytes -> conn_chunks ?frame ~conn:(i + 1) ~seed:(seed + i) nbytes)
      sizes
  in
  let forged =
    List.mapi
      (fun idx (conn, sn, len, key) -> forged_packet ~conn ~idx ~sn ~len ~key)
      forged
  in
  let opens = List.map (fun (_, o, _, _) -> packet [ o ]) conns in
  let rng = Netsim.Rng.create ~seed:shuffle_seed in
  let rest =
    match packing with
    | `Alone ->
        List.concat_map
          (fun (_, _, sealed, close_c) ->
            List.map (fun c -> packet [ c ]) (sealed @ [ close_c ]))
          conns
    | `Tpdu ->
        List.concat_map
          (fun (_, _, sealed, close_c) ->
            List.map packet (by_tpdu sealed) @ [ packet [ close_c ] ])
          conns
    | `Runs ->
        let chunks =
          Array.of_list (List.concat_map (fun (_, _, sealed, _) -> sealed) conns)
        in
        shuffle_in_place rng chunks;
        List.map packet (runs rng (Array.to_list chunks))
        @ List.map (fun (_, _, _, close_c) -> packet [ close_c ]) conns
  in
  let front, rest =
    if forged_first then (opens @ forged, rest) else (opens, rest @ forged)
  in
  let rest = Array.of_list rest in
  shuffle_in_place rng rest;
  ( Array.append (Array.of_list front) rest,
    List.map (fun (data, _, _, _) -> data) conns )

(* Every completed epoch of connection [i + 1] holds [datas.(i)]. *)
let complete_epochs_exact m datas =
  List.for_all Fun.id
    (List.mapi
       (fun i data ->
         List.for_all
           (fun (e : Transport.Multi.epoch_report) ->
             (not e.Transport.Multi.complete)
             || Bytes.equal
                  (Bytes.sub e.Transport.Multi.delivered 0 (Bytes.length data))
                  data)
           (Transport.Multi.epochs m ~conn_id:(i + 1)))
       datas)

let scribble srng p =
  Bytes.iteri (fun j _ -> Bytes.set p j (Char.chr (Random.State.int srng 256))) p

let m_passed = Obs.Metrics.counter "edc_tpdus_passed_total"
let m_failed = Obs.Metrics.counter "edc_tpdus_failed_total"

(* Ownership contract of [ingest_batch]: once it returns, the caller
   owns the packet buffers again and may reuse them.  Overwriting every
   packet of each batch with random bytes right after the call must
   leave delivery, the ACKs sent (one per verified TPDU) and the
   verifier's pass/fail counts exactly as in an untouched run, and every
   completed epoch must hold its connection's bytes. *)
let prop_batch_buffer_ownership (case, batch, scribble_seed) =
  let mix, datas = ownership_mix case in
  let run ~scribble:scribbling =
    let acks = ref [] in
    let engine = Netsim.Engine.create ~seed:42 () in
    let m =
      Transport.Multi.create engine ~config:multi_config ~quota_elems:4096
        ~max_conns:8
        ~send_ack:(fun b -> acks := Bytes.copy b :: !acks)
        ()
    in
    let p0 = Obs.Metrics.value m_passed and f0 = Obs.Metrics.value m_failed in
    let srng = Random.State.make [| scribble_seed |] in
    let n = Array.length mix in
    let i = ref 0 in
    while !i < n do
      let k = min batch (n - !i) in
      (* each packet in a buffer of its own, handed over for the call *)
      let b = Array.init k (fun j -> Bytes.copy mix.(!i + j)) in
      Transport.Multi.ingest_batch m b;
      if scribbling then Array.iter (scribble srng) b;
      i := !i + k
    done;
    ( m,
      List.rev !acks,
      Obs.Metrics.value m_passed - p0,
      Obs.Metrics.value m_failed - f0,
      (Transport.Multi.stats m).overlap )
  in
  let m_a, acks_a, pass_a, fail_a, os_a = run ~scribble:false in
  let m_b, acks_b, pass_b, fail_b, os_b = run ~scribble:true in
  epochs_equal m_a m_b
  && complete_epochs_exact m_a datas
  && List.equal Bytes.equal acks_a acks_b
  && pass_a = pass_b && fail_a = fail_b && os_a = os_b

let prop_ownership =
  QCheck2.Test.make
    ~name:"ingest_batch: scribbling returned packet buffers changes nothing"
    ~count:80 (gen_ownership_case ~max_conns:3) prop_batch_buffer_ownership

(* The same contract for the single receiver, the path under
   [Chunk_transport.run]: it reads labels and payloads in place, so
   anything it keeps past [ingest] (stash entries, quarantined runs,
   placed bytes) must have been copied out of the packet. *)
let prop_receiver_buffer_ownership (case, _, scribble_seed) =
  let mix, datas = ownership_mix case in
  let run ~scribble:scribbling =
    let acks = ref [] in
    let engine = Netsim.Engine.create ~seed:42 () in
    let rx =
      CT.Receiver.create engine multi_config
        ~send_ack:(fun b -> acks := Bytes.copy b :: !acks)
        ~capacity:(`Quota 4096) ()
    in
    let srng = Random.State.make [| scribble_seed |] in
    Array.iter
      (fun p ->
        let b = Bytes.copy p in
        CT.Receiver.ingest rx b;
        if scribbling then scribble srng b)
      mix;
    ( Bytes.copy (CT.Receiver.contents rx),
      CT.Receiver.complete rx,
      List.rev !acks,
      CT.Receiver.verifier_stats rx,
      CT.Receiver.stats rx )
  in
  let buf_a, done_a, acks_a, vs_a, st_a = run ~scribble:false in
  let buf_b, done_b, acks_b, vs_b, st_b = run ~scribble:true in
  Bytes.equal buf_a buf_b && done_a = done_b
  && List.for_all
       (fun data ->
         (not done_a)
         || Bytes.equal (Bytes.sub buf_a 0 (Bytes.length data)) data)
       datas
  && List.equal Bytes.equal acks_a acks_b
  && vs_a = vs_b && st_a = st_b

let prop_receiver_ownership =
  QCheck2.Test.make
    ~name:"Receiver.ingest: scribbling returned packet buffers changes nothing"
    ~count:80 (gen_ownership_case ~max_conns:1) prop_receiver_buffer_ownership

(* --- allocation on the payload-free paths -------------------------- *)

(* An Open for connection [conn] and one packet carrying a whole sealed
   TPDU of [nbytes]: its data chunk, then its ED chunk. *)
let tpdu_packet ~conn nbytes =
  let framer =
    Framer.create ~elem_size:4 ~tpdu_elems:(nbytes / 4) ~conn_id:conn ()
  in
  let chunks =
    Result.get_ok (Framer.push_frame framer (Util.deterministic_bytes nbytes))
  in
  let packet cs = Result.get_ok (Wire.encode_packet cs) in
  ( packet [ Connection.signal_chunk ~conn_id:conn (Open { first_csn = 0 }) ],
    packet (Result.get_ok (Edc.Encoder.seal_tpdus chunks)) )

(* Minor words of one more arrival of [p] once [feed p] has run twice:
   the TPDU's first delivery, then a re-offer that warms the re-ACK
   throttle. *)
let steady_words feed p =
  feed p;
  feed p;
  Util.minor_words_of (fun () -> feed p)

(* Neither outcome reads a payload byte — a re-offered verified TPDU is
   re-ACKed, traffic for an unknown connection is dropped — so neither
   may cost more for a bigger payload, and neither allocates: labels are
   read in the packet, no chunk is built, and the lookups build no
   option and no key.  (The Multi and Receiver re-offers cost 18 and 4
   words when the T.ID lookups returned options and each touch built a
   governor key.) *)
let test_payload_free_allocation () =
  let multi_reoffer nbytes =
    let m = mk_multi () in
    let open_p, p = tpdu_packet ~conn:1 nbytes in
    Transport.Multi.ingest m open_p;
    let w = steady_words (Transport.Multi.ingest m) p in
    Alcotest.(check int) "the verified TPDU is re-ACKed, throttled" 1
      (Transport.Multi.stats m).reacks_sent;
    w
  in
  let multi_unknown nbytes =
    let m = mk_multi () in
    steady_words (Transport.Multi.ingest m) (snd (tpdu_packet ~conn:9 nbytes))
  in
  let receiver_reoffer nbytes =
    let engine = Netsim.Engine.create ~seed:42 () in
    let rx =
      CT.Receiver.create engine multi_config
        ~send_ack:(fun _ -> ())
        ~capacity:(`Quota 4096) ()
    in
    let w = steady_words (CT.Receiver.ingest rx) (snd (tpdu_packet ~conn:1 nbytes)) in
    Alcotest.(check int) "the TPDU verified once" 1
      (CT.Receiver.verifier_stats rx).Edc.Verifier.tpdus_passed;
    w
  in
  List.iter
    (fun (what, words, bound) ->
      let small = words 32 and big = words 2048 in
      Alcotest.(check (float 0.0))
        (what ^ ": 2 KiB payload costs what 32 bytes cost")
        small big;
      if big > bound then
        Alcotest.failf "%s: %.0f minor words per packet, bound %.0f" what big
          bound)
    [
      ("Multi re-offer", multi_reoffer, 0.0);
      ("Multi unknown connection", multi_unknown, 0.0);
      ("Receiver re-offer", receiver_reoffer, 0.0);
    ]

(* The fresh-TPDU path: the first delivery of a packet carrying a whole
   2 KiB TPDU (its data chunk, then its ED chunk) verifies, places and
   ACKs it.  The data chunk waits in the corroboration stash until the
   ED chunk in the same packet confirms its delta, so it is stashed as
   a view of the packet and never copied: nothing of that size reaches
   the major heap (258 major words when every stashed chunk was
   copied).  The minor-word bound sits just above today's figure: 177
   words, from 325 when each chunk got a [Header.t], the verified
   coverage was a second list copied on every insert, placement built a
   report and the governor a key per chunk (518 before the verifier's
   state went flat, packets were written in place and the stash copied
   only what outlives its packet).  An ACK costs its 8-word packet (83
   words when it was encoded from a [Chunk.t] through a [Buffer]). *)
let fresh_delivery measure =
  let m = mk_multi () in
  let open_p, p = tpdu_packet ~conn:1 2048 in
  Transport.Multi.ingest m open_p;
  let p0 = Obs.Metrics.value m_passed in
  let words = measure (fun () -> Transport.Multi.ingest m p) in
  Alcotest.(check int) "the TPDU verified" 1 (Obs.Metrics.value m_passed - p0);
  words

let test_fresh_delivery_allocation () =
  let minor = fresh_delivery Util.minor_words_of in
  if minor > 182.0 then
    Alcotest.failf "first delivery: %.0f minor words, bound 182" minor;
  let major = fresh_delivery Util.major_words_of in
  if major >= 64.0 then
    Alcotest.failf "first delivery: %.0f major words: the stash was copied"
      major;
  let ack =
    Util.minor_words_of (fun () ->
        ignore (CT.ack_packet ~conn_id:0xFFFF_FFFF ~t_id:7))
  in
  if ack > 10.0 then Alcotest.failf "ack_packet: %.0f minor words, bound 10" ack

(* A frag-style chunk admitted mid-TPDU: 256 bytes of a 2 KiB TPDU whose
   ED chunk and first chunks have already arrived, so its delta is
   confirmed and it is verified and placed straight from its packet,
   with no verdict yet.  What it costs is the per-chunk path alone:
   labels read into the receiver's view, the verifier's fresh run and
   X-framing record, the placement's credited run and the governor's
   refresh — no header, no report, no key. *)
let test_mid_tpdu_allocation () =
  let m = mk_multi () in
  let framer = Framer.create ~elem_size:4 ~tpdu_elems:512 ~conn_id:1 () in
  let chunks =
    Result.get_ok (Framer.push_frame framer (Util.deterministic_bytes 2048))
  in
  let data, ed =
    match Result.get_ok (Edc.Encoder.seal_tpdus chunks) with
    | [ d; ed ] -> (d, ed)
    | _ -> Alcotest.fail "expected one data chunk and its ED chunk"
  in
  let rec cut c =
    if c.Chunk.header.Header.len <= 64 then [ c ]
    else
      let a, b = Fragment.split_exn c ~elems:64 in
      a :: cut b
  in
  let frags = Array.of_list (List.map (fun c -> packet [ c ]) (cut data)) in
  Transport.Multi.ingest m
    (packet [ Connection.signal_chunk ~conn_id:1 (Open { first_csn = 0 }) ]);
  Transport.Multi.ingest m (packet [ ed ]);
  Transport.Multi.ingest m frags.(0);
  Transport.Multi.ingest m frags.(1);
  let p0 = Obs.Metrics.value m_passed in
  let words = Util.minor_words_of (fun () -> Transport.Multi.ingest m frags.(3)) in
  Alcotest.(check int) "no verdict yet" 0 (Obs.Metrics.value m_passed - p0);
  (match Transport.Multi.epochs m ~conn_id:1 with
  | [ e ] ->
      Alcotest.(check bool) "the chunk was placed" true
        (Bytes.equal
           (Bytes.sub e.Transport.Multi.delivered 768 256)
           (Bytes.sub (Util.deterministic_bytes 2048) 768 256))
  | _ -> Alcotest.fail "expected one epoch");
  (* 49 words now; 117 when each chunk got a [Header.t] and a placement
     report *)
  if words > 52.0 then
    Alcotest.failf "mid-TPDU chunk: %.0f minor words, bound 52" words

(* --- the verified coverage ----------------------------------------- *)

(* The placement's lock map is the receiver's one verified-coverage
   record.  Against a reference kept beside it — a [Vreassembly] union
   of the runs each fresh ACK journals — the exported [ri_verified] and
   [complete] (through the old sorted-span walk over the reference and
   the shed cover) must agree, at an export mid-stream and at the end.
   The streams are cut into frames, shuffled and duplicated; forged
   TPDUs that never verify squat on elements so honest runs wait in
   quarantine; one TPDU may be shed; the receiver may be exported and a
   new one restored from the image mid-stream; the buffer is sized
   exactly or by quota. *)
let gen_coverage_case =
  QCheck2.Gen.(
    let* nbytes = map (fun n -> 4 * n) (int_range 16 160) in
    let* seed = int_range 0 255 in
    let* frame = oneofl [ None; Some 20; Some 36 ] in
    let* forged =
      list_size (int_range 0 4)
        (let* sn = int_range 0 15 in
         let* len = int_range 1 12 in
         let* key = int_range 1 255 in
         return (sn, len, key))
    in
    let* shed = option (int_range 0 9) in
    let* dups = int_range 0 6 in
    let* cut = option (int_range 0 100) in
    let* exact = bool in
    let* shuffle_seed = int_range 0 0xFFFF in
    return (nbytes, seed, frame, forged, shed, dups, cut, exact, shuffle_seed))

let prop_verified_coverage
    (nbytes, seed, frame, forged, shed, dups, cut, exact, shuffle_seed) =
  let _, open_c, sealed, _ = conn_chunks ?frame ~conn:1 ~seed nbytes in
  let tpdus = Array.of_list (by_tpdu sealed) in
  (* the shed TPDU's span, from its ED chunk: first C.SN and extent *)
  let shed =
    Option.map
      (fun i ->
        let ed = List.nth (List.rev tpdus.(i mod Array.length tpdus)) 0 in
        let h = ed.Chunk.header in
        ( h.Header.t.Ftuple.id,
          h.Header.c.Ftuple.sn,
          Int32.to_int (Bytes.get_int32_be ed.Chunk.payload 8) ))
      shed
  in
  let config =
    {
      multi_config with
      CT.classify =
        (fun t ->
          match shed with
          | Some (t', _, _) when t = t' -> Significance.Sheddable 1
          | _ -> Significance.Normal);
    }
  in
  let rng = Netsim.Rng.create ~seed:shuffle_seed in
  let rest =
    Array.of_list
      (List.map (fun c -> packet [ c ]) sealed
      @ List.mapi
          (fun idx (sn, len, key) -> forged_packet ~conn:1 ~idx ~sn ~len ~key)
          forged
      @
      match shed with
      | Some (t_id, first_elem, elems) ->
          [
            packet
              [
                Connection.signal_chunk ~conn_id:1
                  (Shed_tpdu { t_id; first_elem; elems });
              ];
          ]
      | None -> [])
  in
  let rest =
    Array.append rest
      (Array.init dups (fun _ -> rest.(Netsim.Rng.int rng (Array.length rest))))
  in
  shuffle_in_place rng rest;
  let packets = Array.append [| packet [ open_c ] |] rest in
  let capacity = if exact then `Exact (nbytes / 4) else `Quota 4096 in
  let reference = Vreassembly.create () in
  let persist = function
    | Transport.Persist.Acked { runs; _ } ->
        List.iter
          (fun (sn, b) ->
            match
              Vreassembly.insert_new reference ~sn ~len:(Bytes.length b / 4)
                ~st:false
            with
            | Ok _ | Error `Inconsistent -> ())
          runs
    | _ -> ()
  in
  let engine = Netsim.Engine.create ~seed:42 () in
  let agrees rx =
    let spans = Vreassembly.spans reference in
    let frontier =
      Transport.Persist.verified_frontier
        (List.sort compare (spans @ CT.Receiver.shed_spans rx))
    in
    let complete =
      match capacity with
      | `Exact n -> frontier >= n
      | `Quota _ -> (
          match CT.Receiver.stream_end_elems rx with
          | Some n -> frontier >= n
          | None -> false)
    in
    (CT.Receiver.export rx).Transport.Persist.ri_verified = spans
    && CT.Receiver.complete rx = complete
  in
  let rx =
    ref
      (CT.Receiver.create engine config ~persist ~send_ack:ignore ~capacity ())
  in
  let cut_at =
    Option.map (fun pct -> pct * Array.length packets / 100) cut
  in
  let ok = ref true in
  Array.iteri
    (fun i p ->
      if Some i = cut_at then begin
        let img = CT.Receiver.export !rx in
        ok := !ok && agrees !rx;
        rx :=
          CT.Receiver.restore engine config ~persist ~send_ack:ignore
            ~capacity img ~acked_tids:(CT.Receiver.acked_tids !rx)
      end;
      CT.Receiver.ingest !rx p)
    packets;
  !ok && agrees !rx

let prop_coverage =
  QCheck2.Test.make
    ~name:"lock map = union of journaled passed runs (ri_verified, complete)"
    ~count:150 gen_coverage_case prop_verified_coverage

(* --- ingest_batch edges ------------------------------------------- *)

let test_batch_empty () =
  let m = mk_multi () in
  Transport.Multi.ingest_batch m [||];
  Alcotest.(check (list int)) "no connections appear" []
    (Transport.Multi.known_conns m);
  let fp = Transport.Multi.fastpath_stats m in
  Alcotest.(check int) "no cache traffic" 0
    (fp.Transport.Multi.fp_conn.FC.s_hits
    + fp.Transport.Multi.fp_conn.FC.s_misses)

let test_batch_single_packet () =
  (* a degenerate batch of one packet per call is just [ingest] *)
  let m_slow = mk_reference () and m_fast = mk_multi () in
  let _, packets = conn_packets ~conn:2 ~seed:3 900 in
  List.iter (Transport.Multi.ingest m_slow) packets;
  List.iter (fun p -> Transport.Multi.ingest_batch m_fast [| p |]) packets;
  Alcotest.(check bool) "singleton batches identical to cache-off" true
    (epochs_equal m_slow m_fast)

let test_batch_spanning_quarantine () =
  (* One batch carries a whole scored re-establishment: epoch 0 of conn
     5, then a reopen whose churn trips a tiny anomaly budget, then an
     innocent conn 6.  The quarantine lands mid-batch; the fast path
     must refuse the boxed connection's remaining packets (no stale
     cache entry may serve it) while conn 6 sails through — and the
     batch must stay byte-identical with the cache-off reference under
     the same budget. *)
  let budget = 4 in
  let m_slow = mk_reference ~anomaly_budget:budget ()
  and m_fast = mk_multi ~anomaly_budget:budget () in
  let d0, epoch0 = conn_packets ~conn:5 ~seed:1 600 in
  let _, epoch1 = conn_packets ~conn:5 ~seed:77 ~first_tid:100_000 600 in
  let d6, honest = conn_packets ~conn:6 ~seed:8 480 in
  let batch = Array.of_list (epoch0 @ epoch1 @ honest) in
  Array.iter (Transport.Multi.ingest m_slow) batch;
  Transport.Multi.ingest_batch m_fast batch;
  Alcotest.(check bool) "fast path identical to cache-off" true
    (epochs_equal m_slow m_fast);
  Alcotest.(check int) "reopen churn tripped the box" 1
    (Transport.Multi.stats m_fast).quarantines;
  Alcotest.(check bool) "boxed packets refused" true
    ((Transport.Multi.stats m_fast).quarantine_drops > 0);
  (match Transport.Multi.conn_stats m_fast ~conn_id:5 with
  | None -> Alcotest.fail "conn 5 unknown"
  | Some cs ->
      Alcotest.(check bool) "conn 5 is in the box" true
        cs.Transport.Multi.cs_quarantined);
  (* the quarantined reopen never became an epoch; epoch 0 is intact *)
  (match Transport.Multi.epochs m_fast ~conn_id:5 with
  | [ e0 ] ->
      Alcotest.(check bool) "epoch 0 bytes intact" true
        (Bytes.equal (Bytes.sub e0.Transport.Multi.delivered 0 600) d0)
  | es -> Alcotest.failf "expected 1 epoch on conn 5, got %d" (List.length es));
  (* the innocent connection later in the same batch is untouched *)
  match Transport.Multi.epochs m_fast ~conn_id:6 with
  | [ e ] ->
      Alcotest.(check bool) "conn 6 complete" true e.Transport.Multi.complete;
      Alcotest.(check bool) "conn 6 bytes intact" true
        (Bytes.equal (Bytes.sub e.Transport.Multi.delivered 0 480) d6)
  | es -> Alcotest.failf "expected 1 epoch on conn 6, got %d" (List.length es)

(* --- invalidation on epoch reuse ---------------------------------- *)

let test_epoch_reuse_invalidates () =
  let m_slow = mk_reference () and m_fast = mk_multi () in
  let d0, epoch0 = conn_packets ~conn:5 ~seed:1 600 in
  let d1, epoch1 = conn_packets ~conn:5 ~seed:77 ~first_tid:100_000 600 in
  List.iter (Transport.Multi.ingest m_slow) (epoch0 @ epoch1);
  List.iter (Transport.Multi.ingest m_fast) (epoch0 @ epoch1);
  Alcotest.(check bool) "cache-on identical to cache-off" true
    (epochs_equal m_slow m_fast);
  (match Transport.Multi.epochs m_fast ~conn_id:5 with
  | [ e0; e1 ] ->
      Alcotest.(check bool) "epoch 0 complete" true e0.Transport.Multi.complete;
      Alcotest.(check bool) "epoch 1 complete" true e1.Transport.Multi.complete;
      Alcotest.(check bool) "epoch 0 bytes" true
        (Bytes.equal (Bytes.sub e0.Transport.Multi.delivered 0 600) d0);
      Alcotest.(check bool) "epoch 1 bytes" true
        (Bytes.equal (Bytes.sub e1.Transport.Multi.delivered 0 600) d1)
  | es -> Alcotest.failf "expected 2 epochs, got %d" (List.length es));
  (* the stale epoch-0 entry was caught by the physical revalidation and
     torn down, never served *)
  let fp = Transport.Multi.fastpath_stats m_fast in
  Alcotest.(check bool) "conn-cache invalidated on epoch turnover" true
    (fp.Transport.Multi.fp_conn.FC.s_invalidations >= 1)

(* --- the exception bulkhead covers the fast path ------------------ *)

(* A journal that fails on every ACK record (a full disk, say) makes
   each epoch receiver throw from inside its fresh-ACK path.  Whether a
   chunk reaches the receiver through the connection cache or through
   the slow route, the throw must poison only that connection and never
   escape: the rest of the batch is still processed. *)
let test_bulkhead_covers_cache_hits () =
  let persist = function
    | Transport.Persist.Acked _ -> raise (Sys_error "journal: disk full")
    | _ -> ()
  in
  let packets =
    Array.of_list
      (snd (conn_packets ~conn:1 ~seed:4 320)
      @ snd (conn_packets ~conn:2 ~seed:5 320))
  in
  let m_off = mk_reference ~persist () and m_on = mk_multi ~persist () in
  Array.iter (Transport.Multi.ingest m_off) packets;
  Transport.Multi.ingest_batch m_on packets;
  Alcotest.(check int) "both connections poisoned with the cache off" 2
    (Transport.Multi.stats m_off).conns_poisoned;
  Alcotest.(check int) "and with the cache on" 2
    (Transport.Multi.stats m_on).conns_poisoned;
  Alcotest.(check bool) "same epochs with and without the cache" true
    (epochs_equal m_off m_on)

(* --- crash restore starts cold ------------------------------------ *)

let test_crash_restore_fresh_cache () =
  let m0 = mk_multi () in
  let d0, packets = conn_packets ~conn:3 ~seed:9 700 in
  List.iter (Transport.Multi.ingest m0) packets;
  let warm = Transport.Multi.fastpath_stats m0 in
  Alcotest.(check bool) "pre-crash cache saw traffic" true
    (warm.Transport.Multi.fp_conn.FC.s_hits > 0);
  let image = Transport.Multi.export m0 in
  Transport.Multi.teardown m0;
  let engine = Netsim.Engine.create ~seed:43 () in
  let m1 =
    Transport.Multi.restore engine ~config:multi_config ~quota_elems:4096
      ~max_conns:8
      ~send_ack:(fun _ -> ())
      image
  in
  (* the cache is NOT part of the persisted image: a restored endpoint
     starts cold and repopulates from live traffic *)
  let cold = Transport.Multi.fastpath_stats m1 in
  Alcotest.(check int) "restored conn cache cold" 0
    (cold.Transport.Multi.fp_conn.FC.s_hits
    + cold.Transport.Multi.fp_conn.FC.s_misses
    + cold.Transport.Multi.fp_conn.FC.s_insertions);
  (* post-crash retransmissions leave delivery untouched: the restored
     ledger re-acks them, and the replayed Open cannot resurrect its
     archived epoch (its C.SN is at the connection's watermark) *)
  List.iter (Transport.Multi.ingest m1) packets;
  (match Transport.Multi.epochs m1 ~conn_id:3 with
  | [ e ] ->
      Alcotest.(check bool) "restored epoch bytes intact" true
        (Bytes.equal (Bytes.sub e.Transport.Multi.delivered 0 700) d0)
  | es -> Alcotest.failf "expected 1 epoch, got %d" (List.length es));
  (* fresh traffic — a reopen with a higher Open C.SN — flows through
     the fast path and repopulates the cold cache *)
  let d1, epoch1 = conn_packets ~conn:3 ~seed:10 ~first_tid:100_000 500 in
  List.iter (Transport.Multi.ingest m1) epoch1;
  (match Transport.Multi.epochs m1 ~conn_id:3 with
  | [ _; e1 ] ->
      Alcotest.(check bool) "reopened epoch complete" true
        e1.Transport.Multi.complete;
      Alcotest.(check bool) "reopened epoch bytes intact" true
        (Bytes.equal (Bytes.sub e1.Transport.Multi.delivered 0 500) d1)
  | es -> Alcotest.failf "expected 2 epochs, got %d" (List.length es));
  let after = Transport.Multi.fastpath_stats m1 in
  Alcotest.(check bool) "restored cache repopulates" true
    (after.Transport.Multi.fp_conn.FC.s_insertions > 0)

let suite =
  [
    Alcotest.test_case "cache basics" `Quick test_cache_basics;
    Alcotest.test_case "cache eviction" `Quick test_cache_eviction;
    Alcotest.test_case "cache rejects negative keys" `Quick
      test_cache_negative_key_rejected;
    Alcotest.test_case "cache clear" `Quick test_cache_clear;
    Alcotest.test_case "capacity-0 cache stores nothing" `Quick
      test_cache_zero_slots;
    Alcotest.test_case "cache spreads sequential and strided IDs" `Quick
      test_cache_spread;
    QCheck_alcotest.to_alcotest prop_stats_algebra;
    Alcotest.test_case "add_stats saturates" `Quick test_stats_saturate;
    QCheck_alcotest.to_alcotest prop_scan_garbage;
    QCheck_alcotest.to_alcotest prop_scan_images;
    QCheck_alcotest.to_alcotest prop_permuted_mix;
    QCheck_alcotest.to_alcotest prop_ownership;
    QCheck_alcotest.to_alcotest prop_receiver_ownership;
    Alcotest.test_case "payload-free paths allocate independently of payload"
      `Quick test_payload_free_allocation;
    Alcotest.test_case "fresh-TPDU delivery: minor words, no stash copy"
      `Quick test_fresh_delivery_allocation;
    Alcotest.test_case "mid-TPDU 256-byte chunk: minor words" `Quick
      test_mid_tpdu_allocation;
    QCheck_alcotest.to_alcotest prop_coverage;
    Alcotest.test_case "ingest_batch of an empty batch" `Quick test_batch_empty;
    Alcotest.test_case "ingest_batch of singleton batches" `Quick
      test_batch_single_packet;
    Alcotest.test_case "ingest_batch spanning a mid-batch quarantine" `Quick
      test_batch_spanning_quarantine;
    Alcotest.test_case "epoch reuse invalidates the conn cache" `Quick
      test_epoch_reuse_invalidates;
    Alcotest.test_case "crash restore starts with a cold cache" `Quick
      test_crash_restore_fresh_cache;
    Alcotest.test_case "bulkhead contains throws on cache hits" `Quick
      test_bulkhead_covers_cache_hits;
  ]
