(* Overlap semantics: the first-verified-wins policy
   (Labelling.Placement) must make delivery deterministic under
   overlapping writes with conflicting bytes — whatever the arrival
   order, verified regions hold exactly the verified bytes, and a byte
   from a never-verified writer can never survive in them. *)

open Labelling
module CT = Transport.Chunk_transport

(* ------------------------------------------------------------------ *)
(* Policy table, deterministically (mirrors the Placement doc).        *)

let elem = 4
let cap = 32
let truth = Util.deterministic_bytes (cap * elem)

let slice_of sn len = Bytes.sub truth (sn * elem) (len * elem)

let xor_bytes key b =
  Bytes.map (fun c -> Char.chr (Char.code c lxor key)) b

let mk_chunk ~sn payload =
  Util.ok_or_fail
    (Chunk.data ~size:elem
       ~c:(Ftuple.v ~id:1 ~sn ())
       ~t:(Ftuple.v ~id:1 ~sn:0 ())
       ~x:(Ftuple.v ~id:1 ~sn:0 ())
       payload)

let fresh_placement () =
  Placement.create ~level:Placement.Conn ~base_sn:0 ~capacity_elems:cap
    ~elem_size:elem

let lock_owned p (rep : Placement.report) =
  List.iter
    (fun (sn, len) -> Placement.lock_span p ~sn ~len)
    (rep.Placement.rp_fresh @ rep.Placement.rp_benign)

let test_policy_table () =
  let p = fresh_placement () in
  (* 1. unplaced: fresh write lands *)
  let rep = Util.ok_or_fail (Placement.place_checked p (mk_chunk ~sn:0 (slice_of 0 4))) in
  Alcotest.(check (list (pair int int))) "fresh run" [ (0, 4) ] rep.Placement.rp_fresh;
  (* 2. identical resident: benign, no conflict *)
  let rep = Util.ok_or_fail (Placement.place_checked p (mk_chunk ~sn:0 (slice_of 0 4))) in
  Alcotest.(check (list (pair int int))) "benign run" [ (0, 4) ] rep.Placement.rp_benign;
  Alcotest.(check int) "no conflicts yet" 0
    (Placement.overlap_stats p).Placement.os_conflicts_seen;
  (* 3. fresh-vs-fresh conflict: resident kept, newcomer reported for
     quarantine *)
  let rep =
    Util.ok_or_fail
      (Placement.place_checked p (mk_chunk ~sn:2 (xor_bytes 0x5A (slice_of 2 4))))
  in
  (match rep.Placement.rp_conflicts with
  | [ (2, 2, Placement.Fresh_conflict) ] -> ()
  | _ -> Alcotest.fail "expected a fresh conflict over elements 2..3");
  Alcotest.check Util.bytes_testable "resident bytes kept" (slice_of 0 4)
    (Bytes.sub (Placement.contents p) 0 (4 * elem));
  Alcotest.(check int) "quarantined counted" 2
    (Placement.overlap_stats p).Placement.os_quarantined;
  (* 4. verified write reclaims unverified squatters... *)
  let p2 = fresh_placement () in
  ignore
    (Util.ok_or_fail
       (Placement.place_checked p2 (mk_chunk ~sn:0 (xor_bytes 0x77 (slice_of 0 4)))));
  let rep = Util.ok_or_fail (Placement.place_verified p2 (mk_chunk ~sn:0 (slice_of 0 6))) in
  lock_owned p2 rep;
  Alcotest.check Util.bytes_testable "squatter reclaimed" (slice_of 0 6)
    (Bytes.sub (Placement.contents p2) 0 (6 * elem));
  (* ...and the locked region then discards conflicting newcomers,
     verified or not (first-verified-wins) *)
  let rep =
    Util.ok_or_fail
      (Placement.place_checked p2 (mk_chunk ~sn:4 (xor_bytes 0x11 (slice_of 4 4))))
  in
  (match rep.Placement.rp_conflicts with
  | [ (4, 2, Placement.Verified_conflict) ] -> ()
  | _ -> Alcotest.fail "expected a verified conflict over elements 4..5");
  let rep =
    Util.ok_or_fail
      (Placement.place_verified p2 (mk_chunk ~sn:2 (xor_bytes 0x22 (slice_of 2 2))))
  in
  (match rep.Placement.rp_conflicts with
  | [ (2, 2, Placement.Verified_conflict) ] -> ()
  | _ -> Alcotest.fail "expected a verified-vs-verified conflict");
  Alcotest.check Util.bytes_testable "locked bytes immutable" (slice_of 0 6)
    (Bytes.sub (Placement.contents p2) 0 (6 * elem));
  let os = Placement.overlap_stats p2 in
  Alcotest.(check int) "rejections counted" 4 os.Placement.os_conflicts_rejected;
  Alcotest.(check int) "verified overwrite attempt counted" 2
    os.Placement.os_verified_overwrites

(* ------------------------------------------------------------------ *)
(* Placement-level property: random interleavings of verified writes
   (carrying the true bytes) and fresh writes (honest or divergent)
   always leave every verified-covered element holding the true bytes —
   so two permutations of one overlap set agree byte for byte. *)

type wkind = Verified | Fresh_honest | Fresh_divergent of int

let gen_writes =
  QCheck2.Gen.(
    let write =
      let* sn = int_range 0 (cap - 1) in
      let* len = int_range 1 (min 8 (cap - sn)) in
      let* kind =
        oneof
          [
            return Verified;
            return Fresh_honest;
            map (fun k -> Fresh_divergent k) (int_range 1 255);
          ]
      in
      return (sn, len, kind)
    in
    let* ws = list_size (int_range 1 20) write in
    let* shuffle_seed = int_range 0 0xFFFF in
    return (ws, shuffle_seed))

let apply_writes ws =
  let p = fresh_placement () in
  List.iter
    (fun (sn, len, kind) ->
      match kind with
      | Verified ->
          let rep =
            Util.ok_or_fail (Placement.place_verified p (mk_chunk ~sn (slice_of sn len)))
          in
          lock_owned p rep
      | Fresh_honest ->
          ignore (Util.ok_or_fail (Placement.place_checked p (mk_chunk ~sn (slice_of sn len))))
      | Fresh_divergent k ->
          ignore
            (Util.ok_or_fail
               (Placement.place_checked p (mk_chunk ~sn (xor_bytes k (slice_of sn len))))))
    ws;
  p

let verified_cover ws =
  let a = Array.make cap false in
  List.iter
    (fun (sn, len, kind) ->
      if kind = Verified then
        for i = sn to sn + len - 1 do
          a.(i) <- true
        done)
    ws;
  a

let prop_first_verified_wins (ws, shuffle_seed) =
  let covered = verified_cover ws in
  let sound p =
    (Placement.overlap_stats p).Placement.os_verified_overwrites = 0
    && Array.for_all Fun.id
         (Array.init cap (fun i ->
              (not covered.(i))
              || Bytes.equal
                   (Bytes.sub (Placement.contents p) (i * elem) elem)
                   (Bytes.sub truth (i * elem) elem)))
  in
  let a = apply_writes ws in
  let b = apply_writes (Util.shuffle ~seed:shuffle_seed ws) in
  sound a && sound b
  && Array.for_all Fun.id
       (Array.init cap (fun i ->
            (not covered.(i))
            || Bytes.equal
                 (Bytes.sub (Placement.contents a) (i * elem) elem)
                 (Bytes.sub (Placement.contents b) (i * elem) elem)))

(* ------------------------------------------------------------------ *)
(* Differential: the run-length placement against the per-element
   policy it replaced.  [Old] is that implementation, kept as a
   test-only reference (Conn level only; it returns the Overlap events
   it would trace): one pass per element, outcomes consed per element,
   fill state in a Vreassembly tracker.  Over random sequences
   of checked, verified and slice placements, lock-only marks and
   restores, every report, the buffer, the fill state, the overlap
   counters and the traced Overlap events must agree. *)

module Old = struct
  type t = {
    base_sn : int;
    elem_size : int;
    capacity_elems : int;
    buf : bytes;
    tracker : Vreassembly.t;
    occ : bytes;
    lck : bytes;
    mutable conflicts_seen : int;
    mutable conflicts_rejected : int;
    mutable quarantined : int;
    mutable verified_overwrites : int;
  }

  let create ~base_sn ~capacity_elems ~elem_size =
    {
      base_sn;
      elem_size;
      capacity_elems;
      buf = Bytes.make (capacity_elems * elem_size) '\000';
      tracker = Vreassembly.create ();
      occ = Bytes.make capacity_elems '\000';
      lck = Bytes.make capacity_elems '\000';
      conflicts_seen = 0;
      conflicts_rejected = 0;
      quarantined = 0;
      verified_overwrites = 0;
    }

  let occupied p e = Bytes.get p.occ e <> '\000'
  let is_locked p e = Bytes.get p.lck e <> '\000'

  let same p ~src i e =
    let es = p.elem_size in
    let rec go k =
      k = es
      || Bytes.get src ((i * es) + k) = Bytes.get p.buf ((e * es) + k)
         && go (k + 1)
    in
    go 0

  (* returns the report and the Overlap events it would trace *)
  let apply p ~sn ~len ~src ~verified ~conn ~tpdu =
    let es = p.elem_size in
    let fresh = ref [] and benign = ref [] and conflicts = ref [] in
    let push acc e =
      match !acc with
      | (s, l) :: rest when s + l = e -> acc := (s, l + 1) :: rest
      | _ -> acc := (e, 1) :: !acc
    in
    let push_conflict e k =
      match !conflicts with
      | (s, l, k') :: rest when s + l = e && k' = k ->
          conflicts := (s, l + 1, k') :: rest
      | _ -> conflicts := (e, 1, k) :: !conflicts
    in
    for i = 0 to len - 1 do
      let e = sn + i in
      if not (occupied p e) then begin
        Bytes.blit src (i * es) p.buf (e * es) es;
        Bytes.set p.occ e '\001';
        push fresh e
      end
      else if same p ~src i e then push benign e
      else if is_locked p e then begin
        p.conflicts_seen <- p.conflicts_seen + 1;
        p.conflicts_rejected <- p.conflicts_rejected + 1;
        if verified then p.verified_overwrites <- p.verified_overwrites + 1;
        push_conflict e Placement.Verified_conflict
      end
      else if verified then begin
        p.conflicts_seen <- p.conflicts_seen + 1;
        Bytes.blit src (i * es) p.buf (e * es) es;
        push fresh e
      end
      else begin
        p.conflicts_seen <- p.conflicts_seen + 1;
        p.quarantined <- p.quarantined + 1;
        push_conflict e Placement.Fresh_conflict
      end
    done;
    (match Vreassembly.insert_new p.tracker ~sn ~len ~st:false with
    | Ok _ | Error `Inconsistent -> ());
    let conflicts = List.rev !conflicts in
    let events =
      List.map
        (fun (s, l, k) ->
          Obs.Trace.Overlap
            {
              conn;
              tpdu;
              sn = s + p.base_sn;
              elems = l;
              kind =
                (match k with
                | Placement.Verified_conflict ->
                    if verified then "verified-clash" else "verified-conflict"
                | Placement.Fresh_conflict -> "fresh-conflict");
            })
        conflicts
    in
    ( {
        Placement.rp_fresh = List.rev !fresh;
        rp_benign = List.rev !benign;
        rp_conflicts = conflicts;
      },
      events )

  let checked op p chunk ~verified =
    if not (Chunk.is_data chunk) then
      Error (Printf.sprintf "Placement.%s: not a data chunk" op)
    else if chunk.Chunk.header.Header.size <> p.elem_size then
      Error (Printf.sprintf "Placement.%s: element size mismatch" op)
    else begin
      let sn = chunk.Chunk.header.Header.c.Ftuple.sn - p.base_sn in
      let len = chunk.Chunk.header.Header.len in
      if sn < 0 || len > p.capacity_elems || sn > p.capacity_elems - len then
        Error (Printf.sprintf "Placement.%s: outside destination window" op)
      else
        let h = chunk.Chunk.header in
        Ok
          (apply p ~sn ~len ~src:chunk.Chunk.payload ~verified
             ~conn:h.Header.c.Ftuple.id ~tpdu:h.Header.t.Ftuple.id)
    end

  let lock_span p ~sn ~len =
    if sn >= 0 && len > 0 && len <= p.capacity_elems
       && sn <= p.capacity_elems - len
    then begin
      Bytes.fill p.lck sn len '\001';
      Bytes.fill p.occ sn len '\001'
    end

  let restore_span p ~sn data =
    let n = Bytes.length data in
    if n = 0 || n mod p.elem_size <> 0 then
      Error "Placement.restore_span: not a whole number of elements"
    else begin
      let len = n / p.elem_size in
      if sn < 0 || len > p.capacity_elems || sn > p.capacity_elems - len then
        Error "Placement.restore_span: outside destination window"
      else begin
        Bytes.blit data 0 p.buf (sn * p.elem_size) n;
        Bytes.fill p.occ sn len '\001';
        (match Vreassembly.insert_new p.tracker ~sn ~len ~st:false with
        | Ok _ | Error `Inconsistent -> ());
        Ok ()
      end
    end

  let spans p = Vreassembly.spans p.tracker
  let placed_elems p = Vreassembly.received_elems p.tracker

  let holes p =
    let rec gaps expect spans =
      match spans with
      | [] ->
          if expect < p.capacity_elems then
            [ (expect, p.capacity_elems - expect) ]
          else []
      | (s, l) :: rest ->
          if s > expect then (expect, s - expect) :: gaps (s + l) rest
          else gaps (s + l) rest
    in
    gaps 0 (spans p)

  let overlap_stats p =
    {
      Placement.os_conflicts_seen = p.conflicts_seen;
      os_conflicts_rejected = p.conflicts_rejected;
      os_quarantined = p.quarantined;
      os_verified_overwrites = p.verified_overwrites;
    }
end

type pop =
  | P_checked of int * int * int  (* sn, len, variant seed *)
  | P_verified of int * int * int
  | P_slice of int * int * int * int  (* sn, len, variant seed, offset *)
  | P_lock of int * int
  | P_restore of int * int * int

let diff_cap = 24

(* Element bytes: the true bytes, or one of two divergent versions,
   chosen per element — so one write mixes fresh, benign and
   conflicting runs. *)
let variant_bytes ~sn ~len seed =
  let b = Bytes.create (len * elem) in
  for i = 0 to len - 1 do
    let v = (seed lsr (2 * (i mod 8))) land 3 in
    let key = if v < 2 then 0 else v * 0x35 in
    for k = 0 to elem - 1 do
      let n = Bytes.length truth in
      let j = ((((sn + i) * elem) + k) mod n + n) mod n in
      let c = Char.code (Bytes.get truth j) in
      Bytes.set b ((i * elem) + k) (Char.chr (c lxor key))
    done
  done;
  b

let gen_pops =
  QCheck2.Gen.(
    let span =
      (* mostly in window, sometimes straddling or past its end *)
      let* sn = int_range (-2) (diff_cap + 1) in
      let* len = int_range 0 10 in
      return (sn, len)
    in
    let seed = int_range 0 0xFFFF in
    let op =
      frequency
        [
          (4, map2 (fun (sn, len) v -> P_checked (sn, len, v)) span seed);
          (3, map2 (fun (sn, len) v -> P_verified (sn, len, v)) span seed);
          ( 2,
            map3
              (fun (sn, len) v off -> P_slice (sn, len, v, off))
              span seed (int_range 0 9) );
          (2, map (fun (sn, len) -> P_lock (sn, len)) span);
          (1, map2 (fun (sn, len) v -> P_restore (sn, len, v)) span seed);
        ]
    in
    let* base_sn = int_range 0 3 in
    let* ops = list_size (int_range 1 40) op in
    return (base_sn, ops))

let prop_placement_matches_per_element (base_sn, ops) =
  let p =
    Placement.create ~level:Placement.Conn ~base_sn ~capacity_elems:diff_cap
      ~elem_size:elem
  in
  let o = Old.create ~base_sn ~capacity_elems:diff_cap ~elem_size:elem in
  let saved = Obs.Trace.sink () in
  let traced f =
    let ring = Obs.Trace.ring ~capacity:256 in
    Obs.Trace.set_sink ring;
    let r = Fun.protect ~finally:(fun () -> Obs.Trace.set_sink saved) f in
    (r, List.map snd (Obs.Trace.ring_contents ring))
  in
  (* chunks may carry an SN below [base_sn]; only a negative label is
     unrepresentable, and that is the window check's job anyway *)
  let chunk ~sn ~len v =
    let c_sn = base_sn + sn in
    if c_sn < 0 || len < 1 then None
    else
      Some
        (Util.ok_or_fail
           (Chunk.data ~size:elem
              ~c:(Ftuple.v ~id:3 ~sn:c_sn ())
              ~t:(Ftuple.v ~id:9 ~sn:0 ())
              ~x:(Ftuple.v ~id:1 ~sn:0 ())
              (variant_bytes ~sn ~len v)))
  in
  let place_both ~verified c =
    let r, ev =
      traced (fun () ->
          if verified then Placement.place_verified p c
          else Placement.place_checked p c)
    in
    let op = if verified then "place_verified" else "place" in
    match (r, Old.checked op o c ~verified) with
    | Ok rep, Ok (rep', ev') -> rep = rep' && ev = ev'
    | Error e, Error e' -> e = e' && ev = []
    | _ -> false
  in
  let step = function
    | P_checked (sn, len, v) | P_verified (sn, len, v) as op -> (
        let verified = match op with P_verified _ -> true | _ -> false in
        match chunk ~sn ~len v with
        | Some c -> place_both ~verified c
        | None -> true)
    | P_slice (sn, len, v, off) -> (
        match chunk ~sn ~len v with
        | None -> true
        | Some c ->
            (* the same run, read out of the middle of a larger buffer *)
            let src = Bytes.make (off + (len * elem) + 5) '\xEE' in
            Bytes.blit c.Chunk.payload 0 src off (len * elem);
            let r, ev =
              traced (fun () ->
                  Placement.place_slice p ~verified:false ~sn:(base_sn + sn)
                    ~size:elem ~conn:3 ~tpdu:9 src ~off ~len)
            in
            (match (r, Old.checked "place" o c ~verified:false) with
            | Ok rep, Ok (rep', ev') -> rep = rep' && ev = ev'
            | Error _, Error _ -> ev = []
            | _ -> false))
    | P_lock (sn, len) ->
        Placement.lock_span p ~sn ~len;
        Old.lock_span o ~sn ~len;
        true
    | P_restore (sn, len, v) ->
        let data = variant_bytes ~sn:(max 0 sn) ~len v in
        (* a ragged length now and then *)
        let data = if v land 15 = 0 then Bytes.cat data (Bytes.make 1 'r') else data in
        Placement.restore_span p ~sn data = Old.restore_span o ~sn data
  in
  List.for_all
    (fun op ->
      step op
      && Bytes.equal (Placement.contents p) o.Old.buf
      && Placement.spans p = Old.spans o
      && Placement.placed_elems p = Old.placed_elems o
      && Placement.holes p = Old.holes o
      && Placement.is_full p = (Old.placed_elems o = diff_cap)
      && Placement.overlap_stats p = Old.overlap_stats o)
    ops

(* Placing a chunk allocates a constant amount, whatever its length:
   the report, its list cells and the result, never a word per
   element. *)
let test_placement_allocation () =
  let words elems =
    let p =
      Placement.create ~level:Placement.Conn ~base_sn:0 ~capacity_elems:512
        ~elem_size:elem
    in
    let c =
      Util.ok_or_fail
        (Chunk.data ~size:elem
           ~c:(Ftuple.v ~id:1 ~sn:0 ())
           ~t:(Ftuple.v ~id:1 ~sn:0 ())
           ~x:(Ftuple.v ~id:1 ~sn:0 ())
           (Util.deterministic_bytes (elems * elem)))
    in
    Util.minor_words_of (fun () -> ignore (Placement.place_checked p c))
  in
  let w16 = words 16 and w512 = words 512 in
  if w512 > 64. then Alcotest.failf "512-element place: %.0f words > 64" w512;
  if w512 > w16 then
    Alcotest.failf "512-element place (%.0f words) > 16-element (%.0f)" w512 w16

(* ------------------------------------------------------------------ *)
(* Receiver-level property: a full transfer's sealed chunks mixed with
   forged corroborated TPDUs (divergent bytes, garbage parity — the
   Netsim.Overlapper forge mode) is delivered complete, byte-identical
   under any two arrival orders, and equal to the sender's stream: no
   unverified byte survives, because the forged TPDUs always fail
   WSC-2. *)

let forged_tid_base = 7_000

(* One forged single-chunk TPDU over [sn, sn+len) whose ED chunk agrees
   with the data chunk's C.SN - T.SN delta (so corroboration admits the
   bytes) but carries a garbage parity (so verification fails it). *)
let forge ~idx ~sn ~len ~key ~garbage =
  let t_id = forged_tid_base + idx in
  let data =
    Util.ok_or_fail
      (Chunk.data ~size:elem
         ~c:(Ftuple.v ~id:1 ~sn ())
         ~t:(Ftuple.v ~st:true ~id:t_id ~sn:0 ())
         ~x:(Ftuple.v ~id:t_id ~sn:0 ())
         (xor_bytes key (slice_of sn len)))
  in
  let ed_payload = Bytes.make 12 '\000' in
  for i = 0 to 7 do
    Bytes.set ed_payload i (Char.chr ((garbage + (i * 41)) land 0xFF))
  done;
  Bytes.set_int32_be ed_payload 8 (Int32.of_int len);
  let ed =
    Util.ok_or_fail
      (Chunk.control ~kind:Ctype.ed
         ~c:(Ftuple.v ~id:1 ~sn ())
         ~t:(Ftuple.v ~id:t_id ~sn:0 ())
         ~x:Ftuple.zero ed_payload)
  in
  [ data; ed ]

let gen_receiver_case =
  QCheck2.Gen.(
    let* tpdu_elems = int_range 4 8 in
    let* n_tpdus = int_range 2 4 in
    let* frame_elems = int_range 2 6 in
    let elems = tpdu_elems * n_tpdus in
    let* forged =
      list_size (int_range 1 3)
        (let* sn = int_range 0 (elems - 1) in
         let* len = int_range 1 (min 4 (elems - sn)) in
         let* key = int_range 1 255 in
         let* garbage = int_range 0 0xFFFF in
         return (sn, len, key, garbage))
    in
    let* order_a = int_range 0 0xFFFF in
    let* order_b = int_range 0 0xFFFF in
    let* frag_seed = int_range 0 0xFFFF in
    return (tpdu_elems, n_tpdus, frame_elems, forged, order_a, order_b, frag_seed))

let prop_receiver_order_invariant
    (tpdu_elems, n_tpdus, frame_elems, forged, order_a, order_b, frag_seed) =
  let data_len = tpdu_elems * n_tpdus * elem in
  let stream = Util.deterministic_bytes (cap * elem) in
  let stream = Bytes.sub stream 0 data_len in
  let f = Framer.create ~elem_size:elem ~tpdu_elems ~conn_id:1 () in
  let chunks =
    Util.ok_or_fail (Framer.frames_of_stream f ~frame_bytes:(frame_elems * elem) stream)
  in
  let sealed = Util.ok_or_fail (Edc.Encoder.seal_tpdus chunks) in
  let forged_chunks =
    List.concat
      (List.mapi
         (fun idx (sn, len, key, garbage) ->
           if sn + len <= n_tpdus * tpdu_elems then forge ~idx ~sn ~len ~key ~garbage
           else [])
         forged)
  in
  let pool = Util.fragment_randomly ~seed:frag_seed (sealed @ forged_chunks) in
  let config =
    {
      CT.default_config with
      conn_id = 1;
      elem_size = elem;
      tpdu_elems;
      state_budget = 0;
    }
  in
  let expected = CT.expected_elements config ~data_len in
  let deliver order_seed =
    let engine = Netsim.Engine.create ~seed:1 () in
    let rx =
      CT.Receiver.create engine config
        ~send_ack:(fun _ -> ())
        ~capacity:(`Exact expected) ()
    in
    List.iter (CT.Receiver.on_chunk rx) (Util.shuffle ~seed:order_seed pool);
    rx
  in
  let a = deliver order_a and b = deliver order_b in
  let os_a = (CT.Receiver.stats a).overlap in
  let os_b = (CT.Receiver.stats b).overlap in
  CT.Receiver.complete a && CT.Receiver.complete b
  && Bytes.equal (CT.Receiver.contents a) (CT.Receiver.contents b)
  && Bytes.equal (Bytes.sub (CT.Receiver.contents a) 0 data_len) stream
  && os_a.Placement.os_verified_overwrites = 0
  && os_b.Placement.os_verified_overwrites = 0
  && os_a.Placement.os_conflicts_seen > 0
  && os_b.Placement.os_conflicts_seen > 0

let suite =
  [
    Alcotest.test_case "policy table" `Quick test_policy_table;
    Util.qtest ~count:300 "verified cover is order-invariant and exact"
      gen_writes prop_first_verified_wins;
    Util.qtest ~count:500 "run-length placement = per-element reference"
      gen_pops prop_placement_matches_per_element;
    Alcotest.test_case "placement allocates per chunk, not per element" `Quick
      test_placement_allocation;
    Util.qtest ~count:60
      "receiver delivery is order-invariant under forged overlaps"
      gen_receiver_case prop_receiver_order_invariant;
  ]
