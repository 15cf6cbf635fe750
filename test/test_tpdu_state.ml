(* The receiver's per-TPDU soft state.  Each piece of it has its own
   lifetime, and these tests pin each one through the public API:

   - a failed epoch drops the corroboration record and the end claim,
     but the first-arrival time survives, so the TPDU's latency spans
     its retransmission;
   - the gap (NACK) timer's flag outlives a failed epoch, an eviction
     and an abort until the timer's next firing, which disarms it once
     the verifier has dropped the TPDU; a chunk arriving before that
     firing arms no second timer;
   - after an eviction or an abort, a retransmitted chunk re-records
     the arrival time;
   - a TPDU whose only state is an armed timer is not tracked.

   The last test pins the bytes of a persisted endpoint image that holds
   every kind of per-TPDU state. *)

open Labelling
module CT = Transport.Chunk_transport
module R = CT.Receiver

let config =
  {
    CT.default_config with
    CT.elem_size = 4;
    tpdu_elems = 16;
    nack_delay = 0.01;
  }

let sack_config = { config with CT.sack = true }
let packet cs = Util.ok_or_fail (Wire.encode_packet cs)

(* Sealed TPDUs of 16 elements each for connection [conn], [n] of them,
   each returned as (first data half, second data half, ED chunk).
   With [last] the final TPDU's second half carries the C.ST bit. *)
let tpdus ?(conn = 1) ?(last = false) n =
  let framer = Framer.create ~elem_size:4 ~tpdu_elems:16 ~conn_id:conn () in
  let data = Util.deterministic_bytes (64 * n) in
  let chunks = Util.ok_or_fail (Framer.push_frame ~last framer data) in
  let rec group = function
    | d :: ed :: rest ->
        let a, b = Fragment.split_exn d ~elems:8 in
        (a, b, ed) :: group rest
    | [] -> []
    | [ _ ] -> Alcotest.fail "unsealed TPDU"
  in
  group (Util.ok_or_fail (Edc.Encoder.seal_tpdus chunks))

let t_id_of c = c.Chunk.header.Header.t.Ftuple.id

(* The same chunk with one payload bit flipped: its labels still agree,
   its TPDU fails parity. *)
let corrupt_payload c =
  let p = Bytes.copy c.Chunk.payload in
  Bytes.set p 0 (Char.chr (Char.code (Bytes.get p 0) lxor 1));
  Chunk.make_exn c.Chunk.header p

(* The same chunk one element further along the connection: its
   C.SN - T.SN delta contradicts the TPDU's, which fails the epoch on
   arrival. *)
let shift_csn c =
  let h = c.Chunk.header in
  let cf = h.Header.c in
  Chunk.make_exn
    { h with Header.c = Ftuple.v ~st:cf.Ftuple.st ~id:cf.Ftuple.id ~sn:(cf.Ftuple.sn + 1) () }
    c.Chunk.payload

let receiver ?(config = config) engine =
  R.create engine config ~send_ack:(fun _ -> ()) ~capacity:(`Quota 4096) ()

let feed rx cs = R.ingest rx (packet cs)
let at engine time f = Netsim.Engine.schedule_at engine ~time f

let latency rx =
  match Netsim.Stats.summary (R.tpdu_latency rx) with
  | Some s -> (s.Netsim.Stats.count, s.Netsim.Stats.max)
  | None -> (0, 0.0)

let test_failed_epoch_keeps_arrival () =
  let engine = Netsim.Engine.create ~seed:1 () in
  let rx = receiver engine in
  let a, b, ed = List.hd (tpdus ~last:true 1) in
  let t_id = t_id_of a in
  at engine 0.0 (fun () -> feed rx [ corrupt_payload a; b ]);
  at engine 0.001 (fun () ->
      let img = R.export rx in
      Alcotest.(check (list (pair int int)))
        "C.ST claim held while unverified" [ (t_id, 15) ]
        img.Transport.Persist.ri_end_claims;
      Alcotest.(check int) "corroboration record held" 1
        (List.length img.Transport.Persist.ri_corrob);
      feed rx [ ed ]);
  at engine 0.002 (fun () ->
      Alcotest.(check int) "first epoch failed parity" 1
        (R.verifier_stats rx).Edc.Verifier.tpdus_failed;
      let img = R.export rx in
      Alcotest.(check (list (pair int int)))
        "end claim dropped with the epoch" []
        img.Transport.Persist.ri_end_claims;
      Alcotest.(check int) "corroboration dropped with the epoch" 0
        (List.length img.Transport.Persist.ri_corrob);
      Alcotest.(check bool) "no longer tracked" false (R.tracks_tpdu rx ~t_id));
  at engine 0.5 (fun () -> feed rx [ a; b; ed ]);
  Netsim.Engine.run engine;
  Alcotest.(check int) "retransmission passed" 1
    (R.verifier_stats rx).Edc.Verifier.tpdus_passed;
  let n, dt = latency rx in
  Alcotest.(check int) "one latency sample" 1 n;
  Alcotest.(check (float 1e-9)) "latency spans the retransmission" 0.5 dt;
  Alcotest.(check (option int)) "the verified claim ends the stream"
    (Some 16) (R.stream_end_elems rx)

(* The three ways a TPDU's state is dropped while its gap timer may
   still be armed. *)
let drops =
  [
    ("abort", fun rx a -> R.abort_tpdu rx ~t_id:(t_id_of a));
    ("eviction", fun rx a -> R.evict rx ~t_id:(t_id_of a));
    ("failed epoch", fun rx a -> feed rx [ shift_csn a ]);
  ]

(* NACKs sent by a sack receiver by [until] when the first half of one
   TPDU arrives at each time in [arrivals] and [drop] runs at each time
   in [drop_at]. *)
let nacks_by ~until ~arrivals ~drop_at drop =
  let engine = Netsim.Engine.create ~seed:1 () in
  let rx = receiver ~config:sack_config engine in
  let a, _, _ = List.hd (tpdus 1) in
  List.iter (fun t -> at engine t (fun () -> feed rx [ a ])) arrivals;
  List.iter (fun t -> at engine t (fun () -> drop rx a)) drop_at;
  Netsim.Engine.run ~until engine;
  (R.stats rx).CT.Rx_stats.nacks_sent

let test_timer_outlives_drop () =
  let until = 0.0995 in
  let control = nacks_by ~until ~arrivals:[ 0.0 ] ~drop_at:[] (fun _ _ -> ()) in
  let late = nacks_by ~until ~arrivals:[ 0.05 ] ~drop_at:[] (fun _ _ -> ()) in
  Alcotest.(check bool) "the timer fires while the gap stays open" true
    (control > late && late > 0);
  List.iter
    (fun (what, drop) ->
      (* re-arrival before the next firing: the surviving timer keeps
         going and no second one is armed, or NACKs would double *)
      Alcotest.(check int)
        (what ^ ": re-arrival before the firing arms no second timer")
        control
        (nacks_by ~until ~arrivals:[ 0.0; 0.005 ] ~drop_at:[ 0.003 ] drop);
      (* the firing finds no verifier state and disarms: silence until
         the next arrival, which arms a fresh timer *)
      Alcotest.(check int)
        (what ^ ": the firing disarms, the next arrival re-arms")
        late
        (nacks_by ~until ~arrivals:[ 0.0; 0.05 ] ~drop_at:[ 0.003 ] drop))
    drops

let test_drop_rerecords_arrival () =
  List.iter
    (fun (what, drop) ->
      let engine = Netsim.Engine.create ~seed:1 () in
      let rx = receiver engine in
      let a, b, ed = List.hd (tpdus 1) in
      at engine 0.0 (fun () -> feed rx [ a ]);
      at engine 0.003 (fun () -> drop rx a);
      at engine 0.5 (fun () -> feed rx [ a; b; ed ]);
      Netsim.Engine.run engine;
      let n, dt = latency rx in
      Alcotest.(check int) (what ^ ": passed once") 1 n;
      Alcotest.(check (float 1e-9))
        (what ^ ": latency from the retransmission") 0.0 dt)
    (List.filter (fun (what, _) -> what <> "failed epoch") drops)

let test_timer_only_untracked () =
  let engine = Netsim.Engine.create ~seed:1 () in
  let rx = receiver ~config:sack_config engine in
  let a, _, _ = List.hd (tpdus 1) in
  let t_id = t_id_of a in
  feed rx [ a ];
  Alcotest.(check bool) "tracked while state is held" true
    (R.tracks_tpdu rx ~t_id);
  Alcotest.(check int) "its data is stashed" 1 (R.stashed_tpdus rx);
  R.abort_tpdu rx ~t_id;
  Alcotest.(check int) "abort counted" 1 (R.stats rx).CT.Rx_stats.aborts_received;
  (* only the armed gap timer is left *)
  Alcotest.(check bool) "timer-only TPDU not tracked" false
    (R.tracks_tpdu rx ~t_id);
  Alcotest.(check int) "nothing stashed" 0 (R.stashed_tpdus rx);
  let img = R.export rx in
  Alcotest.(check int) "no corroboration exported" 0
    (List.length img.Transport.Persist.ri_corrob);
  R.abort_tpdu rx ~t_id;
  Alcotest.(check int) "a second abort finds nothing to drop" 1
    (R.stats rx).CT.Rx_stats.aborts_received;
  R.quiesce rx;
  Alcotest.(check int) "quiesce leaves the verifier empty" 0
    (R.verifier_in_flight rx)

(* --- the persisted image ------------------------------------------- *)

(* A mid-transfer endpoint holding every kind of per-TPDU state.
   Connection 1's live epoch has, one TPDU each:
   - 0: verified, then re-offered (a re-ACK clock);
   - 1: ED first, then half its data (a confirmed delta, placed runs);
   - 2: half its data (an unconfirmed stash);
   - 3: half its data, then aborted (an armed timer and nothing else);
   - 4: the half carrying C.ST (an unverified end claim).
   Connection 2 delivered one TPDU and closed (an archived epoch). *)
let pinned_endpoint () =
  let engine = Netsim.Engine.create ~seed:7 () in
  let m =
    Transport.Multi.create engine ~config:sack_config ~quota_elems:4096
      ~max_conns:8
      ~send_ack:(fun _ -> ())
      ()
  in
  let send cs = Transport.Multi.ingest m (packet cs) in
  let signal conn sg = send [ Connection.signal_chunk ~conn_id:conn sg ] in
  let ts = Array.of_list (tpdus ~last:true 5) in
  let part i k =
    let a, b, ed = ts.(i) in
    match k with `A -> a | `B -> b | `Ed -> ed
  in
  at engine 0.0 (fun () ->
      signal 1 (Connection.Open { first_csn = 0 });
      send [ part 0 `A; part 0 `B; part 0 `Ed ];
      send [ part 1 `Ed ];
      send [ part 1 `A ];
      send [ part 2 `A ];
      send [ part 3 `A ]);
  at engine 0.004 (fun () ->
      signal 1 (Connection.Abort_tpdu { t_id = t_id_of (part 3 `A) });
      send [ part 4 `B ]);
  at engine 0.0125 (fun () -> send [ part 0 `A ]);
  let c2, c2_b, c2_ed = List.hd (tpdus ~conn:2 ~last:true 1) in
  at engine 0.02 (fun () ->
      signal 2 (Connection.Open { first_csn = 0 });
      send [ c2; c2_b; c2_ed ];
      signal 2 Connection.Close);
  Netsim.Engine.run ~until:0.035 engine;
  (m, Array.map (fun (a, _, _) -> t_id_of a) ts)

(* MD5 of the encoded image of [pinned_endpoint ()]: a refactor of the
   receiver's state must leave it as it is; a deliberate change to the
   image format or content updates it. *)
let pinned_digest = "ecca24a5c89175e2775b0f9e0779cc92"

let test_pinned_image () =
  let m, tids = pinned_endpoint () in
  let image = Transport.Multi.export m in
  (match image with
  | [ c1; c2 ] ->
      Alcotest.(check bool) "connection 2 archived" true
        (c2.Transport.Persist.ci_live = None
        && c2.Transport.Persist.ci_hist <> []);
      let ri = Option.get c1.Transport.Persist.ci_live in
      let corrob t =
        List.find_opt
          (fun (p : Transport.Persist.corrob_image) ->
            p.Transport.Persist.pi_t_id = tids.(t))
          ri.Transport.Persist.ri_corrob
      in
      (match corrob 1 with
      | Some p ->
          Alcotest.(check bool) "TPDU 1: confirmed, runs placed" true
            (p.Transport.Persist.pi_confirmed
            && p.Transport.Persist.pi_placed_runs <> [])
      | None -> Alcotest.fail "TPDU 1 corroboration missing");
      (match corrob 2 with
      | Some p ->
          Alcotest.(check bool) "TPDU 2: unconfirmed stash" true
            ((not p.Transport.Persist.pi_confirmed)
            && p.Transport.Persist.pi_stash <> [])
      | None -> Alcotest.fail "TPDU 2 corroboration missing");
      Alcotest.(check bool) "TPDU 3: timer only, nothing exported" true
        (corrob 3 = None);
      Alcotest.(check (list int)) "TPDU 4: end claim" [ tids.(4) ]
        (List.map fst ri.Transport.Persist.ri_end_claims);
      Alcotest.(check (list int)) "TPDU 0: re-ACK clock" [ tids.(0) ]
        (List.map fst ri.Transport.Persist.ri_last_reack)
  | cs -> Alcotest.failf "expected 2 connections, got %d" (List.length cs));
  Alcotest.(check string) "image bytes" pinned_digest
    (Digest.to_hex
       (Digest.bytes
          (Transport.Persist.encode_endpoint (Transport.Persist.Multi image))))

let suite =
  [
    Alcotest.test_case "a failed epoch keeps the first arrival" `Quick
      test_failed_epoch_keeps_arrival;
    Alcotest.test_case "the gap timer outlives a drop until it fires" `Quick
      test_timer_outlives_drop;
    Alcotest.test_case "a drop re-records the arrival" `Quick
      test_drop_rerecords_arrival;
    Alcotest.test_case "a timer-only TPDU is not tracked" `Quick
      test_timer_only_untracked;
    Alcotest.test_case "persisted image bytes are pinned" `Quick
      test_pinned_image;
  ]
