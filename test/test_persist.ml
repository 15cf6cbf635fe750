(* Crash-recovery persistence: the snapshot codec is a fixpoint, journal
   replay rebuilds the canonical image, torn journal tails are dropped
   cleanly — and, the property that matters, a receiver restored from
   its own snapshot is behaviourally indistinguishable from the live
   receiver it was taken from under any identical packet suffix. *)

module CT = Transport.Chunk_transport
module Persist = Transport.Persist

let config =
  {
    CT.default_config with
    CT.elem_size = 4;
    tpdu_elems = 16;
    frame_bytes = 64;
    window = 4;
    rto = 0.02;
  }

(* Run a live transfer and record every packet that reached the receiver
   door, in arrival order.  [drop_k] > 0 drops every k-th forward packet
   before it is recorded, so the recorded stream also contains the
   timeout retransmissions and duplicates the repair machinery produced
   — exactly the traffic a restored receiver must absorb. *)
let record_door_packets ~seed ~data_len ~drop_k =
  let engine = Netsim.Engine.create ~seed () in
  let data = Util.deterministic_bytes data_len in
  let recorded = ref [] in
  let receiver = ref None in
  let sender = ref None in
  let count = ref 0 in
  let tx =
    CT.Sender.create engine config
      ~send:(fun b ->
        incr count;
        if not (drop_k > 0 && !count mod drop_k = 0) then
          match !receiver with
          | Some rx ->
              let b = Bytes.copy b in
              Netsim.Engine.schedule engine ~delay:1e-4 (fun () ->
                  recorded := b :: !recorded;
                  CT.Receiver.ingest rx b)
          | None -> ())
      ~data ()
  in
  sender := Some tx;
  let expected = CT.expected_elements config ~data_len in
  let rx =
    CT.Receiver.create engine config
      ~send_ack:(fun b ->
        match !sender with
        | Some tx ->
            let b = Bytes.copy b in
            Netsim.Engine.schedule engine ~delay:1e-4 (fun () ->
                CT.Sender.on_packet tx b)
        | None -> ())
      ~capacity:(`Exact expected) ()
  in
  receiver := Some rx;
  CT.Sender.start tx;
  Netsim.Engine.run engine;
  (List.rev !recorded, expected)

(* Split the recorded stream at [cut], snapshot a live receiver there,
   push the snapshot through the binary codec, restore a second receiver
   from the decoded image, then feed the identical tail to both.  Every
   observable — delivered bytes, completion, the ACK ledger, the ACK
   packets emitted after the cut, and the full recoverable state — must
   agree. *)
let restore_equivalent ~seed ~data_len ~drop_k ~cut_pct =
  let packets, expected = record_door_packets ~seed ~data_len ~drop_k in
  let cut = List.length packets * cut_pct / 100 in
  let prefix = List.filteri (fun i _ -> i < cut) packets in
  let tail = List.filteri (fun i _ -> i >= cut) packets in
  let engine = Netsim.Engine.create ~seed:1 () in
  let acks_a = ref [] and acks_b = ref [] in
  let a =
    CT.Receiver.create engine config
      ~send_ack:(fun p -> acks_a := Bytes.copy p :: !acks_a)
      ~capacity:(`Exact expected) ()
  in
  List.iter (CT.Receiver.ingest a) prefix;
  let img =
    Persist.Single
      { Persist.s_acked = CT.Receiver.acked_tids a; s_rx = CT.Receiver.export a }
  in
  match Persist.decode_endpoint (Persist.encode_endpoint img) with
  | Error _ | Ok (Persist.Multi _) -> false
  | Ok (Persist.Single si) ->
      let b =
        CT.Receiver.restore engine config
          ~send_ack:(fun p -> acks_b := Bytes.copy p :: !acks_b)
          ~capacity:(`Exact expected) si.Persist.s_rx
          ~acked_tids:si.Persist.s_acked
      in
      (* only the post-cut ACK streams are comparable: the prefix ACKs
         left before the snapshot was taken *)
      acks_a := [];
      List.iter (CT.Receiver.ingest a) tail;
      List.iter (CT.Receiver.ingest b) tail;
      CT.Receiver.contents a = CT.Receiver.contents b
      && CT.Receiver.delivered_elems a = CT.Receiver.delivered_elems b
      && CT.Receiver.complete a = CT.Receiver.complete b
      && CT.Receiver.acked_tids a = CT.Receiver.acked_tids b
      && CT.Receiver.epoch_passes a = CT.Receiver.epoch_passes b
      && CT.Receiver.export a = CT.Receiver.export b
      && List.rev !acks_a = List.rev !acks_b

let gen_equiv_case =
  QCheck2.Gen.(
    let* seed = int_range 0 10_000 in
    let* data_len = int_range 256 4_000 in
    let* drop_k = oneofl [ 0; 0; 3; 5 ] in
    let* cut_pct = int_range 0 100 in
    return (seed, data_len, drop_k, cut_pct))

let prop_restore_equivalent (seed, data_len, drop_k, cut_pct) =
  restore_equivalent ~seed ~data_len ~drop_k ~cut_pct

(* Mid-transfer snapshots hold in-flight verifier and corroboration
   state; the codec must reproduce them exactly, not just the easy
   all-verified images. *)
let prop_codec_fixpoint (seed, data_len, cut_pct) =
  let packets, expected = record_door_packets ~seed ~data_len ~drop_k:3 in
  let cut = List.length packets * cut_pct / 100 in
  let prefix = List.filteri (fun i _ -> i < cut) packets in
  let engine = Netsim.Engine.create ~seed:1 () in
  let rx =
    CT.Receiver.create engine config
      ~send_ack:(fun _ -> ())
      ~capacity:(`Exact expected) ()
  in
  List.iter (CT.Receiver.ingest rx) prefix;
  let img =
    Persist.Single
      { Persist.s_acked = CT.Receiver.acked_tids rx; s_rx = CT.Receiver.export rx }
  in
  Persist.decode_endpoint (Persist.encode_endpoint img) = Ok img

(* Regression: the float codec used to bounce the IEEE bits through a
   63-bit OCaml int, so any persisted float with magnitude >= 2.0 came
   back sign-flipped (the quarantine deadline was the first field big
   enough to hit it).  Round-trip floats across the whole range through
   a conn image, whose [ci_quar_until] is the only float-bearing field
   reachable without a full receiver. *)
let prop_float_roundtrip v =
  let img =
    Persist.Multi
      [
        {
          Persist.ci_id = 1;
          ci_acked = [];
          ci_hist = [];
          ci_live = None;
          ci_live_open = None;
          ci_quar_until = v;
          ci_quar_count = 0;
          ci_poisoned = false;
        };
      ]
  in
  Persist.decode_endpoint (Persist.encode_endpoint img) = Ok img

let run_at sn s = (sn, Bytes.of_string s)

let test_journal_replay () =
  (* two ACK records, out of order and with a gap: replay must produce
     the canonical image — sorted ledger, coalesced runs, the verified
     cover exactly the acknowledged spans, end confirmed by either
     record *)
  let empty =
    Persist.Single
      { Persist.s_acked = []; s_rx = Persist.empty_receiver ~conn:7 }
  in
  let events =
    [
      Persist.Acked
        { conn = 7; t_id = 3; end_confirmed = None; runs = [ run_at 4 "efghijkl" ] };
      Persist.Acked
        {
          conn = 7;
          t_id = 1;
          end_confirmed = Some 5;
          runs = [ run_at 0 "abcdABCDwxyzWXYZ" ];
        };
      (* wrong connection: must be ignored, not misfiled *)
      Persist.Acked
        { conn = 9; t_id = 2; end_confirmed = None; runs = [ run_at 0 "XXXXYYYY" ] };
    ]
  in
  match Persist.apply_journal ~elem_size:4 ~quota_elems:16 empty events with
  | Persist.Multi _ -> Alcotest.fail "journal replay changed the endpoint shape"
  | Persist.Single si ->
      Alcotest.(check (list int)) "ledger sorted" [ 1; 3 ] si.Persist.s_acked;
      Alcotest.(check int) "passes counted" 2 si.Persist.s_rx.Persist.ri_passed;
      Alcotest.(check (option int))
        "end confirmed" (Some 5) si.Persist.s_rx.Persist.ri_end_confirmed;
      Alcotest.(check (list (pair int int)))
        "verified cover coalesced" [ (0, 6) ] si.Persist.s_rx.Persist.ri_verified;
      (match si.Persist.s_rx.Persist.ri_placed with
      | [ (0, b) ] ->
          Alcotest.(check string) "placed bytes fused"
            "abcdABCDwxyzWXYZefghijkl" (Bytes.to_string b)
      | runs ->
          Alcotest.failf "expected one fused run, got %d" (List.length runs))

let test_store_torn_tail () =
  (* write-ahead store: snapshot + two journal records, then a flipped
     bit in the last record.  Recovery must keep the snapshot and the
     first record, drop the torn tail, and say so. *)
  let base =
    Persist.Single
      { Persist.s_acked = []; s_rx = Persist.empty_receiver ~conn:7 }
  in
  let store = Persist.Store.create () in
  Persist.Store.snapshot store base;
  Persist.Store.append store
    (Persist.Acked
       { conn = 7; t_id = 1; end_confirmed = None; runs = [ run_at 0 "abcdabcd" ] });
  Persist.Store.append store
    (Persist.Acked
       { conn = 7; t_id = 2; end_confirmed = None; runs = [ run_at 2 "efghefgh" ] });
  Persist.Store.corrupt_tail store;
  match
    Persist.Store.recover ~elem_size:4 ~quota_elems:16 ~empty:base store
  with
  | Error e -> Alcotest.failf "recover failed: %s" e
  | Ok (Persist.Multi _, _) -> Alcotest.fail "recover changed endpoint shape"
  | Ok (Persist.Single si, torn) ->
      Alcotest.(check bool) "tail reported torn" true torn;
      Alcotest.(check (list int)) "first record kept, torn one dropped"
        [ 1 ] si.Persist.s_acked

let test_sender_restore () =
  (* a finished sender round-trips: the restored instance rebuilds every
     TPDU, finds them all in the ledger, and has nothing to transmit *)
  let data = Util.deterministic_bytes 2_000 in
  let engine = Netsim.Engine.create ~seed:5 () in
  let receiver = ref None in
  let sender = ref None in
  let tx =
    CT.Sender.create engine config
      ~send:(fun b ->
        match !receiver with
        | Some rx ->
            let b = Bytes.copy b in
            Netsim.Engine.schedule engine ~delay:1e-4 (fun () ->
                CT.Receiver.ingest rx b)
        | None -> ())
      ~data ()
  in
  sender := Some tx;
  let rx =
    CT.Receiver.create engine config
      ~send_ack:(fun b ->
        match !sender with
        | Some tx ->
            let b = Bytes.copy b in
            Netsim.Engine.schedule engine ~delay:1e-4 (fun () ->
                CT.Sender.on_packet tx b)
        | None -> ())
      ~capacity:
        (`Exact (CT.expected_elements config ~data_len:(Bytes.length data)))
      ()
  in
  receiver := Some rx;
  CT.Sender.start tx;
  Netsim.Engine.run engine;
  Alcotest.(check bool) "live sender finished" true (CT.Sender.finished tx);
  let si = CT.Sender.export tx in
  (match Persist.decode_sender (Persist.encode_sender si) with
  | Ok si' -> Alcotest.(check bool) "sender codec fixpoint" true (si = si')
  | Error e -> Alcotest.failf "sender image decode failed: %s" e);
  let engine2 = Netsim.Engine.create ~seed:6 () in
  let sent = ref 0 in
  let tx' =
    CT.Sender.restore engine2 config ~send:(fun _ -> incr sent) ~data si
  in
  CT.Sender.start tx';
  Netsim.Engine.run engine2;
  Alcotest.(check bool) "restored sender finished" true
    (CT.Sender.finished tx');
  Alcotest.(check int) "acked TPDUs not retransmitted" 0 !sent

let test_sender_restore_rejects_adaptive () =
  (* adaptive sizing re-partitions the stream mid-flight — a restored
     adaptive sender could label different bytes with the same T.ID, so
     the restore must refuse outright *)
  let engine = Netsim.Engine.create ~seed:5 () in
  let si =
    {
      Persist.si_first_tid = 0;
      si_acked = [];
      si_srtt = None;
      si_rttvar = 0.0;
      si_rto_cur = 0.05;
      si_tpdu_elems = 16;
    }
  in
  Alcotest.check_raises "adaptive restore refused"
    (Invalid_argument
       "Chunk_transport.Sender.restore: adaptive TPDU sizing cannot be \
        restored (label assignment is not deterministic)")
    (fun () ->
      ignore
        (CT.Sender.restore engine
           { config with CT.adaptive = true }
           ~send:(fun _ -> ())
           ~data:(Util.deterministic_bytes 512) si))

(* The placement's lock map is the restored receiver's verified
   coverage, so a verified span of the image that does not fit the
   placement window — only a damaged or foreign image holds one — is
   dropped whole: it is not exported again, and it cannot make the
   stream complete (a separate span list kept it, and counted it). *)
let test_restore_drops_out_of_window_verified () =
  let engine = Netsim.Engine.create ~seed:1 () in
  let restore ri_verified ~last =
    let img =
      CT.Receiver.export
        (CT.Receiver.create engine config ~send_ack:ignore
           ~capacity:(`Quota 64) ())
    in
    CT.Receiver.restore engine config ~send_ack:ignore ~capacity:(`Quota 64)
      { img with Persist.ri_verified; ri_end_confirmed = Some last }
      ~acked_tids:[]
  in
  let rx = restore [ (0, 8); (60, 10); (100, 4) ] ~last:7 in
  Alcotest.(check (list (pair int int)))
    "only the in-window span survives" [ (0, 8) ]
    (CT.Receiver.export rx).Persist.ri_verified;
  Alcotest.(check bool) "complete up to its end" true (CT.Receiver.complete rx);
  let rx = restore [ (0, 70) ] ~last:69 in
  Alcotest.(check (list (pair int int)))
    "a span past the window is dropped" []
    (CT.Receiver.export rx).Persist.ri_verified;
  Alcotest.(check bool) "and does not complete the stream" false
    (CT.Receiver.complete rx)

let suite =
  [
    Util.qtest ~count:60
      "restored receiver behaves identically on any packet suffix"
      gen_equiv_case prop_restore_equivalent;
    Util.qtest ~count:40 "mid-transfer snapshots round-trip the codec"
      QCheck2.Gen.(
        tup3 (int_range 0 10_000) (int_range 256 4_000) (int_range 0 100))
      prop_codec_fixpoint;
    Util.qtest ~count:200 "persisted floats round-trip beyond magnitude 2"
      QCheck2.Gen.(
        oneof
          [
            float_range (-1e9) 1e9;
            float_range (-4.0) 4.0;
            oneofl [ 0.0; 2.0; -2.0; 2.25; max_float; -.max_float ];
          ])
      prop_float_roundtrip;
    Alcotest.test_case "journal replay rebuilds the canonical image" `Quick
      test_journal_replay;
    Alcotest.test_case "torn journal tail dropped, prefix kept" `Quick
      test_store_torn_tail;
    Alcotest.test_case "finished sender round-trips restore" `Quick
      test_sender_restore;
    Alcotest.test_case "sender restore refuses adaptive sizing" `Quick
      test_sender_restore_rejects_adaptive;
    Alcotest.test_case "restore drops a verified span outside the window"
      `Quick test_restore_drops_out_of_window_verified;
  ]
