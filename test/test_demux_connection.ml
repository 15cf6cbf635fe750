(* TYPE-based demultiplexing (Appendix A) and connection signalling. *)

open Labelling

let data_chunk () =
  let c = Ftuple.v ~id:7 ~sn:0 () in
  Util.ok_or_fail (Chunk.data ~size:4 ~c ~t:c ~x:c (Bytes.create 8))

let ed_chunk () =
  let c = Ftuple.v ~id:7 ~sn:0 () in
  Util.ok_or_fail (Chunk.control ~kind:Ctype.ed ~c ~t:c ~x:c (Bytes.create 8))

let test_demux_routing () =
  let d = Demux.create () in
  let data_seen = ref 0 and ed_seen = ref 0 in
  Demux.register d Ctype.data (fun _ -> incr data_seen);
  Demux.register d Ctype.ed (fun _ -> incr ed_seen);
  Demux.on_chunk d (data_chunk ());
  Demux.on_chunk d (ed_chunk ());
  Demux.on_chunk d (data_chunk ());
  Alcotest.(check int) "data routed" 2 !data_seen;
  Alcotest.(check int) "ed routed" 1 !ed_seen;
  Alcotest.(check int) "total" 3 (Demux.routed d);
  Alcotest.(check int) "no unknown" 0 (Demux.unknown d)

let test_demux_default () =
  let fell_through = ref 0 in
  let d = Demux.create ~default:(fun _ -> incr fell_through) () in
  Demux.on_chunk d (ed_chunk ());
  Alcotest.(check int) "unregistered TYPE -> default" 1 !fell_through;
  Alcotest.(check int) "unknown counted" 1 (Demux.unknown d)

let test_demux_packet () =
  let d = Demux.create () in
  let seen = ref [] in
  Demux.register d Ctype.data (fun c ->
      seen := c.Chunk.header.Header.c.Ftuple.sn :: !seen);
  let chunks =
    List.map
      (fun sn ->
        let c = Ftuple.v ~id:1 ~sn () in
        Util.ok_or_fail (Chunk.data ~size:4 ~c ~t:c ~x:c (Bytes.create 4)))
      [ 3; 1; 2 ]
  in
  let image = Util.ok_or_fail (Wire.encode_packet ~capacity:400 chunks) in
  (match Demux.on_packet d image with
  | Ok 3 -> ()
  | Ok n -> Alcotest.failf "expected 3 routed, got %d" n
  | Error e -> Alcotest.fail e);
  Alcotest.(check (list int)) "order preserved" [ 3; 1; 2 ] (List.rev !seen);
  (* terminators swallowed, garbage rejected *)
  match Demux.on_packet d (Bytes.make 10 '\xFF') with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage must be rejected"

let test_signal_roundtrip () =
  List.iter
    (fun signal ->
      let chunk = Connection.signal_chunk ~conn_id:42 signal in
      match Connection.parse_signal chunk with
      | Ok (42, s) ->
          Alcotest.(check bool) "same signal" true (s = signal)
      | Ok (id, _) -> Alcotest.failf "wrong conn id %d" id
      | Error e -> Alcotest.fail e)
    [ Connection.Open { first_csn = 1000 };
      Connection.Close;
      Connection.Resync { c_sn = 77 } ]

(* A signal must prove its own integrity: unlike data, whose damage the
   TPDU-level EDC catches end-to-end, a damaged Open would establish an
   epoch under a forged first C.SN with no later check to fail. *)
let test_signal_parity_rejects_damage () =
  let chunk =
    Connection.signal_chunk ~conn_id:42 (Connection.Open { first_csn = 1000 })
  in
  for i = 0 to Bytes.length chunk.Chunk.payload - 1 do
    let damaged = Bytes.copy chunk.Chunk.payload in
    Bytes.set_uint8 damaged i (Bytes.get_uint8 damaged i lxor 0x10);
    let forged = Util.ok_or_fail (Chunk.make chunk.Chunk.header damaged) in
    match Connection.parse_signal forged with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "flipped bit at payload byte %d went undetected" i
  done

let test_connection_lifecycle () =
  let tbl = Connection.create () in
  let data = data_chunk () in
  (* data before establishment is rejected *)
  (match Connection.on_chunk tbl data with
  | `Unknown_connection 7 -> ()
  | _ -> Alcotest.fail "data before open must be unknown");
  (* open, then data flows *)
  (match
     Connection.on_chunk tbl
       (Connection.signal_chunk ~conn_id:7 (Connection.Open { first_csn = 0 }))
   with
  | `Signal (7, Connection.Open _) -> ()
  | _ -> Alcotest.fail "open signal");
  (match Connection.on_chunk tbl data with
  | `Data_for 7 -> ()
  | _ -> Alcotest.fail "data after open");
  Alcotest.(check (list int)) "established" [ 7 ] (Connection.established tbl);
  (* close, data rejected again *)
  (match
     Connection.on_chunk tbl (Connection.signal_chunk ~conn_id:7 Connection.Close)
   with
  | `Signal (7, Connection.Close) -> ()
  | _ -> Alcotest.fail "close signal");
  match Connection.on_chunk tbl data with
  | `Unknown_connection 7 -> ()
  | _ -> Alcotest.fail "data after close must be rejected"

let test_inband_cst_closes () =
  let tbl = Connection.create () in
  ignore
    (Connection.on_chunk tbl
       (Connection.signal_chunk ~conn_id:9 (Connection.Open { first_csn = 5 })));
  let c = Ftuple.v ~st:true ~id:9 ~sn:5 () in
  let final =
    Util.ok_or_fail
      (Chunk.data ~size:4 ~c
         ~t:(Ftuple.v ~st:true ~id:0 ~sn:0 ())
         ~x:(Ftuple.v ~st:true ~id:0 ~sn:0 ())
         (Bytes.create 4))
  in
  (match Connection.on_chunk tbl final with
  | `Data_for 9 -> ()
  | _ -> Alcotest.fail "final data accepted");
  match Connection.state tbl ~conn_id:9 with
  | Some Connection.Closed -> ()
  | _ -> Alcotest.fail "C.ST must close the connection"

(* --- Multi-connection transport lifecycle ------------------------- *)

module CT = Transport.Chunk_transport

let multi_config =
  { CT.default_config with
    CT.elem_size = 4;
    tpdu_elems = 64;
    frame_bytes = 256;
    rto = 0.05;
    state_ttl = 2.0 }

(* A Multi receiver wired to per-connection senders over zero-loss
   direct delivery (small latency so the event loop interleaves). *)
type rig = {
  engine : Netsim.Engine.t;
  multi : Transport.Multi.t;
  senders : (int, CT.Sender.t) Hashtbl.t;
}

let make_rig ?(quota_elems = 1024) ?anomaly_budget () =
  let engine = Netsim.Engine.create ~seed:19 () in
  let senders = Hashtbl.create 4 in
  let multi = ref None in
  let m =
    Transport.Multi.create engine ~config:multi_config ~quota_elems
      ~max_conns:8 ?anomaly_budget
      ~send_ack:(fun b ->
        Netsim.Engine.schedule engine ~delay:1e-4 (fun () ->
            match Wire.decode_packet b with
            | Error _ -> ()
            | Ok chunks ->
                List.iter
                  (fun ch ->
                    if not (Chunk.is_terminator ch) then
                      let cid = ch.Chunk.header.Header.c.Ftuple.id in
                      match Hashtbl.find_opt senders cid with
                      | Some tx -> CT.Sender.on_chunk tx ch
                      | None -> ())
                  chunks))
      ()
  in
  multi := Some m;
  { engine; multi = m; senders }

let to_multi rig b =
  Netsim.Engine.schedule rig.engine ~delay:1e-4 (fun () ->
      Transport.Multi.ingest rig.multi b)

let start_transfer rig ~conn ~epoch data =
  let tx =
    CT.Sender.create rig.engine
      { multi_config with CT.conn_id = conn }
      ~first_tid:(epoch * 100_000) ~announce_open:true
      ~send:(to_multi rig) ~data ()
  in
  Hashtbl.replace rig.senders conn tx;
  CT.Sender.start tx;
  tx

let send_signal rig ~conn signal =
  match Wire.encode_packet [ Connection.signal_chunk ~conn_id:conn signal ] with
  | Ok b -> to_multi rig b
  | Error e -> Alcotest.fail e

let check_epoch rig ~conn ~epoch ~complete data =
  match List.nth_opt (Transport.Multi.epochs rig.multi ~conn_id:conn) epoch with
  | None -> Alcotest.failf "conn %d epoch %d missing" conn epoch
  | Some r ->
      Alcotest.(check bool)
        (Printf.sprintf "conn %d epoch %d complete" conn epoch)
        complete r.Transport.Multi.complete;
      let n = Bytes.length data in
      Alcotest.(check bool)
        (Printf.sprintf "conn %d epoch %d intact" conn epoch)
        true
        (Bytes.length r.Transport.Multi.delivered >= n
        && Bytes.equal (Bytes.sub r.Transport.Multi.delivered 0 n) data)

let test_multi_close_reopen () =
  (* full round trip: Open (piggybacked) -> transfer -> explicit Close
     -> re-establishment under the SAME C.ID with a disjoint T.ID space
     -> second transfer -> Close.  The first epoch's archive must
     survive the reuse untouched. *)
  let rig = make_rig () in
  let d0 = Util.deterministic_bytes 3000 in
  let tx0 = start_transfer rig ~conn:5 ~epoch:0 d0 in
  Netsim.Engine.run rig.engine;
  Alcotest.(check bool) "epoch 0 sender done" true (CT.Sender.finished tx0);
  send_signal rig ~conn:5 Connection.Close;
  Netsim.Engine.run rig.engine;
  Alcotest.(check int) "closed: no live conns" 0
    (Transport.Multi.live_conns rig.multi);
  (* same C.ID, fresh epoch, different data *)
  let d1 = Bytes.map (fun c -> Char.chr (Char.code c lxor 0x5A)) d0 in
  let tx1 = start_transfer rig ~conn:5 ~epoch:1 d1 in
  Netsim.Engine.run rig.engine;
  Alcotest.(check bool) "epoch 1 sender done" true (CT.Sender.finished tx1);
  send_signal rig ~conn:5 Connection.Close;
  Netsim.Engine.run rig.engine;
  check_epoch rig ~conn:5 ~epoch:0 ~complete:true d0;
  check_epoch rig ~conn:5 ~epoch:1 ~complete:true d1;
  Alcotest.(check int) "all closed" 0 (Transport.Multi.live_conns rig.multi)

let test_multi_resync_harmless () =
  (* a Resync signal mid-stream must not disturb delivery (the receiver
     places by absolute C.SN; resynchronisation is a no-op for it) *)
  let rig = make_rig () in
  let d = Util.deterministic_bytes 2000 in
  let tx = start_transfer rig ~conn:3 ~epoch:0 d in
  Netsim.Engine.schedule rig.engine ~delay:1e-3 (fun () ->
      send_signal rig ~conn:3 (Connection.Resync { c_sn = 123 }));
  Netsim.Engine.run rig.engine;
  Alcotest.(check bool) "sender done" true (CT.Sender.finished tx);
  send_signal rig ~conn:3 Connection.Close;
  Netsim.Engine.run rig.engine;
  check_epoch rig ~conn:3 ~epoch:0 ~complete:true d

let test_multi_quarantine_trips_and_releases () =
  (* Open/Close churn is the scored anomaly: each explicit
     re-establishment adds weight, and a small budget boxes the
     connection; while boxed every event from it is refused.  After the
     penalty expires the connection is re-admitted and a real transfer
     completes — quarantine is containment, not a death sentence. *)
  let rig = make_rig ~anomaly_budget:8 () in
  let d0 = Util.deterministic_bytes 1500 in
  let tx0 = start_transfer rig ~conn:4 ~epoch:0 d0 in
  Netsim.Engine.run rig.engine;
  Alcotest.(check bool) "epoch 0 done" true (CT.Sender.finished tx0);
  send_signal rig ~conn:4 Connection.Close;
  Netsim.Engine.run rig.engine;
  (* churn: two more explicit re-establishments exhaust the budget.
     Run the engine only a few ms forward — a full drain would advance
     simulated time past the penalty window before we can look at it *)
  let t0 = Netsim.Engine.now rig.engine in
  send_signal rig ~conn:4 (Connection.Open { first_csn = 100_000 });
  send_signal rig ~conn:4 Connection.Close;
  send_signal rig ~conn:4 (Connection.Open { first_csn = 200_000 });
  Netsim.Engine.run ~until:(t0 +. 0.01) rig.engine;
  Alcotest.(check int) "churn tripped one quarantine" 1
    (Transport.Multi.quarantines rig.multi);
  (match Transport.Multi.conn_stats rig.multi ~conn_id:4 with
  | None -> Alcotest.fail "conn 4 unknown"
  | Some cs ->
      Alcotest.(check bool) "conn 4 boxed" true
        cs.Transport.Multi.cs_quarantined;
      Alcotest.(check int) "one quarantine on record" 1
        cs.Transport.Multi.cs_quarantines;
      Alcotest.(check bool) "not poisoned" false
        cs.Transport.Multi.cs_poisoned);
  (* while boxed, everything from the connection is refused *)
  let drops0 = Transport.Multi.quarantine_drops rig.multi in
  let epochs0 = List.length (Transport.Multi.epochs rig.multi ~conn_id:4) in
  send_signal rig ~conn:4 (Connection.Open { first_csn = 300_000 });
  Netsim.Engine.run ~until:(t0 +. 0.02) rig.engine;
  Alcotest.(check bool) "boxed Open refused" true
    (Transport.Multi.quarantine_drops rig.multi > drops0);
  Alcotest.(check int) "refused Open made no epoch" epochs0
    (List.length (Transport.Multi.epochs rig.multi ~conn_id:4));
  (* after the penalty window, the connection earns its way back *)
  Netsim.Engine.schedule rig.engine ~delay:0.4 (fun () -> ());
  Netsim.Engine.run rig.engine;
  let d1 = Util.deterministic_bytes 1500 in
  let tx1 = start_transfer rig ~conn:4 ~epoch:9 d1 in
  Netsim.Engine.run rig.engine;
  Alcotest.(check bool) "re-admitted transfer completes" true
    (CT.Sender.finished tx1);
  Alcotest.(check int) "no second quarantine" 1
    (Transport.Multi.quarantines rig.multi)

let test_multi_quarantine_survives_restore () =
  (* the penalty box is part of the crash image (persist v2): a boxed
     connection restored from a snapshot is still boxed, with its
     quarantine count intact — a crash must not amnesty an attacker *)
  let rig = make_rig ~anomaly_budget:8 () in
  let d0 = Util.deterministic_bytes 1200 in
  let tx0 = start_transfer rig ~conn:6 ~epoch:0 d0 in
  Netsim.Engine.run rig.engine;
  Alcotest.(check bool) "epoch 0 done" true (CT.Sender.finished tx0);
  send_signal rig ~conn:6 Connection.Close;
  send_signal rig ~conn:6 (Connection.Open { first_csn = 100_000 });
  send_signal rig ~conn:6 Connection.Close;
  send_signal rig ~conn:6 (Connection.Open { first_csn = 200_000 });
  Netsim.Engine.run rig.engine;
  Alcotest.(check int) "boxed before the crash" 1
    (Transport.Multi.quarantines rig.multi);
  let module P = Transport.Persist in
  let encoded = P.encode_endpoint (P.Multi (Transport.Multi.export rig.multi)) in
  Transport.Multi.teardown rig.multi;
  let engine = Netsim.Engine.create ~seed:20 () in
  let m1 =
    match P.decode_endpoint encoded with
    | Error e -> Alcotest.fail e
    | Ok (P.Single _) -> Alcotest.fail "endpoint shape changed"
    | Ok (P.Multi cs) ->
        Transport.Multi.restore engine ~config:multi_config ~quota_elems:1024
          ~max_conns:8 ~anomaly_budget:8
          ~send_ack:(fun _ -> ())
          cs
  in
  (match Transport.Multi.conn_stats m1 ~conn_id:6 with
  | None -> Alcotest.fail "conn 6 lost across restore"
  | Some cs ->
      Alcotest.(check bool) "still boxed after restore" true
        cs.Transport.Multi.cs_quarantined;
      Alcotest.(check int) "quarantine count restored" 1
        cs.Transport.Multi.cs_quarantines);
  (* and the restored box still refuses events *)
  let drops0 = Transport.Multi.quarantine_drops m1 in
  let epochs0 = List.length (Transport.Multi.epochs m1 ~conn_id:6) in
  (match
     Wire.encode_packet
       [ Connection.signal_chunk ~conn_id:6 (Connection.Open { first_csn = 300_000 }) ]
   with
  | Ok b -> Transport.Multi.ingest m1 b
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "restored box refuses the Open" true
    (Transport.Multi.quarantine_drops m1 > drops0);
  Alcotest.(check int) "refused Open made no epoch" epochs0
    (List.length (Transport.Multi.epochs m1 ~conn_id:6))

let test_multi_abort_recovers () =
  (* a forged Abort_tpdu for an in-flight TPDU evicts its partial state;
     the sender (which never abandoned it) retransmits under the
     identical label and the transfer still completes intact *)
  let rig = make_rig () in
  let d = Util.deterministic_bytes 4000 in
  let tx = start_transfer rig ~conn:2 ~epoch:0 d in
  Netsim.Engine.schedule rig.engine ~delay:2e-4 (fun () ->
      send_signal rig ~conn:2 (Connection.Abort_tpdu { t_id = 0 }));
  Netsim.Engine.run rig.engine;
  Alcotest.(check bool) "sender done despite forged abort" true
    (CT.Sender.finished tx);
  send_signal rig ~conn:2 Connection.Close;
  Netsim.Engine.run rig.engine;
  check_epoch rig ~conn:2 ~epoch:0 ~complete:true d

let test_multi_concurrent_conns () =
  (* several connections interleaved through one receiver endpoint *)
  let rig = make_rig () in
  let datas =
    List.map
      (fun conn ->
        ( conn,
          Bytes.map
            (fun c -> Char.chr (Char.code c lxor (conn * 37)))
            (Util.deterministic_bytes (1500 + (conn * 700))) ))
      [ 1; 2; 3 ]
  in
  let txs =
    List.map
      (fun (conn, d) -> (conn, start_transfer rig ~conn ~epoch:0 d))
      datas
  in
  Netsim.Engine.run rig.engine;
  List.iter
    (fun (conn, tx) ->
      Alcotest.(check bool)
        (Printf.sprintf "conn %d done" conn)
        true (CT.Sender.finished tx))
    txs;
  List.iter (fun (conn, _) -> send_signal rig ~conn Connection.Close) datas;
  Netsim.Engine.run rig.engine;
  List.iter
    (fun (conn, d) -> check_epoch rig ~conn ~epoch:0 ~complete:true d)
    datas;
  Alcotest.(check int) "all closed" 0 (Transport.Multi.live_conns rig.multi)

let suite =
  [
    Alcotest.test_case "demux routes by TYPE" `Quick test_demux_routing;
    Alcotest.test_case "demux default handler" `Quick test_demux_default;
    Alcotest.test_case "demux whole packets" `Quick test_demux_packet;
    Alcotest.test_case "signal roundtrip" `Quick test_signal_roundtrip;
    Alcotest.test_case "signal parity rejects damage" `Quick
      test_signal_parity_rejects_damage;
    Alcotest.test_case "connection lifecycle" `Quick test_connection_lifecycle;
    Alcotest.test_case "in-band C.ST closes" `Quick test_inband_cst_closes;
    Alcotest.test_case "multi: close then reopen reuses C.ID" `Quick
      test_multi_close_reopen;
    Alcotest.test_case "multi: resync mid-stream is harmless" `Quick
      test_multi_resync_harmless;
    Alcotest.test_case "multi: forged abort recovers by retransmission"
      `Quick test_multi_abort_recovers;
    Alcotest.test_case "multi: concurrent connections" `Quick
      test_multi_concurrent_conns;
    Alcotest.test_case "multi: churn quarantine trips and releases" `Quick
      test_multi_quarantine_trips_and_releases;
    Alcotest.test_case "multi: quarantine survives crash restore" `Quick
      test_multi_quarantine_survives_restore;
  ]
