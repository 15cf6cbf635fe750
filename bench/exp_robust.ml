(* ROB-*: survivability experiments — what the adaptive control plane
   buys under hostile load.  ROB-RTO sweeps goodput against loss with a
   fixed RTO vs the Jacobson/Karn estimator (same schedules, same
   seeds): the fixed timer is an overestimate by construction, so every
   loss costs a full conservative timeout, while the estimator converges
   on the path's real round trip and repairs losses at RTT scale. *)

let seed = 0x5EED

let section id title =
  Printf.printf "\n=== EXP %s === %s (seed %#x)\n" id title seed

let transfer_data n =
  Bytes.init n (fun i -> Char.chr ((i * 31 + i / 977) land 0xFF))

let rob_rto () =
  section "ROB-RTO" "goodput vs loss: fixed RTO vs adaptive (Jacobson/Karn)";
  let data = transfer_data 131072 in
  let base =
    (* small TTL: the governor's trailing sweep is part of sim_time, so
       keep it out of the goodput comparison's way *)
    { Transport.Chunk_transport.default_config with
      Transport.Chunk_transport.rto = 0.25;
      window = 4;
      state_ttl = 0.25 }
  in
  Printf.printf "  %-8s %-22s %-22s %-10s\n" "loss" "fixed goodput (Mb/s)"
    "adaptive goodput (Mb/s)" "speedup";
  List.iter
    (fun loss ->
      let run config =
        Transport.Chunk_transport.run ~seed ~loss ~config ~data ()
      in
      let fixed = run base in
      let adaptive =
        run { base with Transport.Chunk_transport.rto_adaptive = true }
      in
      assert fixed.Transport.Chunk_transport.ok;
      assert adaptive.Transport.Chunk_transport.ok;
      let mbps o = o.Transport.Chunk_transport.goodput_bps /. 1e6 in
      let speedup = adaptive.goodput_bps /. fixed.goodput_bps in
      Printf.printf "  %-8.2f %-22.3f %-22.3f %-10.2fx\n" loss (mbps fixed)
        (mbps adaptive) speedup;
      let tag = Printf.sprintf "%.2f" loss in
      Util_bench.Metrics.record ~exp:"ROB-RTO"
        ("fixed goodput bps @" ^ tag)
        fixed.goodput_bps;
      Util_bench.Metrics.record ~exp:"ROB-RTO"
        ("adaptive goodput bps @" ^ tag)
        adaptive.goodput_bps;
      Util_bench.Metrics.record ~exp:"ROB-RTO"
        ("fixed sim s @" ^ tag)
        fixed.sim_time;
      Util_bench.Metrics.record ~exp:"ROB-RTO"
        ("adaptive sim s @" ^ tag)
        adaptive.sim_time;
      Util_bench.Metrics.record ~exp:"ROB-RTO"
        ("adaptive rtt samples @" ^ tag)
        (float_of_int adaptive.rtt_samples))
    [ 0.0; 0.05; 0.10; 0.20 ]

(* ROB-ABORT: the cost of abandoning a starved transfer.  The reverse
   path is dead and the forward path loses every ED-bearing packet, so
   no TPDU can verify and the receiver accumulates partial state; the
   sender backs off exponentially (capped), gives up after
   [give_up_txs] transmissions, and signals Abort_tpdu so that state is
   reclaimed immediately instead of waiting for the delta-t deadline. *)
let rob_abort () =
  section "ROB-ABORT" "give-up under a starved path";
  let engine = Netsim.Engine.create ~seed () in
  let config =
    { Transport.Chunk_transport.default_config with
      Transport.Chunk_transport.rto = 0.05;
      give_up_txs = 6;
      state_ttl = 30.0 }
  in
  let receiver = ref None in
  let drops_ed b =
    match Labelling.Wire.decode_packet b with
    | Error _ -> false
    | Ok chunks ->
        List.exists
          (fun ch ->
            Labelling.Ctype.equal
              ch.Labelling.Chunk.header.Labelling.Header.ctype
              Labelling.Ctype.ed)
          chunks
  in
  let tx =
    Transport.Chunk_transport.Sender.create engine config
      ~send:(fun b ->
        match !receiver with
        | Some rx ->
            if not (drops_ed b) then
              Transport.Chunk_transport.Receiver.ingest rx b
        | None -> ())
      ~data:(transfer_data 8192) ()
  in
  let rx =
    Transport.Chunk_transport.Receiver.create engine config
      ~send_ack:(fun _ -> ())
      ~capacity:
        (`Exact
          (Transport.Chunk_transport.expected_elements config ~data_len:8192))
      ()
  in
  receiver := Some rx;
  Transport.Chunk_transport.Sender.start tx;
  Netsim.Engine.run engine;
  let module CT = Transport.Chunk_transport in
  Printf.printf
    "  gave up after %.3f sim s; aborts sent %d, received %d; receiver \
     in-flight %d, stashed %d\n"
    (Netsim.Engine.now engine)
    (CT.Sender.aborts_sent tx)
    (CT.Receiver.aborts_received rx)
    (CT.Receiver.verifier_in_flight rx)
    (CT.Receiver.stashed_tpdus rx);
  Util_bench.Metrics.record ~exp:"ROB-ABORT" "give-up sim s"
    (Netsim.Engine.now engine);
  Util_bench.Metrics.record ~exp:"ROB-ABORT" "aborts sent"
    (float_of_int (CT.Sender.aborts_sent tx));
  Util_bench.Metrics.record ~exp:"ROB-ABORT" "receiver in-flight after"
    (float_of_int (CT.Receiver.verifier_in_flight rx))

(* ROB-RECOVER: what crash recovery costs.  The paper's compact receiver
   state (WSC-2 parities + reassembly spans + a small label table per
   in-flight TPDU) is what makes snapshots cheap; measure it.  Two
   sweeps: snapshot size and decode+restore wall time against the
   number of in-flight TPDUs (single connection, ED-bearing packets
   dropped so nothing verifies and the whole window is in-flight soft
   state), and against the number of live connections (a Multi endpoint
   snapshotted mid-transfer). *)
let rob_recover () =
  let module CT = Transport.Chunk_transport in
  let module P = Transport.Persist in
  section "ROB-RECOVER" "snapshot size and restore latency";
  let time_restores reps restore =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      restore ()
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int reps *. 1e6
  in
  let drops_ed b =
    match Labelling.Wire.decode_packet b with
    | Error _ -> false
    | Ok chunks ->
        List.exists
          (fun ch ->
            Labelling.Ctype.equal
              ch.Labelling.Chunk.header.Labelling.Header.ctype
              Labelling.Ctype.ed)
          chunks
  in
  Printf.printf "  %-18s %-10s %-16s %-14s\n" "in-flight TPDUs" "snapshot B"
    "B per TPDU" "restore us";
  List.iter
    (fun k ->
      let engine = Netsim.Engine.create ~seed () in
      let config =
        { CT.default_config with
          CT.rto = 0.05;
          window = k;
          give_up_txs = 1000;
          state_ttl = 30.0 }
      in
      let tpdu_bytes = config.CT.tpdu_elems * config.CT.elem_size in
      let data = transfer_data (2 * k * tpdu_bytes) in
      let expected =
        CT.expected_elements config ~data_len:(Bytes.length data)
      in
      let receiver = ref None in
      let tx =
        CT.Sender.create engine config
          ~send:(fun b ->
            match !receiver with
            | Some rx -> if not (drops_ed b) then CT.Receiver.ingest rx b
            | None -> ())
          ~data ()
      in
      let rx =
        CT.Receiver.create engine config
          ~send_ack:(fun _ -> ())
          ~capacity:(`Exact expected) ()
      in
      receiver := Some rx;
      CT.Sender.start tx;
      (* stop before the first RTO fires: exactly the initial window is
         in flight, none of it verified *)
      Netsim.Engine.run ~until:0.04 engine;
      let in_flight = CT.Receiver.verifier_in_flight rx in
      let img =
        P.Single { P.s_acked = CT.Receiver.acked_tids rx; s_rx = CT.Receiver.export rx }
      in
      let encoded = P.encode_endpoint img in
      let us =
        time_restores 200 (fun () ->
            match P.decode_endpoint encoded with
            | Error e -> failwith e
            | Ok (P.Multi _) -> failwith "shape changed"
            | Ok (P.Single si) ->
                ignore
                  (CT.Receiver.restore engine config
                     ~send_ack:(fun _ -> ())
                     ~capacity:(`Exact expected) si.P.s_rx
                     ~acked_tids:si.P.s_acked))
      in
      let per_tpdu =
        float_of_int (Bytes.length encoded) /. float_of_int (max 1 in_flight)
      in
      Printf.printf "  %-18d %-10d %-16.1f %-14.1f\n" in_flight
        (Bytes.length encoded) per_tpdu us;
      let tag = Printf.sprintf "%d tpdus" in_flight in
      Util_bench.Metrics.record ~exp:"ROB-RECOVER"
        ("snapshot bytes @" ^ tag)
        (float_of_int (Bytes.length encoded));
      Util_bench.Metrics.record ~exp:"ROB-RECOVER" ("restore us @" ^ tag) us)
    [ 4; 16; 64 ];
  Printf.printf "  %-18s %-10s %-14s\n" "live connections" "snapshot B"
    "restore us";
  List.iter
    (fun conns ->
      let engine = Netsim.Engine.create ~seed () in
      let config = { CT.default_config with CT.rto = 0.05; window = 4 } in
      let quota_elems = 4096 in
      let m =
        Transport.Multi.create engine ~config ~quota_elems
          ~max_conns:(conns + 2)
          ~send_ack:(fun _ -> ())
          ()
      in
      let senders =
        List.init conns (fun i ->
            CT.Sender.create engine
              { config with CT.conn_id = i + 1 }
              ~announce_open:true
              ~send:(fun b -> Transport.Multi.ingest m b)
              ~data:(transfer_data 16384) ())
      in
      List.iter CT.Sender.start senders;
      Netsim.Engine.run ~until:0.04 engine;
      let img = P.Multi (Transport.Multi.export m) in
      let encoded = P.encode_endpoint img in
      let us =
        time_restores 100 (fun () ->
            match P.decode_endpoint encoded with
            | Error e -> failwith e
            | Ok (P.Single _) -> failwith "shape changed"
            | Ok (P.Multi cs) ->
                ignore
                  (Transport.Multi.restore engine ~config ~quota_elems
                     ~max_conns:(conns + 2)
                     ~send_ack:(fun _ -> ())
                     cs))
      in
      Printf.printf "  %-18d %-10d %-14.1f\n"
        (Transport.Multi.live_conns m)
        (Bytes.length encoded) us;
      let tag = Printf.sprintf "%d conns" conns in
      Util_bench.Metrics.record ~exp:"ROB-RECOVER"
        ("snapshot bytes @" ^ tag)
        (float_of_int (Bytes.length encoded));
      Util_bench.Metrics.record ~exp:"ROB-RECOVER" ("restore us @" ^ tag) us)
    [ 2; 8 ]

(* ROB-SHED: what significance-driven shedding buys under sustained
   congestion.  A layered transfer (Critical base + Sheddable
   enhancement, interleaved by the significance-weighted scheduler)
   crosses a congested element that drops only sheddable-class packets.
   With shedding off, every enhancement TPDU is retransmitted into the
   congestion until it finally lands, holding window slots and sim
   time hostage; with the shed policy armed, the sender abandons
   enhancement TPDUs after [shed_txs] transmissions and the Critical
   bytes own the wire.  The base layer is byte-exact either way —
   the difference is how fast those mandatory bytes complete. *)
let rob_shed () =
  let module CT = Transport.Chunk_transport in
  let module I = Transport.Interleave in
  section "ROB-SHED" "critical goodput under congestion: shed off vs on";
  let elem_size = 4 and tpdu_elems = 64 in
  let base_bytes = 32768 in
  let streams =
    [
      { I.is_name = "base"; is_cls = Labelling.Significance.Critical;
        is_data = transfer_data base_bytes };
      { I.is_name = "enh1"; is_cls = Labelling.Significance.Sheddable 1;
        is_data = transfer_data 49152 };
      { I.is_name = "enh2"; is_cls = Labelling.Significance.Sheddable 2;
        is_data = transfer_data 49152 };
    ]
  in
  let run_layered ~loss ~shed =
    let plan =
      match I.plan ~elem_size ~tpdu_elems ~conn_id:3 streams with
      | Ok p -> p
      | Error e -> failwith e
    in
    let config =
      { CT.default_config with
        CT.conn_id = 3;
        elem_size;
        tpdu_elems;
        window = 8;
        rto = 0.05;
        (* small TTL as in ROB-RTO: the governor's trailing sweep is
           part of sim_time, keep it out of the goodput comparison *)
        state_ttl = 0.25;
        classify = plan.I.classify;
        shed_txs = (if shed then 2 else 0) }
    in
    let engine = Netsim.Engine.create ~seed () in
    let receiver = ref None in
    let sender = ref None in
    let congested =
      Netsim.Dropper.create ~mode:Netsim.Dropper.By_class
        ~sheddable:(fun t_id ->
          Labelling.Significance.sheddable (plan.I.classify t_id))
        ~rng:(Netsim.Rng.create ~seed:(seed + 1))
        ~loss
        ~forward:(fun b ->
          match !receiver with
          | Some rx -> CT.Receiver.ingest rx b
          | None -> ())
        ()
    in
    let forward =
      Netsim.Multipath.create engine ~paths:4 ~rate_bps:155e6 ~delay:1e-3
        ~skew:0.25e-3 ~mtu:config.CT.mtu
        ~deliver:(fun b -> Netsim.Dropper.on_packet congested b)
        ()
    in
    let reverse =
      Netsim.Link.create engine ~name:"ack" ~rate_bps:1e9 ~delay:1e-3
        ~mtu:config.CT.mtu
        ~deliver:(fun b ->
          match !sender with Some s -> CT.Sender.on_packet s b | None -> ())
        ()
    in
    let rx =
      CT.Receiver.create engine config
        ~send_ack:(fun b -> ignore (Netsim.Link.send reverse b))
        ~capacity:(`Exact plan.I.total_elems) ()
    in
    receiver := Some rx;
    let tx =
      CT.Sender.of_tpdus engine config
        ~send:(fun b -> ignore (Netsim.Multipath.send forward b))
        plan.I.tpdus
    in
    sender := Some tx;
    CT.Sender.start tx;
    Netsim.Engine.run engine;
    (* the mandatory contract holds in both modes: complete, not given
       up, byte-exact outside honoured shed spans, base layer whole *)
    assert (not (CT.Sender.gave_up tx));
    assert (CT.Receiver.complete rx);
    let delivered = CT.Receiver.contents rx in
    let expected = I.expected ~elem_size ~tpdu_elems streams in
    let spans = CT.Receiver.shed_spans rx in
    assert (CT.equal_outside_sheds ~elem_size ~spans ~expected ~delivered);
    let base_elems = (List.hd plan.I.layout).I.l_elems in
    assert (List.for_all (fun (first, _) -> first >= base_elems) spans);
    let sim = Netsim.Engine.now engine in
    (float_of_int base_bytes *. 8.0 /. sim, sim, CT.Sender.sheds_sent tx)
  in
  Printf.printf "  %-8s %-24s %-24s %-8s %-8s\n" "loss"
    "critical Mb/s (shed off)" "critical Mb/s (shed on)" "sheds" "gain";
  List.iter
    (fun loss ->
      let off_bps, off_sim, _ = run_layered ~loss ~shed:false in
      let on_bps, on_sim, sheds = run_layered ~loss ~shed:true in
      Printf.printf "  %-8.2f %-24.3f %-24.3f %-8d %-8.2fx\n" loss
        (off_bps /. 1e6) (on_bps /. 1e6) sheds (on_bps /. off_bps);
      (* the acceptance claim: under >= 10% sheddable-class congestion
         loss, arming the shed policy raises Critical goodput *)
      if loss >= 0.1 then assert (on_bps > off_bps);
      let tag = Printf.sprintf "%.2f" loss in
      Util_bench.Metrics.record ~exp:"ROB-SHED"
        ("critical goodput bps shed off @" ^ tag) off_bps;
      Util_bench.Metrics.record ~exp:"ROB-SHED"
        ("critical goodput bps shed on @" ^ tag) on_bps;
      Util_bench.Metrics.record ~exp:"ROB-SHED" ("sim s shed off @" ^ tag)
        off_sim;
      Util_bench.Metrics.record ~exp:"ROB-SHED" ("sim s shed on @" ^ tag)
        on_sim;
      Util_bench.Metrics.record ~exp:"ROB-SHED" ("sheds @" ^ tag)
        (float_of_int sheds))
    [ 0.10; 0.20; 0.30 ]

(* ROB-ISOLATE: the blast radius of a byzantine peer.  Six honest
   senders share a Multi endpoint with a byzantine adversary holding two
   more connections (25% of the eight peers).  The adversary speaks
   valid wire format — every per-chunk check accepts its flaps, sealed
   garbage TPDUs, contradictory ACKs and forged sheds — so only the
   endpoint's anomaly scoring and quarantine stand between it and the
   honest connections' state.  Measure the honest transfers' completion
   time with the adversary absent vs present: containment means the
   honest goodput keeps at least 0.9x of its clean value. *)
let rob_isolate () =
  let module CT = Transport.Chunk_transport in
  section "ROB-ISOLATE" "honest goodput with 25% byzantine peers";
  let honest = 6 and byz_conns = 2 in
  let bytes_per_conn = 32768 in
  let config = { CT.default_config with CT.rto = 0.05; window = 8 } in
  let run_endpoint ~attack =
    let engine = Netsim.Engine.create ~seed () in
    let multi = ref None in
    let byzantine = ref None in
    let senders : (int, CT.Sender.t) Hashtbl.t = Hashtbl.create 8 in
    let demux_reverse b =
      match Labelling.Wire.decode_packet b with
      | Error _ -> ()
      | Ok chunks ->
          List.iter
            (fun ch ->
              if not (Labelling.Chunk.is_terminator ch) then
                let cid =
                  ch.Labelling.Chunk.header.Labelling.Header.c
                    .Labelling.Ftuple.id
                in
                match Hashtbl.find_opt senders cid with
                | Some tx -> CT.Sender.on_chunk tx ch
                | None -> ())
            chunks
    in
    (* the adversary taps the door for its replay ring, exactly like the
       conformance driver's wiring, and injects past the honest links *)
    let door b =
      (match !byzantine with
      | Some bz -> Netsim.Byzantine.observe bz b
      | None -> ());
      match !multi with Some m -> Transport.Multi.ingest m b | None -> ()
    in
    let forward =
      Netsim.Link.create engine ~name:"fwd" ~rate_bps:100e6 ~delay:1e-3
        ~mtu:config.CT.mtu ~deliver:door ()
    in
    let reverse =
      Netsim.Link.create engine ~name:"ack" ~rate_bps:100e6 ~delay:1e-3
        ~mtu:config.CT.mtu ~deliver:demux_reverse ()
    in
    let quota_elems =
      CT.expected_elements config ~data_len:bytes_per_conn
    in
    let m =
      Transport.Multi.create engine ~config ~quota_elems
        ~max_conns:(honest + 8)
        ~send_ack:(fun b -> ignore (Netsim.Link.send reverse b))
        ()
    in
    multi := Some m;
    List.iter
      (fun cid ->
        let tx =
          CT.Sender.create engine
            { config with CT.conn_id = cid }
            ~announce_open:true
            ~send:(fun b -> ignore (Netsim.Link.send forward b))
            ~data:(transfer_data bytes_per_conn) ()
        in
        Hashtbl.replace senders cid tx;
        CT.Sender.start tx)
      (List.init honest (fun i -> i + 1));
    if attack then
      byzantine :=
        Some
          (Netsim.Byzantine.create engine ~seed:(seed lxor 0xB12A97)
             ~rate:400.0 ~stop:10.0 ~conns:byz_conns
             ~legit_conns:(List.init honest (fun i -> i + 1))
             ~elem_size:config.CT.elem_size ~acks:true ~sheds:true
             ~replay:true ~garbage:true
             ~inject:(fun b ->
               match !multi with
               | Some m -> Transport.Multi.ingest m b
               | None -> ())
             ~inject_ack:demux_reverse ());
    (* poll for the moment every honest transfer completes; the engine
       then drains the adversary's remaining schedule *)
    let done_at = ref None in
    let rec poll () =
      if !done_at = None then
        if Hashtbl.fold (fun _ tx ok -> ok && CT.Sender.finished tx) senders true
        then done_at := Some (Netsim.Engine.now engine)
        else Netsim.Engine.schedule engine ~delay:0.002 poll
    in
    Netsim.Engine.schedule engine ~delay:0.002 poll;
    Netsim.Engine.run engine;
    Hashtbl.iter
      (fun _ tx ->
        assert (CT.Sender.finished tx);
        assert (not (CT.Sender.gave_up tx)))
      senders;
    let t =
      match !done_at with Some t -> t | None -> Netsim.Engine.now engine
    in
    let goodput = float_of_int (honest * bytes_per_conn) *. 8.0 /. t in
    let honest_boxed =
      List.fold_left
        (fun acc cid ->
          match Transport.Multi.conn_stats m ~conn_id:cid with
          | None -> acc
          | Some cs ->
              if
                cs.Transport.Multi.cs_quarantines > 0
                || cs.Transport.Multi.cs_poisoned
              then acc + 1
              else acc)
        0
        (List.init honest (fun i -> i + 1))
    in
    (goodput, t, Transport.Multi.quarantines m, honest_boxed, m)
  in
  let clean_bps, clean_t, _, _, _ = run_endpoint ~attack:false in
  let byz_bps, byz_t, quarantines, honest_boxed, m =
    run_endpoint ~attack:true
  in
  let ratio = byz_bps /. clean_bps in
  Printf.printf
    "  honest goodput clean %.3f Mb/s (%.3f sim s); under 25%% byzantine \
     peers %.3f Mb/s (%.3f sim s) = %.3fx\n"
    (clean_bps /. 1e6) clean_t (byz_bps /. 1e6) byz_t ratio;
  Printf.printf
    "  quarantines %d, honest connections boxed %d, quarantine drops %d, \
     anomalies %d\n"
    quarantines honest_boxed
    (Transport.Multi.quarantine_drops m)
    (Transport.Multi.anomalies m);
  (* the acceptance claim: containment keeps honest goodput >= 0.9x and
     never boxes an honest connection *)
  assert (ratio >= 0.9);
  assert (honest_boxed = 0);
  assert (quarantines > 0);
  Util_bench.Metrics.record ~exp:"ROB-ISOLATE" "honest goodput bps clean"
    clean_bps;
  Util_bench.Metrics.record ~exp:"ROB-ISOLATE" "honest goodput bps byz"
    byz_bps;
  Util_bench.Metrics.record ~exp:"ROB-ISOLATE" "goodput ratio" ratio;
  Util_bench.Metrics.record ~exp:"ROB-ISOLATE" "quarantines"
    (float_of_int quarantines);
  Util_bench.Metrics.record ~exp:"ROB-ISOLATE" "honest boxed"
    (float_of_int honest_boxed);
  Util_bench.Metrics.record ~exp:"ROB-ISOLATE" "quarantine drops"
    (float_of_int (Transport.Multi.quarantine_drops m))

let run () =
  rob_rto ();
  rob_abort ();
  rob_recover ();
  rob_shed ();
  rob_isolate ()
