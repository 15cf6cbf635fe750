(* The conformance harness itself: model geometry, schedule
   serialisation, replay determinism, a small per-profile soak, and the
   mutation self-test (the oracle must catch an injected stack bug). *)

let test_model_geometry () =
  (* 102 bytes, elem 4, 40-byte frames: 40 + 40 + 22 -> 10 + 10 + 6
     elements (only the last frame pads); 26 elements over 8-element
     TPDUs -> 4 TPDUs; expected buffer = data zero-padded to 104. *)
  let s =
    {
      (Check.Schedule.generate ~profile:Check.Schedule.Clean ~seed:1) with
      Check.Schedule.data_len = 102;
      elem_size = 4;
      frame_bytes = 40;
      tpdu_elems = 8;
    }
  in
  let m = Check.Model.of_schedule s in
  Alcotest.(check int) "elems" 26 m.Check.Model.elems;
  Alcotest.(check int) "tpdus" 4 m.Check.Model.n_tpdus;
  Alcotest.(check int) "expected bytes" 104
    (Bytes.length m.Check.Model.expected);
  let data = Check.Schedule.data_of s in
  Alcotest.check Util.bytes_testable "data prefix" data
    (Bytes.sub m.Check.Model.expected 0 102);
  Alcotest.check Util.bytes_testable "zero tail" (Bytes.make 2 '\000')
    (Bytes.sub m.Check.Model.expected 102 2);
  (* the model's element count must agree with the transport's *)
  Alcotest.(check int) "matches transport"
    (Transport.Chunk_transport.expected_elements (Check.Schedule.config_of s)
       ~data_len:102)
    m.Check.Model.elems

let gen_profile = QCheck2.Gen.oneofl Check.Schedule.all_profiles

let prop_schedule_roundtrip (profile, seed) =
  let s = Check.Schedule.generate ~profile ~seed in
  match Check.Schedule.of_string (Check.Schedule.to_string s) with
  | Some s' -> s = s'
  | None -> false

let test_replay_determinism () =
  let s =
    Check.Schedule.generate ~profile:Check.Schedule.Hostile ~seed:0xD13E
  in
  let a = Check.Driver.run s in
  let b = Check.Driver.run s in
  Alcotest.(check bool) "same ok" a.Check.Driver.ok b.Check.Driver.ok;
  Alcotest.(check int) "same retrans" a.Check.Driver.retransmissions
    b.Check.Driver.retransmissions;
  Alcotest.(check int) "same packets" a.Check.Driver.packets_sent
    b.Check.Driver.packets_sent;
  Alcotest.(check int) "same nacks" a.Check.Driver.rx_stats.nacks_sent
    b.Check.Driver.rx_stats.nacks_sent;
  Alcotest.(check (float 0.0)) "same sim time" a.Check.Driver.sim_time
    b.Check.Driver.sim_time;
  Alcotest.check Util.bytes_testable "same delivery" a.Check.Driver.delivered
    b.Check.Driver.delivered

let soak profile n =
  let report = Check.Soak.run_profile ~schedules:n ~seed:7 profile in
  Alcotest.(check int) "all schedules ran" n
    report.Check.Soak.schedules_run;
  List.iter
    (fun (f : Check.Soak.finding) ->
      List.iter
        (fun v ->
          Alcotest.failf "schedule %s violates %s"
            (Check.Schedule.to_string f.Check.Soak.schedule)
            (Check.Oracle.violation_to_string v))
        f.Check.Soak.violations)
    report.Check.Soak.findings;
  Alcotest.(check int) "no undetected injections" 0
    report.Check.Soak.detect_undetected;
  report

let test_overlap_hostile_soak () =
  (* the overlap adversary must actually provoke conflicts — and the
     first-verified-wins policy must reject every one of them without a
     single oracle violation *)
  let report = soak Check.Schedule.Overlap_hostile 15 in
  Alcotest.(check bool) "adversary fired" true
    (report.Check.Soak.ov_injected > 0);
  Alcotest.(check bool) "conflicts provoked" true
    (report.Check.Soak.rx.overlap.os_conflicts_seen > 0);
  Alcotest.(check bool) "conflicts rejected by first-verified-wins" true
    (report.Check.Soak.rx.overlap.os_conflicts_rejected > 0)

let test_overlap_clobber_caught () =
  (* a validly-sealed forged TPDU clobbers the first data chunk's range:
     it verifies first, locks the bytes, and the sender's real data is
     rejected — the oracle must see the divergent delivery, and the
     shrinker must keep the overlap conflict alive while minimising *)
  let report =
    Check.Soak.run_profile ~mutation:Check.Driver.Overlap_clobber
      ~schedules:12 ~seed:11 Check.Schedule.Clean
  in
  Alcotest.(check bool) "bug caught" true (report.Check.Soak.findings <> []);
  match
    List.find_opt
      (fun (f : Check.Soak.finding) ->
        f.Check.Soak.shrunk.Check.Shrink.violations <> [])
      report.Check.Soak.findings
  with
  | None -> Alcotest.fail "no finding shrunk to a replayable schedule"
  | Some f ->
      (* replay the shrunk schedule: the placement conflict the clobber
         provokes must have survived minimisation *)
      let s = f.Check.Soak.shrunk.Check.Shrink.schedule in
      let o = Check.Driver.run ~mutation:Check.Driver.Overlap_clobber s in
      Alcotest.(check bool) "conflict preserved in shrunk replay" true
        (o.Check.Driver.rx_stats.overlap.os_conflicts_rejected > 0);
      Alcotest.(check bool) "shrunk replay still violates" true
        (Check.Oracle.check ~schedule:s
           ~model:(Check.Model.of_schedule s)
           ~observation:o
         <> [])

let test_byzantine_hostile_soak () =
  (* the byzantine peer must actually fire — and the anomaly scoring
     must box it (quarantines observed) without ever boxing an honest
     connection or tripping a single oracle row, including the
     blast-radius re-run every byzantine schedule performs *)
  let report = soak Check.Schedule.Byzantine_hostile 15 in
  Alcotest.(check bool) "adversary fired" true
    (report.Check.Soak.bz_injected > 0);
  Alcotest.(check bool) "flap cycles ran" true
    (report.Check.Soak.bz_flaps > 0);
  Alcotest.(check bool) "quarantine fired" true
    (report.Check.Soak.rx.quarantines > 0);
  Alcotest.(check bool) "boxed connections refused events" true
    (report.Check.Soak.rx.quarantine_drops > 0);
  Alcotest.(check int) "no honest connection ever boxed" 0
    report.Check.Soak.bz_honest_quarantined

let test_byz_clobber_caught () =
  (* switch the quarantine off (anomaly budget 0) and require the
     isolation-budget oracle row to notice the unbounded epoch churn,
     and the shrinker to keep the byzantine peer in the minimised
     counterexample (the violation needs it) *)
  let report =
    Check.Soak.run_profile ~mutation:Check.Driver.Byz_clobber ~schedules:8
      ~seed:11 Check.Schedule.Byzantine_hostile
  in
  Alcotest.(check bool) "bug caught" true (report.Check.Soak.findings <> []);
  match
    List.find_opt
      (fun (f : Check.Soak.finding) ->
        f.Check.Soak.shrunk.Check.Shrink.violations <> [])
      report.Check.Soak.findings
  with
  | None -> Alcotest.fail "no finding shrunk to a replayable schedule"
  | Some f ->
      let s = f.Check.Soak.shrunk.Check.Shrink.schedule in
      Alcotest.(check bool) "shrunk schedule keeps the byzantine peer" true
        (s.Check.Schedule.byz <> None);
      let o = Check.Driver.run ~mutation:Check.Driver.Byz_clobber s in
      Alcotest.(check int) "defense really was off in the replay" 0
        o.Check.Driver.rx_stats.quarantines;
      Alcotest.(check bool) "shrunk replay still violates" true
        (List.exists
           (fun (v : Check.Oracle.violation) ->
             v.Check.Oracle.code = "isolation-budget")
           (Check.Oracle.check ~schedule:s
              ~model:(Check.Model.of_schedule s)
              ~observation:o))

let test_corrupt_restore_caught () =
  (* flip one verified byte in the image restored after a crash: its
     TPDU is already in the ACK ledger, so no retransmission can heal
     it — the oracle must notice the corruption, and the shrunk
     counterexample must still carry a crash (the bug only exists on
     the recovery path) *)
  let report =
    Check.Soak.run_profile ~mutation:Check.Driver.Corrupt_restore
      ~schedules:12 ~seed:11 Check.Schedule.Crash_restart
  in
  Alcotest.(check bool) "bug caught" true (report.Check.Soak.findings <> []);
  Alcotest.(check bool) "catch shrunk to a replayable schedule" true
    (List.exists
       (fun (f : Check.Soak.finding) ->
         f.Check.Soak.shrunk.Check.Shrink.violations <> []
         && f.Check.Soak.shrunk.Check.Shrink.schedule.Check.Schedule.crashes
            <> [])
       report.Check.Soak.findings)

let test_replay_rejects_invalid_schedule () =
  (* a hand-edited replay line can parse and still be semantically
     broken; Schedule.validate is the gate chunks-soak uses to turn
     that into a one-line error and exit 2 instead of an exception from
     deep inside the transport *)
  let base =
    Check.Schedule.generate ~profile:Check.Schedule.Crash_restart ~seed:3
  in
  Alcotest.(check (result unit string))
    "generated schedules validate" (Ok ())
    (Check.Schedule.validate base);
  let overlapping =
    {
      base with
      Check.Schedule.crashes =
        [
          { Check.Schedule.cr_time = 0.1; cr_restart = 0.2 };
          { Check.Schedule.cr_time = 0.15; cr_restart = 0.1 };
        ];
    }
  in
  (* the broken spec still round-trips the printer — exactly the
     parseable-but-invalid case the CLI guard exists for *)
  (match Check.Schedule.of_string (Check.Schedule.to_string overlapping) with
  | Some s -> Alcotest.(check bool) "broken spec parses" true (s = overlapping)
  | None -> Alcotest.fail "broken spec should still parse");
  Alcotest.(check bool) "overlapping crashes rejected" true
    (Result.is_error (Check.Schedule.validate overlapping));
  Alcotest.(check bool) "negative downtime rejected" true
    (Result.is_error
       (Check.Schedule.validate
          {
            base with
            Check.Schedule.crashes =
              [ { Check.Schedule.cr_time = 0.1; cr_restart = -0.2 } ];
          }));
  Alcotest.(check bool) "negative snap_period rejected" true
    (Result.is_error
       (Check.Schedule.validate
          { base with Check.Schedule.snap_period = -1.0 }));
  (* a crash restarting at or past the horizon would replay as a lockup
     and a give-up instead of a schedule error *)
  let crash_restart =
    Check.Schedule.generate ~profile:Check.Schedule.Crash_restart ~seed:1
  in
  Alcotest.(check bool) "crash past the horizon rejected" true
    (Result.is_error
       (Check.Schedule.validate
          {
            crash_restart with
            Check.Schedule.crashes =
              [ { Check.Schedule.cr_time = 0.05; cr_restart = 2000.0 } ];
          }));
  (* the multi-connection path installs no overlapper, so an overlap
     field there would be silently ignored *)
  let overlap =
    Check.Schedule.generate ~profile:Check.Schedule.Overlap_hostile ~seed:1
  in
  Alcotest.(check (result unit string))
    "the overlap schedule validates" (Ok ())
    (Check.Schedule.validate overlap);
  Alcotest.(check bool) "overlap on two connections rejected" true
    (Result.is_error
       (Check.Schedule.validate
          { overlap with Check.Schedule.connections = 2 }));
  (* a spec with a field no release knows is refused outright, and the
     offender is reported by name for the CLI diagnostic *)
  let with_bogus = Check.Schedule.to_string base ^ " bogus=1" in
  Alcotest.(check (list string))
    "unknown fields reported" [ "bogus" ]
    (Check.Schedule.unknown_fields with_bogus);
  Alcotest.(check bool) "unknown-field spec rejected" true
    (Check.Schedule.of_string with_bogus = None);
  (* a repeated key is refused, not resolved to its first value *)
  Alcotest.(check bool) "repeated-key spec rejected" true
    (Check.Schedule.of_string (Check.Schedule.to_string base ^ " data_len=5")
    = None);
  (* NaN passes every ordering test, so it must be refused on its own:
     every float in a spec — bare, or one part of a colon record — set
     to nan in turn still parses, and must not validate.  Two all-faults
     schedules hold every float field between them: the multi-path one
     (flood, byz) and the single-path one (overlap). *)
  let full =
    {
      base with
      Check.Schedule.spread = Check.Schedule.Route_change 0.05;
      dropper =
        Some
          {
            Check.Schedule.drop_mode = Netsim.Dropper.Random;
            drop_loss = 0.01;
          };
      ack_blackhole = Some (0.0, 0.1);
      outage =
        Some
          {
            Check.Schedule.out_hold = false;
            out_start = 0.1;
            out_duration = 0.2;
          };
      flood =
        Some
          {
            Check.Schedule.flood_rate = 100.0;
            flood_stop = 0.5;
            flood_conns = 4;
          };
      overlap =
        Some
          {
            Check.Schedule.ov_rate = 50.0;
            ov_stop = 0.5;
            ov_dup = true;
            ov_forge = true;
            ov_resplit = true;
          };
      byz =
        Some
          {
            Check.Schedule.bz_rate = 200.0;
            bz_stop = 0.5;
            bz_conns = 1;
            bz_acks = true;
            bz_sheds = true;
            bz_replay = true;
            bz_garbage = true;
          };
    }
  in
  let full_multi = { full with Check.Schedule.overlap = None }
  and full_single = { full with Check.Schedule.flood = None; byz = None } in
  Alcotest.(check (result unit string))
    "the all-faults multi-path schedule validates" (Ok ())
    (Check.Schedule.validate full_multi);
  Alcotest.(check (result unit string))
    "the all-faults single-path schedule validates" (Ok ())
    (Check.Schedule.validate full_single);
  let nan_specs full =
    let toks = String.split_on_char ' ' (Check.Schedule.to_string full) in
    List.concat
      (List.mapi
         (fun i tok ->
           let j = String.index tok '=' in
           let k = String.sub tok 0 j in
           let v = String.sub tok (j + 1) (String.length tok - j - 1) in
           let parts = String.split_on_char ':' v in
           List.filter_map
             (fun n ->
               let v' =
                 String.concat ":"
                   (List.mapi (fun n' p -> if n' = n then "nan" else p) parts)
               in
               let spec =
                 String.concat " "
                   (List.mapi
                      (fun i' t -> if i' = i then k ^ "=" ^ v' else t)
                      toks)
               in
               Option.map
                 (fun s -> (k ^ "=" ^ v', s))
                 (Check.Schedule.of_string spec))
             (List.init (List.length parts) Fun.id))
         toks)
  in
  let nan_specs = nan_specs full_multi @ nan_specs full_single in
  (* in each: 11 bare floats; spread and dropper 1 each; ack_blackhole,
     outage and crashes 2 each; flood and byz 2 each in the multi-path
     one, overlap 2 in the single-path one *)
  Alcotest.(check int) "float positions" (23 + 21) (List.length nan_specs);
  List.iter
    (fun (what, s) ->
      Alcotest.(check bool) (what ^ " rejected") true
        (Result.is_error (Check.Schedule.validate s)))
    nan_specs

let m_nacks = Obs.Metrics.counter "transport_nacks_total"
let m_reacks = Obs.Metrics.counter "transport_reacks_total"

(* Re-ACKs of a closed epoch come from the endpoint, not a receiver:
   one TPDU delivered, the connection closed, then the TPDU re-offered
   (re-ACKed from the ledger) and the endpoint crash-restored and
   reannounced (every ledgered TPDU re-ACKed).  Returns the endpoint's
   re-ACK count and the registry's. *)
let closed_epoch_reacks () =
  let config =
    { Transport.Chunk_transport.default_config with
      Transport.Chunk_transport.elem_size = 4; tpdu_elems = 16 }
  in
  let engine = Netsim.Engine.create ~seed:3 () in
  let m =
    Transport.Multi.create engine ~config ~quota_elems:64 ~max_conns:4
      ~send_ack:(fun _ -> ())
      ()
  in
  let packet cs = Util.ok_or_fail (Labelling.Wire.encode_packet cs) in
  let signal sg =
    packet [ Labelling.Connection.signal_chunk ~conn_id:1 sg ]
  in
  let framer =
    Labelling.Framer.create ~elem_size:4 ~tpdu_elems:16 ~conn_id:1 ()
  in
  let tpdu =
    packet
      (Util.ok_or_fail
         (Edc.Encoder.seal_tpdus
            (Util.ok_or_fail
               (Labelling.Framer.push_frame ~last:true framer
                  (Util.deterministic_bytes 64)))))
  in
  let r0 = Obs.Metrics.value m_reacks in
  List.iter (Transport.Multi.ingest m)
    [ signal (Labelling.Connection.Open { first_csn = 0 }); tpdu;
      signal Labelling.Connection.Close; tpdu ];
  let m' =
    Transport.Multi.restore engine ~config ~quota_elems:64 ~max_conns:4
      ~send_ack:(fun _ -> ())
      (Transport.Multi.export m)
  in
  Transport.Multi.reannounce m';
  ( (Transport.Multi.stats m).reacks_sent
    + (Transport.Multi.stats m').reacks_sent,
    Obs.Metrics.value m_reacks - r0 )

let test_multi_nacks_counted () =
  (* multi-connection runs must report the NACKs and re-ACKs their
     endpoints sent, or the sack-off and quiet-reack oracle rows are
     blind there: each observation must agree with the process-wide
     counter over the same run, crashes included.  Cache-off,
     adversary-free schedules make [Driver.run] one run (no coherence or
     blast-radius re-run also feeding the counters). *)
  let counted, registered = closed_epoch_reacks () in
  Alcotest.(check int) "closed-epoch re-ACKs: re-offer and reannounce" 2
    counted;
  if Obs.enabled then
    Alcotest.(check int) "closed-epoch re-ACKs reach the registry" counted
      registered;
  let total =
    List.fold_left
      (fun total (profile, seed) ->
        let s = Check.Schedule.generate ~profile ~seed in
        Alcotest.(check bool) "multi, sack, cache-off, no byzantine peer" true
          (Check.Schedule.multi_mode s && s.Check.Schedule.sack
          && (not s.Check.Schedule.fastpath)
          && s.Check.Schedule.byz = None);
        let n0 = Obs.Metrics.value m_nacks in
        let r0 = Obs.Metrics.value m_reacks in
        let o = Check.Driver.run s in
        let nacks = o.Check.Driver.rx_stats.nacks_sent in
        if Obs.enabled then begin
          let name what =
            Printf.sprintf "%s seed %d: observed %s = %s sent"
              (Check.Schedule.profile_name profile)
              seed what what
          in
          Alcotest.(check int) (name "NACKs")
            (Obs.Metrics.value m_nacks - n0)
            nacks;
          Alcotest.(check int) (name "re-ACKs")
            (Obs.Metrics.value m_reacks - r0)
            o.Check.Driver.rx_stats.reacks_sent
        end;
        total + nacks)
      0
      Check.Schedule.
        [
          (Hostile_flood, 5);
          (Hostile_flood, 12);
          (Crash_flood, 4);
          (Crash_flood, 5);
        ]
  in
  Alcotest.(check bool) "some schedule sent NACKs" true (total > 0)

let test_mutation_caught () =
  (* inject a bug (flip a byte of every 2nd packet at the receiver door)
     and require the oracle to catch it AND the shrinker to keep a
     replayable violating schedule *)
  let report =
    Check.Soak.run_profile ~mutation:(Check.Driver.Flip_every 2)
      ~schedules:12 ~seed:11 Check.Schedule.Clean
  in
  Alcotest.(check bool) "bug caught" true
    (report.Check.Soak.findings <> []);
  Alcotest.(check bool) "catch shrunk to a replayable schedule" true
    (List.exists
       (fun (f : Check.Soak.finding) ->
         f.Check.Soak.shrunk.Check.Shrink.violations <> [])
       report.Check.Soak.findings)

(* Every profile's seed-1 schedule line, pinned byte for byte: the
   generator's draw order and every field codec (dropper, outage, flood,
   overlap, shed, crashes, byz) must keep printing exactly these. *)
let golden_schedule_lines =
  [
    "seed=1 profile=clean data_len=30335 elem_size=4 tpdu_elems=32 \
     frame_bytes=252 mtu=758 window=3 rto=0.099339521677094297 \
     sack=true adaptive=false nack_delay=0.099339521677094297 \
     rto_adaptive=false give_up_txs=40 state_budget=0 state_ttl=5 \
     connections=1 reopen=false paths=4 skew=0.00037064744598759391 \
     jitter=0 spread=rr rate_bps=280739760.80750573 \
     delay=0.001871221566832925 gateways=- loss=0 corrupt=0 \
     duplicate=0 dropper=- ack_blackhole=- outage=- flood=- \
     overlap=- shed=- crashes=- snap_period=0 fastpath=false byz=-";
    "seed=1 profile=lossy data_len=13951 elem_size=4 tpdu_elems=32 \
     frame_bytes=252 mtu=1134 window=3 rto=0.092869803563518344 \
     sack=false adaptive=false nack_delay=0.023217450890879586 \
     rto_adaptive=true give_up_txs=40 state_budget=0 state_ttl=5 \
     connections=1 reopen=false paths=1 skew=0.00020318501480642487 \
     jitter=0 spread=random rate_bps=479836040.41814315 \
     delay=0.00061223604874255464 gateways=- \
     loss=0.038115196385710801 corrupt=0 \
     duplicate=0.037064744598759393 dropper=- ack_blackhole=- \
     outage=- flood=- overlap=- shed=- crashes=- snap_period=0 \
     fastpath=false byz=-";
    "seed=1 profile=hostile data_len=13951 elem_size=4 \
     tpdu_elems=32 frame_bytes=252 mtu=1113 window=8 \
     rto=0.097839358959645836 sack=false adaptive=false \
     nack_delay=0.024459839739911459 rto_adaptive=true \
     give_up_txs=40 state_budget=0 state_ttl=5 connections=1 \
     reopen=false paths=7 skew=5.555400842263236e-05 jitter=0 \
     spread=rr rate_bps=250716440.85783118 \
     delay=0.0015848881396263129 gateways=- \
     loss=0.021567833631265458 corrupt=0.022521119962280615 \
     duplicate=0.037064744598759393 dropper=- ack_blackhole=- \
     outage=- flood=- overlap=- shed=- crashes=- snap_period=0 \
     fastpath=false byz=-";
    "seed=1 profile=hostile-flood data_len=5759 elem_size=4 \
     tpdu_elems=32 frame_bytes=252 mtu=892 window=1 \
     rto=0.095026996285735271 sack=false adaptive=false \
     nack_delay=0.023756749071433818 rto_adaptive=false \
     give_up_txs=40 state_budget=98816 state_ttl=5 connections=2 \
     reopen=false paths=2 skew=3.4145918584793102e-05 jitter=0 \
     spread=rr rate_bps=406720461.56776017 \
     delay=0.0012182756643585621 gateways=- loss=0 \
     corrupt=0.0062221046401200594 duplicate=0.020318501480642487 \
     dropper=- ack_blackhole=- outage=- \
     flood=1606.7361322775596:0.41567833631265461:16 overlap=- \
     shed=- crashes=- snap_period=0 fastpath=false byz=-";
    "seed=1 profile=outage-recover data_len=13951 elem_size=4 \
     tpdu_elems=32 frame_bytes=252 mtu=755 window=7 \
     rto=0.098411327416007555 sack=true adaptive=false \
     nack_delay=0.024602831854001889 rto_adaptive=true \
     give_up_txs=40 state_budget=0 state_ttl=7.0744569685869418 \
     connections=1 reopen=false paths=8 skew=0.00039076003674376654 \
     jitter=0 spread=random rate_bps=312041975.15176177 \
     delay=0.0011260559981140308 gateways=- loss=0 corrupt=0 \
     duplicate=0.002666480008661798 dropper=- ack_blackhole=- \
     outage=hold:0.13842024478426679:3.5372284842934709 flood=- \
     overlap=- shed=- crashes=- snap_period=0 fastpath=false byz=-";
    "seed=1 profile=crash-restart data_len=13951 elem_size=4 \
     tpdu_elems=32 frame_bytes=252 mtu=755 window=7 \
     rto=0.098411327416007555 sack=true adaptive=false \
     nack_delay=0.024602831854001889 rto_adaptive=false \
     give_up_txs=40 state_budget=0 state_ttl=5 connections=1 \
     reopen=false paths=8 skew=0.00039076003674376654 jitter=0 \
     spread=random rate_bps=312041975.15176177 \
     delay=0.0011260559981140308 gateways=- loss=0 corrupt=0 \
     duplicate=0.002666480008661798 dropper=- ack_blackhole=- \
     outage=- flood=- overlap=- shed=- \
     crashes=0.27256211805035191:0.34918820190487387,1.0906987072979089:0.56384714972067596,2.1575354653838232:0.40285895196694055 \
     snap_period=1.5909319721373625 fastpath=false byz=-";
    "seed=1 profile=crash-flood data_len=5759 elem_size=4 \
     tpdu_elems=32 frame_bytes=252 mtu=892 window=1 \
     rto=0.096029789580952374 sack=false adaptive=false \
     nack_delay=0.024007447395238093 rto_adaptive=false \
     give_up_txs=40 state_budget=98816 state_ttl=5 connections=2 \
     reopen=true paths=2 skew=3.4145918584793102e-05 jitter=0 \
     spread=change:0.069210122392133394 rate_bps=373711376.52484691 \
     delay=0.0014670837347608965 gateways=- \
     loss=0.0033332405053579416 corrupt=0.0085689017008017485 \
     duplicate=0.039076003674376657 dropper=- ack_blackhole=- \
     outage=- flood=528.79595933924656:0.41601178907663805:12 \
     overlap=- shed=- \
     crashes=0.75496675160737592:0.45933474880464137 \
     snap_period=1.5338671388363214 fastpath=false byz=-";
    "seed=1 profile=overlap-hostile data_len=13951 elem_size=4 \
     tpdu_elems=32 frame_bytes=252 mtu=892 window=1 \
     rto=0.096029789580952374 sack=false adaptive=false \
     nack_delay=0.024007447395238093 rto_adaptive=false \
     give_up_txs=40 state_budget=0 state_ttl=5 connections=1 \
     reopen=false paths=2 skew=3.4145918584793102e-05 jitter=0 \
     spread=change:0.069210122392133394 rate_bps=373711376.52484691 \
     delay=0.0014670837347608965 gateways=- \
     loss=0.0033332405053579416 corrupt=0.015867681368359247 \
     duplicate=0.039076003674376657 dropper=- ack_blackhole=- \
     outage=- flood=- \
     overlap=105.7591918678493:0.63202357815327614:true:true:true \
     shed=- crashes=- snap_period=0 fastpath=false byz=-";
    "seed=1 profile=degrade-hostile data_len=11609 elem_size=4 \
     tpdu_elems=32 frame_bytes=252 mtu=1113 window=8 \
     rto=0.097839358959645836 sack=false adaptive=false \
     nack_delay=0.024459839739911459 rto_adaptive=true \
     give_up_txs=40 state_budget=0 state_ttl=5 connections=1 \
     reopen=false paths=7 skew=5.555400842263236e-05 jitter=0 \
     spread=rr rate_bps=250716440.85783118 \
     delay=0.0015848881396263129 gateways=- \
     loss=0.0080879376117245459 corrupt=0 duplicate=0 \
     dropper=class:0.18390536756636572 ack_blackhole=- outage=- \
     flood=- overlap=- shed=2:2 crashes=- snap_period=0 \
     fastpath=false byz=-";
    "seed=1 profile=fastpath-hostile data_len=13951 elem_size=4 \
     tpdu_elems=32 frame_bytes=252 mtu=318 window=5 \
     rto=0.095249053546094226 sack=false adaptive=false \
     nack_delay=0.023812263386523556 rto_adaptive=true \
     give_up_txs=40 state_budget=0 state_ttl=5 connections=1 \
     reopen=false paths=4 skew=0.00035975887756865702 jitter=0 \
     spread=random rate_bps=273503516.28706735 \
     delay=0.00079338406841796233 gateways=- \
     loss=0.062521605879002642 corrupt=0.020104718283212628 \
     duplicate=0 dropper=- ack_blackhole=- outage=- flood=- \
     overlap=- shed=- crashes=- snap_period=0 fastpath=true byz=-";
    "seed=1 profile=byzantine-hostile data_len=5759 elem_size=4 \
     tpdu_elems=32 frame_bytes=252 mtu=1134 window=3 \
     rto=0.094750901934084517 sack=false adaptive=false \
     nack_delay=0.023687725483521129 rto_adaptive=false \
     give_up_txs=40 state_budget=0 state_ttl=5 connections=1 \
     reopen=false paths=1 skew=0.00020318501480642487 jitter=0 \
     spread=change:0.039669203420898115 rate_bps=198278856.21495003 \
     delay=0.0010052359141606315 gateways=- loss=0 corrupt=0 \
     duplicate=0.037064744598759393 dropper=- ack_blackhole=- \
     outage=- flood=- overlap=- shed=- \
     crashes=0.40954923216581784:0.36417111800693391 \
     snap_period=1.7989031041862469 fastpath=false \
     byz=387.11012346748475:0.92211333770728121:2:false:false:false:false";
  ]

let test_golden_schedule_lines () =
  List.iter2
    (fun profile want ->
      Alcotest.(check string)
        (Check.Schedule.profile_name profile)
        want
        (Check.Schedule.to_string (Check.Schedule.generate ~profile ~seed:1)))
    Check.Schedule.all_profiles golden_schedule_lines

(* The cache-off re-run is made only where there is a cache: the
   fastpath-hostile seed-1 schedule (one connection, fastpath on) runs
   once, and runs again with the cache off once it has two
   connections. *)
let test_cache_off_rerun_multi_only () =
  let line =
    List.find
      (fun l -> Util.contains l "profile=fastpath-hostile")
      golden_schedule_lines
  in
  let s = Option.get (Check.Schedule.of_string line) in
  let reruns s =
    List.map
      (fun cf -> cf.Check.Driver.cf_rerun)
      (Check.Driver.run s).Check.Driver.counterfactuals
  in
  Alcotest.(check bool) "single connection, fastpath on" true
    ((not (Check.Schedule.multi_mode s)) && s.Check.Schedule.fastpath);
  Alcotest.(check bool) "no re-run on a single connection" true (reruns s = []);
  let s2 = { s with Check.Schedule.connections = 2 } in
  Alcotest.(check bool) "two connections run multi" true
    (Check.Schedule.multi_mode s2);
  Alcotest.(check bool) "a cache-off re-run on two" true
    (reruns s2 = [ Check.Driver.Cache_off ])

let suite =
  [
    Alcotest.test_case "model geometry" `Quick test_model_geometry;
    Util.qtest ~count:150 "schedule round-trips through to_string"
      QCheck2.Gen.(tup2 gen_profile (int_range 0 1_000_000))
      prop_schedule_roundtrip;
    Alcotest.test_case "cache-off re-run only on multi-connection schedules"
      `Quick test_cache_off_rerun_multi_only;
    Alcotest.test_case "golden schedule lines" `Quick
      test_golden_schedule_lines;
    Alcotest.test_case "replay is deterministic" `Quick
      test_replay_determinism;
    Alcotest.test_case "soak: clean profile" `Quick (fun () ->
        ignore (soak Check.Schedule.Clean 40));
    Alcotest.test_case "soak: lossy profile" `Quick (fun () ->
        ignore (soak Check.Schedule.Lossy 25));
    Alcotest.test_case "soak: hostile profile" `Quick (fun () ->
        ignore (soak Check.Schedule.Hostile 25));
    Alcotest.test_case "soak: hostile-flood profile" `Quick (fun () ->
        ignore (soak Check.Schedule.Hostile_flood 15));
    Alcotest.test_case "soak: outage-recover profile" `Quick (fun () ->
        ignore (soak Check.Schedule.Outage_recover 15));
    Alcotest.test_case "soak: crash-restart profile" `Quick (fun () ->
        ignore (soak Check.Schedule.Crash_restart 15));
    Alcotest.test_case "soak: crash-flood profile" `Quick (fun () ->
        ignore (soak Check.Schedule.Crash_flood 10));
    Alcotest.test_case "soak: overlap-hostile profile" `Quick
      test_overlap_hostile_soak;
    Alcotest.test_case "soak: byzantine-hostile profile" `Quick
      test_byzantine_hostile_soak;
    Alcotest.test_case "byz clobber caught, shrunk, peer preserved" `Quick
      test_byz_clobber_caught;
    Alcotest.test_case "injected mutation caught and shrunk" `Quick
      test_mutation_caught;
    Alcotest.test_case "corrupted restore caught and shrunk" `Quick
      test_corrupt_restore_caught;
    Alcotest.test_case "overlap clobber caught, shrunk, conflict preserved"
      `Quick test_overlap_clobber_caught;
    Alcotest.test_case "replay rejects parseable-but-invalid schedules"
      `Quick test_replay_rejects_invalid_schedule;
    Alcotest.test_case "multi-connection runs report their NACKs" `Quick
      test_multi_nacks_counted;
  ]
