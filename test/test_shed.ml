(* Partial reliability: the Shed_tpdu signal codec, the forged-shed
   guard, class-aware governor eviction, the interleave scheduler, and
   the degradation path end to end (shedding under loss, the
   degrade-hostile soak, and the shed-clobber mutation self-test). *)

open Labelling
module CT = Transport.Chunk_transport
module Gov = Transport.Governor
module Il = Transport.Interleave

(* --- Shed_tpdu signal codec --- *)

let gen_shed_signal =
  let open QCheck2.Gen in
  tup3 (int_range 0 0xFFFF) (int_range 0 1_000_000) (int_range 1 100_000)

let prop_shed_signal_roundtrip (t_id, first_elem, elems) =
  let chunk =
    Connection.signal_chunk ~conn_id:9
      (Connection.Shed_tpdu { t_id; first_elem; elems })
  in
  match Connection.parse_signal chunk with
  | Ok (9, Connection.Shed_tpdu s) ->
      s.t_id = t_id && s.first_elem = first_elem && s.elems = elems
  | _ -> false

(* --- end-to-end shedding under random loss --- *)

(* Odd TPDUs are enhancement data; the final TPDU stays Normal so the
   stream-end marker is never shed. *)
let test_shed_under_loss () =
  let elem_size = 4 and tpdu_elems = 64 in
  let n_tpdus = 32 in
  let data = Util.deterministic_bytes (elem_size * tpdu_elems * n_tpdus) in
  let classify t_id =
    if t_id mod 2 = 1 && t_id < n_tpdus - 1 then Significance.Sheddable 1
    else Significance.Normal
  in
  let config =
    {
      CT.default_config with
      conn_id = 6;
      elem_size;
      tpdu_elems;
      rto = 0.05;
      classify;
      shed_txs = 2;
    }
  in
  let o = CT.run ~seed:5 ~config ~loss:0.5 ~data () in
  Alcotest.(check bool) "outcome ok (shed-aware)" true o.CT.ok;
  Alcotest.(check bool) "congestion provoked sheds" true (o.CT.sheds_sent > 0);
  Alcotest.(check bool) "receiver honoured sheds" true
    (o.CT.sheds_received > 0);
  Alcotest.(check int) "one span per honoured shed" o.CT.sheds_received
    (List.length o.CT.shed_spans);
  (* every shed span is exactly one sheddable TPDU *)
  List.iter
    (fun (first, len) ->
      Alcotest.(check int) "span starts on a TPDU boundary" 0
        (first mod tpdu_elems);
      Alcotest.(check int) "span is one whole TPDU" tpdu_elems len;
      Alcotest.(check bool) "span belongs to a sheddable TPDU" true
        (Significance.sheddable (classify (first / tpdu_elems))))
    o.CT.shed_spans;
  (* the fully-reliable TPDUs arrived byte-exact *)
  Alcotest.(check bool) "reliable bytes intact" true
    (CT.equal_outside_sheds ~elem_size ~spans:o.CT.shed_spans ~expected:data
       ~delivered:o.CT.delivered);
  for t_id = 0 to n_tpdus - 1 do
    if not (Significance.sheddable (classify t_id)) then
      let off = t_id * tpdu_elems * elem_size in
      let n = tpdu_elems * elem_size in
      Alcotest.check Util.bytes_testable
        (Printf.sprintf "reliable TPDU %d byte-exact" t_id)
        (Bytes.sub data off n)
        (Bytes.sub o.CT.delivered off n)
  done

(* --- the forged-shed guard --- *)

let feed_stream rx config data =
  let framer =
    Framer.create ~elem_size:config.CT.elem_size
      ~tpdu_elems:config.CT.tpdu_elems ~conn_id:config.CT.conn_id ()
  in
  let chunks = Util.ok_or_fail (Framer.push_frame ~last:true framer data) in
  let sealed = Util.ok_or_fail (Edc.Encoder.seal_tpdus chunks) in
  let packets = Util.ok_or_fail (Packet.pack ~mtu:config.CT.mtu sealed) in
  List.iter (fun p -> CT.Receiver.ingest rx (Packet.encode p)) packets

let test_forged_shed_ignored () =
  (* default classify: everything Normal — no shed may ever be
     honoured, before or after the data arrives *)
  let engine = Netsim.Engine.create ~seed:1 () in
  let config = { CT.default_config with conn_id = 4; tpdu_elems = 8 } in
  let data = Util.deterministic_bytes (4 * 8 * 3) in
  let rx =
    CT.Receiver.create engine config
      ~send_ack:(fun _ -> ())
      ~capacity:(`Exact 24) ()
  in
  CT.Receiver.shed_tpdu rx ~t_id:1 ~first_elem:8 ~elems:8;
  Alcotest.(check int) "forged shed of Normal TPDU ignored" 0
    (CT.Receiver.sheds_received rx);
  Alcotest.(check bool) "no shed cover accrued" true
    (CT.Receiver.shed_spans rx = []);
  (* completion still requires the real bytes *)
  Alcotest.(check bool) "not complete without the data" false
    (CT.Receiver.complete rx);
  feed_stream rx config data;
  Alcotest.(check bool) "complete once the data lands" true
    (CT.Receiver.complete rx);
  Alcotest.check Util.bytes_testable "delivery byte-exact" data
    (CT.Receiver.contents rx)

let test_shed_after_verify_ignored () =
  (* a shed of a genuinely sheddable TPDU arriving after that TPDU
     verified must not un-deliver it *)
  let engine = Netsim.Engine.create ~seed:2 () in
  let config =
    {
      CT.default_config with
      conn_id = 4;
      tpdu_elems = 8;
      classify = (fun t_id -> if t_id = 1 then Significance.Sheddable 1
                              else Significance.Normal);
    }
  in
  let data = Util.deterministic_bytes (4 * 8 * 3) in
  let rx =
    CT.Receiver.create engine config
      ~send_ack:(fun _ -> ())
      ~capacity:(`Exact 24) ()
  in
  feed_stream rx config data;
  Alcotest.(check bool) "complete" true (CT.Receiver.complete rx);
  CT.Receiver.shed_tpdu rx ~t_id:1 ~first_elem:8 ~elems:8;
  Alcotest.(check int) "late shed of verified TPDU ignored" 0
    (CT.Receiver.sheds_received rx);
  Alcotest.check Util.bytes_testable "bytes survive the late shed" data
    (CT.Receiver.contents rx)

(* --- class-aware governor eviction --- *)

let test_governor_evicts_sheddable_first () =
  let evicted = ref [] in
  let g = Gov.create ~budget_bytes:100 ~ttl:10.0 () in
  Gov.set_on_evict g (fun k -> evicted := k.Gov.tpdu :: !evicted);
  let touch ~cls ~tpdu ~now =
    Gov.touch ~cls g ~key:{ Gov.conn = 1; tpdu } ~bytes:40 ~now
  in
  touch ~cls:0 ~tpdu:0 ~now:0.0;
  touch ~cls:2 ~tpdu:1 ~now:1.0;
  touch ~cls:1 ~tpdu:2 ~now:2.0;
  (* 120 > 100: the class-2 entry goes first, though TPDU 0 is oldest *)
  Alcotest.(check (list int)) "highest class displaced first" [ 1 ] !evicted;
  touch ~cls:0 ~tpdu:3 ~now:3.0;
  Alcotest.(check (list int)) "then the class-1 entry" [ 2; 1 ] !evicted;
  touch ~cls:0 ~tpdu:4 ~now:4.0;
  (* only class-0 entries remain: back to oldest-deadline *)
  Alcotest.(check (list int)) "class 0 falls back to oldest deadline"
    [ 0; 2; 1 ] !evicted;
  Alcotest.(check bool) "budget respected" true (Gov.total g <= 100)

(* Random touch/remove storms with mixed classes; cls 3 encodes a
   removal of the key.  Invariants after every event: the account never
   exceeds the budget, and a fully-reliable (class 0) entry is never
   budget-evicted while any sheddable entry remains. *)
let gen_gov_events =
  let open QCheck2.Gen in
  list_size (int_range 1 80)
    (map
       (fun (((conn, tpdu), cls), bytes) -> (conn, tpdu, cls, bytes))
       (tup2
          (tup2 (tup2 (int_range 0 2) (int_range 0 9)) (int_range 0 3))
          (int_range 1 96)))

let prop_governor_budget_and_priority events =
  let budget = 256 in
  let g = Gov.create ~budget_bytes:budget ~ttl:1e9 () in
  let alive = Hashtbl.create 16 in
  let ok = ref true in
  Gov.set_on_evict g (fun k ->
      (match Hashtbl.find_opt alive k with
      | Some 0 ->
          if
            Hashtbl.fold
              (fun k' c acc -> acc || (k' <> k && c > 0))
              alive false
          then ok := false
      | _ -> ());
      Hashtbl.remove alive k);
  List.iteri
    (fun i (conn, tpdu, cls, bytes) ->
      let key = { Gov.conn; tpdu } in
      if cls > 2 then begin
        Gov.remove g ~key;
        Hashtbl.remove alive key
      end
      else begin
        Hashtbl.replace alive key cls;
        Gov.touch ~cls g ~key ~bytes ~now:(float_of_int i)
      end;
      if Gov.total g > budget then ok := false;
      if Hashtbl.length alive <> (Gov.stats g).Gov.entries then ok := false)
    events;
  !ok && (Gov.stats g).Gov.high_water <= budget

(* [remove_conn] goes through a per-connection key index.  Against a
   reference that removes the connection's keys one by one with
   [remove] (what the old whole-table fold did), random
   touch/remove/remove_conn/sweep sequences under a budget must leave
   the same surviving entries, total, high-water mark, stats and
   eviction callbacks after every step. *)
type gov_op =
  | G_touch of int * int * int * int * int  (* conn, tpdu, cls, bytes, dt *)
  | G_remove of int * int
  | G_remove_conn of int
  | G_sweep of int

let gen_gov_ops =
  let open QCheck2.Gen in
  let conn = int_range 0 3 and tpdu = int_range (-1) 5 in
  let* budget = oneof [ return 0; int_range 40 200 ] in
  let* ops =
    list_size (int_range 1 100)
      (frequency
         [
           ( 6,
             map
               (fun ((c, t), (cls, bytes, dt)) -> G_touch (c, t, cls, bytes, dt))
               (tup2 (tup2 conn tpdu)
                  (tup3 (int_range 0 2) (int_range 0 60) (int_range 0 2))) );
           (2, map2 (fun c t -> G_remove (c, t)) conn tpdu);
           (2, map (fun c -> G_remove_conn c) conn);
           (1, map (fun dt -> G_sweep dt) (int_range 0 4));
         ])
  in
  return (budget, ops)

let prop_governor_remove_conn (budget, ops) =
  let keys =
    List.concat_map
      (fun conn -> List.init 7 (fun i -> { Gov.conn; tpdu = i - 1 }))
      [ 0; 1; 2; 3 ]
  in
  let mk () =
    let evicted = ref [] in
    let g = Gov.create ~budget_bytes:budget ~ttl:3.0 () in
    Gov.set_on_evict g (fun k -> evicted := k :: !evicted);
    (g, evicted)
  in
  let a, ev_a = mk () and b, ev_b = mk () in
  let now = ref 0.0 in
  let same () =
    Gov.stats a = Gov.stats b
    && Gov.total a = Gov.total b
    && Gov.high_water a = Gov.high_water b
    && !ev_a = !ev_b
    && List.for_all (fun key -> Gov.mem a ~key = Gov.mem b ~key) keys
  in
  List.for_all
    (fun op ->
      (match op with
      | G_touch (conn, tpdu, cls, bytes, dt) ->
          now := !now +. float_of_int dt;
          let key = { Gov.conn; tpdu } in
          Gov.touch ~cls a ~key ~bytes ~now:!now;
          Gov.touch ~cls b ~key ~bytes ~now:!now
      | G_remove (conn, tpdu) ->
          let key = { Gov.conn; tpdu } in
          Gov.remove a ~key;
          Gov.remove b ~key
      | G_remove_conn conn ->
          Gov.remove_conn a ~conn;
          List.iter
            (fun key -> if key.Gov.conn = conn then Gov.remove b ~key)
            keys
      | G_sweep dt ->
          now := !now +. float_of_int dt;
          Gov.sweep a ~now:!now;
          Gov.sweep b ~now:!now);
      same ())
    ops

(* --- the interleave scheduler --- *)

let mk_stream name cls elems =
  {
    Il.is_name = name;
    is_cls = cls;
    is_data = Util.deterministic_bytes (elems * 4);
  }

let test_interleave_order_and_classify () =
  (* three 10-TPDU streams, tpdu_elems 8, stride 10 *)
  let streams =
    [
      mk_stream "crit" Significance.Critical 80;
      mk_stream "norm" Significance.Normal 80;
      mk_stream "enh" (Significance.Sheddable 1) 80;
    ]
  in
  let plan =
    Util.ok_or_fail (Il.plan ~elem_size:4 ~tpdu_elems:8 ~conn_id:5 streams)
  in
  let order = List.map fst plan.Il.tpdus in
  Alcotest.(check int) "all TPDUs scheduled" 30 (List.length order);
  Alcotest.(check int) "no duplicates" 30
    (List.length (List.sort_uniq Int.compare order));
  (* round 1 grants weight TPDUs per stream: 4 critical, 2 normal, 1
     sheddable *)
  Alcotest.(check (list int)) "round 1 is 4/2/1"
    [ 0; 1; 2; 3; 10; 11; 20 ]
    (List.filteri (fun i _ -> i < 7) order);
  Alcotest.(check (list int)) "round 2 repeats the weights"
    [ 4; 5; 6; 7; 12; 13; 21 ]
    (List.filteri (fun i _ -> i >= 7 && i < 14) order);
  (* classification follows the layout *)
  let cls = plan.Il.classify in
  Alcotest.(check string) "stream 0 critical" "critical"
    (Significance.to_string (cls 0));
  Alcotest.(check string) "stream 1 normal" "normal"
    (Significance.to_string (cls 14));
  Alcotest.(check string) "stream 2 sheddable" "shed:1"
    (Significance.to_string (cls 20));
  Alcotest.(check string) "final TPDU promoted off the sheddable rank"
    "normal"
    (Significance.to_string (cls 29));
  Alcotest.(check string) "out of range defaults to normal" "normal"
    (Significance.to_string (cls 30));
  Alcotest.(check string) "negative T.ID defaults to normal" "normal"
    (Significance.to_string (cls (-1)));
  (* layout concatenates the streams *)
  Alcotest.(check (list int)) "layer offsets" [ 0; 80; 160 ]
    (List.map (fun (l : Il.layer) -> l.l_first_elem) plan.Il.layout);
  Alcotest.(check int) "total elements" 240 plan.Il.total_elems

let test_interleave_clean_delivery () =
  (* uneven stream lengths exercise the whole-TPDU padding: 100 bytes
     pads to 128 (4 TPDUs of 32 bytes), the final 70-byte stream pads
     only to the element (72 bytes, 18 elements, 3 TPDUs) *)
  let elem_size = 4 and tpdu_elems = 8 in
  let streams =
    [
      {
        Il.is_name = "a";
        is_cls = Significance.Critical;
        is_data = Util.deterministic_bytes 100;
      };
      {
        Il.is_name = "b";
        is_cls = Significance.Sheddable 1;
        is_data = Bytes.init 70 (fun i -> Char.chr ((i * 7 + 3) land 0xFF));
      };
    ]
  in
  let plan =
    Util.ok_or_fail (Il.plan ~elem_size ~tpdu_elems ~conn_id:7 streams)
  in
  Alcotest.(check int) "padded total" (32 + 18) plan.Il.total_elems;
  let config =
    {
      CT.default_config with
      conn_id = 7;
      elem_size;
      tpdu_elems;
      classify = plan.Il.classify;
      shed_txs = 2;
    }
  in
  let engine = Netsim.Engine.create ~seed:3 () in
  let receiver = ref None and sender = ref None in
  let forward =
    Netsim.Link.create engine ~name:"fwd" ~rate_bps:1e9 ~delay:1e-3
      ~mtu:config.CT.mtu
      ~deliver:(fun b ->
        match !receiver with
        | Some r -> CT.Receiver.ingest r b
        | None -> ())
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
      ~capacity:(`Exact plan.Il.total_elems)
      ()
  in
  receiver := Some rx;
  let tx =
    CT.Sender.of_tpdus engine config
      ~send:(fun b -> ignore (Netsim.Link.send forward b))
      plan.Il.tpdus
  in
  sender := Some tx;
  CT.Sender.start tx;
  Netsim.Engine.run engine;
  Alcotest.(check bool) "complete" true (CT.Receiver.complete rx);
  Alcotest.(check int) "nothing shed on a clean path" 0
    (CT.Receiver.sheds_received rx);
  Alcotest.check Util.bytes_testable "delivery matches Interleave.expected"
    (Il.expected ~elem_size ~tpdu_elems streams)
    (CT.Receiver.contents rx)

let test_interleave_rejects_bad_input () =
  let fails = function
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "plan accepted invalid input"
  in
  fails (Il.plan ~conn_id:1 []);
  fails
    (Il.plan ~conn_id:1
       [ { Il.is_name = "x"; is_cls = Significance.Normal;
           is_data = Bytes.empty } ]);
  fails
    (Il.plan ~elem_size:4 ~tpdu_elems:8 ~tid_stride:2 ~conn_id:1
       [ mk_stream "big" Significance.Normal 80 ])

(* --- the degradation path in the conformance harness --- *)

let test_degrade_hostile_soak () =
  (* seed chosen so the 15-schedule smoke deterministically includes
     schedules whose loss actually drives the sender to shed *)
  let report =
    Check.Soak.run_profile ~schedules:15 ~seed:11
      Check.Schedule.Degrade_hostile
  in
  List.iter
    (fun (f : Check.Soak.finding) ->
      List.iter
        (fun v ->
          Alcotest.failf "schedule %s violates %s"
            (Check.Schedule.to_string f.Check.Soak.schedule)
            (Check.Oracle.violation_to_string v))
        f.Check.Soak.violations)
    report.Check.Soak.findings;
  Alcotest.(check bool) "the adversary actually provoked sheds" true
    (report.Check.Soak.sheds_honoured > 0);
  Alcotest.(check bool) "sheds signalled >= honoured" true
    (report.Check.Soak.sheds_signalled >= report.Check.Soak.sheds_honoured)

let test_shed_clobber_caught () =
  (* both endpoints mis-configured to treat TPDU 0 (which carries no
     shed contract) as expendable: the oracle's shed-safety row must
     fire, and the shrunk schedule must still violate *)
  let report =
    Check.Soak.run_profile ~mutation:Check.Driver.Shed_clobber ~schedules:12
      ~seed:11 Check.Schedule.Clean
  in
  Alcotest.(check bool) "bug caught" true (report.Check.Soak.findings <> []);
  let shed_safety vs =
    List.exists (fun v -> v.Check.Oracle.code = "shed-safety") vs
  in
  Alcotest.(check bool) "caught as a shed-safety violation" true
    (List.exists
       (fun (f : Check.Soak.finding) -> shed_safety f.Check.Soak.violations)
       report.Check.Soak.findings);
  Alcotest.(check bool) "shrunk replay still violates shed-safety" true
    (List.exists
       (fun (f : Check.Soak.finding) ->
         shed_safety f.Check.Soak.shrunk.Check.Shrink.violations)
       report.Check.Soak.findings)

let suite =
  [
    Util.qtest ~count:200 "Shed_tpdu signal round-trips" gen_shed_signal
      prop_shed_signal_roundtrip;
    Alcotest.test_case "sender sheds under loss, reliable bytes intact"
      `Quick test_shed_under_loss;
    Alcotest.test_case "forged shed of a Normal TPDU is ignored" `Quick
      test_forged_shed_ignored;
    Alcotest.test_case "shed after verification is ignored" `Quick
      test_shed_after_verify_ignored;
    Alcotest.test_case "governor displaces sheddable state first" `Quick
      test_governor_evicts_sheddable_first;
    Util.qtest ~count:300 "governor: budget and priority invariants"
      gen_gov_events prop_governor_budget_and_priority;
    Util.qtest ~count:300 "governor: remove_conn matches per-key removal"
      gen_gov_ops prop_governor_remove_conn;
    Alcotest.test_case "interleave: weighted round-robin and classify"
      `Quick test_interleave_order_and_classify;
    Alcotest.test_case "interleave: clean path delivers expected bytes"
      `Quick test_interleave_clean_delivery;
    Alcotest.test_case "interleave: invalid inputs rejected" `Quick
      test_interleave_rejects_bad_input;
    Alcotest.test_case "soak: degrade-hostile profile" `Quick
      test_degrade_hostile_soak;
    Alcotest.test_case "shed clobber caught and shrunk" `Quick
      test_shed_clobber_caught;
  ]
