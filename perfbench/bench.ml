(* The receive-path benchmark.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]

   Makes the workload's inputs from the seed, measures for about S
   seconds, checks every output, prints a human-readable report and, as
   its last line, one JSON object: the end-to-end metrics with
   [--trace 0], the per-layer metrics with [--trace 1].  The traced run
   also writes its spans to FILE as JSON lines. *)

let workload = ref ""
let seed = ref 0
let seconds = ref 10
let trace = ref 0
let spans_file = ref ""

let () =
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME fresh-bulk|frag-disorder|reoffer-zipf|transfer-lossy" );
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer run");
      ("--spans", Arg.Set_string spans_file, "FILE for the traced run's spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1"

let problems = ref []
let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt
let require cond fmt =
  Printf.ksprintf (fun s -> if not cond then problems := s :: !problems) fmt

(* {1 Output} *)

let metrics : (string * float * string) list ref = ref []
let metric name unit v = metrics := (name, v, unit) :: !metrics

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else begin
    fail "metric value %f is not finite" v;
    "0"
  end

let finish ~attempted ~failed =
  let body =
    List.rev !metrics
    |> List.map (fun (n, v, u) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u)
    |> String.concat ", "
  in
  let correct = !problems = [] && failed = 0 && attempted > 0 in
  List.iter (Printf.printf "problem: %s\n") (List.rev !problems);
  List.iter
    (fun (n, v, u) -> Printf.printf "  %-36s %16.6f %s\n" n v u)
    (List.rev !metrics);
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct (max 1 attempted) failed body

let stamp ~digest =
  let tm = Unix.gmtime (Unix.time ()) in
  Printf.printf
    "workload %s  seed %d  seconds %d  trace %d\n\
     nproc %d  ocaml %s  date %04d-%02d-%02dT%02d:%02d:%02dZ\n\
     input digest %s\n\
     note: Obs.Metrics counters are compiled in (Obs.enabled = %b); they can\n\
    \      only be switched off by editing lib/obs/flag.ml, so their cost is\n\
    \      part of every figure here.\n"
    !workload !seed !seconds !trace
    (Domain.recommended_domain_count ())
    Sys.ocaml_version (tm.tm_year + 1900) (tm.tm_mon + 1) tm.tm_mday tm.tm_hour
    tm.tm_min tm.tm_sec digest Obs.enabled

let elapsed_since t0 = (Clock.now_ns () -. t0) /. 1e9

(* [repeat ~budget f] runs [f] until [budget] seconds have passed, at
   least [min] times, and returns the results in order. *)
let repeat ?(min = 3) ~budget f =
  let t0 = Clock.now_ns () in
  let rec go acc n =
    if n >= min && elapsed_since t0 >= budget then List.rev acc
    else go (f () :: acc) (n + 1)
  in
  go [] 0

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let median_of f l = Clock.median (Array.of_list (List.map f l))
let sum_of f l = List.fold_left (fun a x -> a +. f x) 0.0 l

(* Work per second over all measured repetitions: a total, not a median
   of per-repetition rates, so that it moves smoothly with the share of
   the run the machine spent in a slow state. *)
let rate ~work ~secs l = sum_of work l /. sum_of secs l
let pct a b = 100.0 *. (a -. b) /. b

(* Wall-clock figures.  On a shared two-core box they drift by 15-40%
   between runs (the machine moves between speed states over seconds to
   minutes), so they are per-layer metrics of the traced run, measured on
   its untraced repetitions, and only printed by the end-to-end run, whose
   bounded metrics are the ones that repeat. *)
let timing ~emit ~work ~app_mb ~secs ~samples reps =
  emit "pkt_per_s" "1/s" (rate ~work ~secs reps);
  emit "goodput_mb_s" "MB/s" (rate ~work:app_mb ~secs reps);
  emit "batch_us_p50" "us" (Clock.grouped_quantile samples 0.5 /. 1e3);
  emit "batch_us_p99" "us" (Clock.grouped_quantile samples 0.99 /. 1e3)

let info name unit v =
  Printf.printf "  %-36s %16.6f %s  (wall clock, not gated)\n" name v unit

(* Interleaved A/B in one process: [a] and [b] alternate (a b b a, so
   which runs first alternates too), and the result is the median over
   adjacent pairs of b's change over a, in percent.  A pair runs within a
   second or two, so the machine's slower drift cancels out of it. *)
let ab ~budget a b =
  repeat ~min:1 ~budget (fun () ->
      let x = a () in
      let y = b () in
      let y' = b () in
      let x' = a () in
      [ pct y x; pct y' x' ])
  |> List.concat |> Array.of_list |> Clock.median

(* {1 Set-up and reproducibility} *)

(* A set-up is [make] (the inputs) and [prepare] (the program's work
   before the measured loop), timed from a compacted heap.  The machine's
   speed moves between states every second or so, so set-ups are taken
   across the whole measured loop, not only before it, and [setup_s] is
   their median. *)
type ('g, 'p) setup = {
  make : int -> 'g;
  digest : 'g -> string;
  prepare : 'g -> 'p;
  mutable times : float list;
  mutable digests : string list;
}

let set_up s =
  Gc.compact ();
  let t0 = Clock.now_ns () in
  let g = s.make !seed in
  let p = s.prepare g in
  s.times <- ((Clock.now_ns () -. t0) /. 1e9) :: s.times;
  s.digests <- s.digest g :: s.digests;
  (g, p)

(* The first set-up gives the run's inputs and the reproducibility
   stamp: another seed must give other inputs. *)
let first_set_up ~make ~digest ~prepare =
  let s = { make; digest; prepare; times = []; digests = [] } in
  let g, p = set_up s in
  let d = digest g in
  require (digest (make (!seed + 1)) <> d) "another seed gave the same inputs";
  stamp ~digest:d;
  Gc.compact ();
  (s, g, p)

let min_set_ups = 5

(* The measured loop: [repeat ~budget f], with a set-up after a
   repetition whenever set-ups have had less than a quarter of the time
   so far.  Returns the repetitions and the median set-up time, and
   checks that every set-up gave the same inputs. *)
let measure_with_set_ups s ~budget f =
  let t0 = Clock.now_ns () and spent = ref 0.0 in
  let again () =
    let t = Clock.now_ns () in
    ignore (set_up s);
    Gc.compact ();
    spent := !spent +. elapsed_since t
  in
  let reps =
    repeat ~budget (fun () ->
        let r = f () in
        if !spent < 0.25 *. elapsed_since t0 then again ();
        r)
  in
  while List.length s.times < min_set_ups do
    again ()
  done;
  let times = Array.of_list s.times in
  Printf.printf "set-up: %d times, min %.6f s, median %.6f s, max %.6f s\n"
    (Array.length times)
    (Clock.quantile times 0.0) (Clock.median times) (Clock.quantile times 1.0);
  let d = List.hd s.digests in
  require (List.for_all (( = ) d) s.digests) "the same seed gave different inputs";
  (reps, Clock.median times)

(* {1 Receive-path workloads} *)

let multi_gen = function
  | "fresh-bulk" -> Some Gen.fresh_bulk
  | "frag-disorder" -> Some Gen.frag_disorder
  | "reoffer-zipf" -> Some Gen.reoffer_zipf
  | _ -> None

let counter_of (r : Rx.rep) name =
  Option.value (List.assoc_opt name r.Rx.counters) ~default:0

(* Offered data-chunk payload bytes (duplicates included). *)
let offered_payload (g : Gen.multi) =
  let s = Labelling.Wire.Scan.create () in
  Array.fold_left
    (fun a p ->
      ignore (Labelling.Wire.Scan.packet s p);
      let acc = ref a in
      for i = 0 to Labelling.Wire.Scan.count s - 1 do
        let off = Labelling.Wire.Scan.offset s i in
        if Labelling.Wire.Scan.is_data_chunk p off then
          acc := !acc + (Labelling.Wire.Scan.size p off * Labelling.Wire.Scan.len p off)
      done;
      !acc)
    0 g.packets

(* The counters at the layer boundaries, as the last repetition left
   them in the registry. *)
let boundary_counters =
  [ "edc_chunks_total"; "edc_duplicates_total"; "edc_tpdus_passed_total";
    "edc_tpdus_failed_total"; "wsc2_bytes_total"; "transport_acks_total";
    "transport_reacks_total"; "governor_evictions_budget_total";
    "governor_evictions_deadline_total"; "multi_unknown_drops_total";
    "multi_late_drops_total"; "netsim_events_total" ]

let print_counters value =
  Printf.printf "counters:%s\n"
    (String.concat ""
       (List.map (fun n -> Printf.sprintf " %s=%d" n (value n)) boundary_counters))

let report_rep_problems (r : Rx.rep) =
  List.iter (fail "%s") r.Rx.result.Rx.problems

(* The corrupted-byte self-test: the check must see the flipped byte. *)
let self_test_multi g =
  let bad = Rx.corrupt g in
  let r = Rx.run bad (Gen.batches bad.Gen.packets) in
  let tripped = r.Rx.result.Rx.failed > 0 || r.Rx.result.Rx.problems <> [] in
  Printf.printf "self-test: one flipped payload byte -> %d failed TPDU(s), %s\n"
    r.Rx.result.Rx.failed
    (if tripped then "check tripped" else "CHECK MISSED IT");
  require tripped "the corrupted-byte self-test did not trip the check"

let samples_of f reps = Array.concat (List.map f reps)

let multi_timing ~emit ~npk reps =
  timing ~emit ~work:(fun _ -> npk)
    ~app_mb:(fun (r : Rx.rep) -> float_of_int r.result.app_bytes /. 1e6)
    ~secs:(fun (r : Rx.rep) -> r.wall_ns /. 1e9)
    ~samples:(samples_of (fun (r : Rx.rep) -> r.samples) reps)
    reps

let multi_end_to_end make =
  let setup, g, () =
    first_set_up ~make:(fun seed -> make ~seed)
      ~digest:Gen.digest_multi
      ~prepare:(fun g -> ignore (Rx.endpoint g))
  in
  let fresh_share =
    float_of_int (Array.length g.regions) /. float_of_int (Array.length g.packets)
  in
  if !workload = "reoffer-zipf" then
    require (fresh_share <= 0.11)
      "only %.1f%% of packets are duplicates, re-ACKs or unknown-connection drops"
      (100.0 *. (1.0 -. fresh_share));
  self_test_multi g;
  let batches = Gen.batches g.packets in
  let warm = Rx.run g batches in
  report_rep_problems warm;
  let reps, setup_s =
    measure_with_set_ups setup ~budget:(float_of_int !seconds) (fun () ->
        Rx.run g batches)
  in
  List.iter report_rep_problems reps;
  let npk = float_of_int (Array.length g.packets) in
  let samples = samples_of (fun (r : Rx.rep) -> r.samples) reps in
  let ns = Array.length samples in
  Printf.printf
    "packets %d per repetition, %d repetitions measured (+1 warm-up), %d ingest_batch \
     samples, %.1f%% of packets fresh\n"
    (Array.length g.packets) (List.length reps) ns (100.0 *. fresh_share);
  Printf.printf "batch tail percentile with >= 10 samples beyond it: %s\n"
    (Clock.tail_label ns);
  Printf.printf "repetition ms:%s\n"
    (String.concat ""
       (List.map (fun (r : Rx.rep) -> Printf.sprintf " %.0f" (r.wall_ns /. 1e6)) reps));
  print_counters (counter_of (List.hd (List.rev reps)));
  List.iter
    (fun (name, q) ->
      Printf.printf "%s us per group of %d:%s\n" name Clock.group
        (String.concat ""
           (Array.to_list
              (Array.map
                 (fun v -> Printf.sprintf " %.0f" (v /. 1e3))
                 (Clock.group_quantiles samples q)))))
    [ ("p50", 0.5); ("p99", 0.99) ];
  let attempted = List.fold_left (fun a (r : Rx.rep) -> a + r.result.expected) 0 reps in
  let failed = List.fold_left (fun a (r : Rx.rep) -> a + r.result.failed) 0 reps in
  multi_timing ~emit:info ~npk reps;
  metric "minor_words_per_pkt" "words"
    (median_of (fun (r : Rx.rep) -> r.minor /. npk) reps);
  metric "promoted_words_per_pkt" "words"
    (median_of (fun (r : Rx.rep) -> r.promoted /. npk) reps);
  metric "minor_words_per_kib" "words"
    (median_of
       (fun (r : Rx.rep) -> r.minor /. (float_of_int r.result.app_bytes /. 1024.0))
       reps);
  metric "top_heap_mb" "MB" (median_of (fun (r : Rx.rep) -> r.heap_mb) reps);
  metric "setup_s" "s" setup_s;
  metric "delivered_ratio" "ratio"
    (1.0 -. (float_of_int failed /. float_of_int (max 1 attempted)));
  (* No simulated link or sender here: the transfer's three metrics are
     printed as a fixed 1. *)
  List.iter
    (fun (name, unit) -> metric name unit 1.0)
    [ ("sim_goodput_mbps", "Mb/s"); ("wire_bytes_per_app_byte", "ratio");
      ("tx_per_tpdu", "ratio") ];
  finish ~attempted ~failed

(* The ledger: the replayed stage costs weighted by how often the run
   called each stage, against the run's own cost per packet. *)
let ledger ~e2e_us ~stage_us =
  metric "ledger.stage_sum_us_per_pkt" "us" stage_us;
  metric "ledger.unattributed_us_per_pkt" "us" (e2e_us -. stage_us);
  metric "ledger.closure_ratio" "ratio" (stage_us /. e2e_us);
  Printf.printf
    "ledger: end-to-end %.3f us/pkt, stages %.3f us/pkt, unattributed %.3f us/pkt\n"
    e2e_us stage_us (e2e_us -. stage_us)

let layer_metrics (c : Layers.costs) =
  let us (x : Layers.cost) = x.ns /. 1e3 in
  metric "wire.scan.us_per_pkt" "us" (us c.scan);
  metric "wire.scan.words_per_pkt" "words" c.scan.words;
  metric "wire.decode.us_per_pkt" "us" (us c.decode);
  metric "wire.decode.words_per_pkt" "words" c.decode.words;
  metric "wire.scan_chunk.us_per_chunk" "us" (us c.scan_chunk);
  metric "demux.connection.us_per_chunk" "us" (us c.connection);
  metric "flowcache.find.us_per_chunk" "us" (us c.find);
  metric "edc.verifier.us_per_chunk" "us" (us c.verifier);
  metric "edc.verifier.words_per_chunk" "words" c.verifier.words;
  metric "vreassembly.insert.us_per_chunk" "us" (us c.vreassembly);
  metric "wsc2.add_bytes.ns_per_byte" "ns" c.wsc2_ns_per_byte;
  metric "placement.place.us_per_chunk" "us" (us c.place);
  metric "placement.place.words_per_chunk" "words" c.place.words;
  metric "ack.encode.us_per_ack" "us" (us c.ack);
  metric "governor.touch.us_per_op" "us" (us c.touch);
  metric "framer.push_frame.us_per_tpdu" "us" (us c.push_frame);
  metric "edc.encoder.seal.us_per_tpdu" "us" (us c.seal);
  metric "wire.encode_packet.us_per_pkt" "us" (us c.encode);
  metric "fragment.split.us_per_chunk" "us" (us c.split)

let write_spans () =
  if !spans_file <> "" then begin
    Span.write !spans_file;
    Printf.printf "spans: %d written to %s\n" (List.length !Span.spans) !spans_file
  end;
  List.iter
    (fun (name, (n, calls, total, self)) ->
      Printf.printf "  span %-34s %7d spans %9d calls  total %10.3f ms  self %10.3f ms\n"
        name n calls (total /. 1e6) (self /. 1e6))
    (Span.summary ())

(* The traced run's repetitions: untraced ones interleaved (see [ab])
   with ones that record a span per call and with ones under an
   [Obs.Trace] ring sink.  [run span] makes one repetition and [wall]
   reads its measured time.  Records both overheads and returns the
   untraced repetitions, oldest first. *)
let traced_repetitions ~root ~run ~wall =
  let budget = float_of_int !seconds *. 0.35 in
  let untraced = ref [] in
  let plain () =
    let r = run None in
    untraced := r :: !untraced;
    wall r
  in
  let spanned () =
    Span.around ~parent:root ~name:"workload.repetition" (fun id -> wall (run (Some id)))
  in
  let with_ring () =
    Obs.Trace.set_sink (Obs.Trace.ring ~capacity:65536);
    let w = wall (run None) in
    Obs.Trace.set_sink Obs.Trace.null;
    w
  in
  ignore (run None);
  metric "trace.overhead_pct" "%" (ab ~budget plain spanned);
  metric "obs.trace_ring.overhead_pct" "%" (ab ~budget plain with_ring);
  List.rev !untraced

let multi_traced make =
  let g = make ~seed:!seed in
  stamp ~digest:(Gen.digest_multi g);
  let batches = Gen.batches g.Gen.packets in
  let npk = float_of_int (Array.length g.packets) in
  let root = Span.fresh () in
  let t_root = Clock.now_ns () in
  let runs =
    traced_repetitions ~root
      ~run:(fun span -> Rx.run ?span g batches)
      ~wall:(fun (r : Rx.rep) -> r.wall_ns)
  in
  List.iter report_rep_problems runs;
  let r = List.hd (List.rev runs) in
  let e2e_us = median_of (fun (r : Rx.rep) -> r.wall_ns /. 1e3 /. npk) runs in
  let cap = Layers.of_multi g in
  let c =
    Span.around ~parent:root ~name:"replay" (fun id -> Layers.measure ~parent:id cap)
  in
  Span.record ~id:root ~parent:0 ~name:"traced-run" ~t0:t_root ~t1:(Clock.now_ns ())
    ~count:1;
  layer_metrics c;
  multi_timing ~emit:metric ~npk runs;
  let cnt = counter_of r in
  print_counters cnt;
  let fp = r.fastpath in
  metric "flowcache.conn_hit_rate" "ratio" (Transport.Flowcache.hit_rate fp.fp_conn);
  metric "flowcache.tpdu_hit_rate" "ratio" (Transport.Flowcache.hit_rate fp.fp_tpdu);
  metric "edc.dup_ratio" "ratio"
    (ratio (cnt "edc_duplicates_total") (cnt "edc_chunks_total"));
  metric "wsc2.bytes_per_payload_byte" "ratio"
    (ratio (cnt "wsc2_bytes_total") (offered_payload g));
  let expected = Array.length g.regions in
  metric "transport.acks_per_tpdu" "ratio" (ratio (cnt "transport_acks_total") expected);
  metric "transport.reacks_per_pkt" "ratio"
    (ratio (cnt "transport_reacks_total") (Array.length g.packets));
  metric "governor.high_water_bytes" "bytes" (float_of_int r.governor.high_water);
  metric "governor.evictions" "count"
    (float_of_int (r.governor.evictions_deadline + r.governor.evictions_budget));
  metric "netsim.events_per_kib" "events/KiB" 0.0;
  (* Calls per packet in the run, from its own counters. *)
  let per_pkt n = float_of_int n /. npk in
  let probes (s : Transport.Flowcache.stats) = s.s_hits + s.s_misses in
  let chunks = cnt "edc_chunks_total" in
  (* Data chunks that reach placement: those of each verified TPDU. *)
  let placed = float_of_int (cnt "edc_tpdus_passed_total") *. cap.data_per_tpdu in
  let chunks_per_pkt =
    float_of_int (Array.length cap.chunks) /. float_of_int (Array.length cap.packets)
  in
  let us (x : Layers.cost) = x.ns /. 1e3 in
  let stage_us =
    us c.scan
    +. (chunks_per_pkt *. us c.scan_chunk)
    +. (per_pkt (probes fp.fp_conn + probes fp.fp_tpdu) *. us c.find)
    +. (per_pkt fp.fp_conn.s_misses *. us c.connection)
    +. (per_pkt chunks *. us c.verifier)
    +. (placed /. npk *. us c.place)
    +. (per_pkt (cnt "transport_acks_total" + cnt "transport_reacks_total") *. us c.ack)
    +. (per_pkt r.touches *. us c.touch)
  in
  ledger ~e2e_us ~stage_us;
  write_spans ();
  let attempted = List.fold_left (fun a (r : Rx.rep) -> a + r.result.expected) 0 runs in
  let failed = List.fold_left (fun a (r : Rx.rep) -> a + r.result.failed) 0 runs in
  finish ~attempted ~failed

(* {1 The lossy transfer} *)

let transfer_timing ~emit reps =
  timing ~emit
    ~work:(fun (r : Xfer.rep) -> float_of_int r.chunks)
    ~app_mb:(fun (r : Xfer.rep) -> float_of_int r.app_bytes /. 1e6)
    ~secs:(fun (r : Xfer.rep) -> r.wall_ns /. 1e9)
    ~samples:(samples_of (fun (r : Xfer.rep) -> r.samples) reps)
    reps

let transfer_end_to_end () =
  (* The set-up ends with a reference pass over the cycle, which gives the
     completion times the simulated goodput is read from. *)
  let setup, t, done_at =
    first_set_up
      ~make:(fun seed -> Gen.transfer_lossy ~seed)
      ~digest:Gen.digest_transfer ~prepare:Xfer.completion_times
  in
  let tripped = Xfer.check_trips t in
  Printf.printf "self-test: one payload byte sent differs from the expected data -> %s\n"
    (if tripped then "check tripped" else "CHECK MISSED IT");
  require tripped "the corrupted-byte self-test did not trip the check";
  let warm = Xfer.cycle t in
  let reps, setup_s =
    measure_with_set_ups setup ~budget:(float_of_int !seconds) (fun () -> Xfer.cycle t)
  in
  List.iter (fun (r : Xfer.rep) -> List.iter (fail "%s") r.problems) (warm :: reps);
  print_counters (fun n -> Obs.Metrics.value (Obs.Metrics.counter n));
  (* The simulated quantities repeat exactly, run after run. *)
  List.iter
    (fun (r : Xfer.rep) ->
      require (r.chunks = warm.chunks && r.events = warm.events)
        "the simulation did not repeat exactly")
    reps;
  let ns = List.fold_left (fun a (r : Xfer.rep) -> a + Array.length r.samples) 0 reps in
  Printf.printf
    "%d transfers of %d bytes per cycle, %d cycles measured (+1 warm-up), %d samples\n"
    Gen.cycle Gen.transfer_bytes (List.length reps) ns;
  Printf.printf "transfer tail percentile with >= 10 samples beyond it: %s\n"
    (Clock.tail_label ns);
  let attempted = List.fold_left (fun a (r : Xfer.rep) -> a + r.expected) 0 reps in
  let failed = List.fold_left (fun a (r : Xfer.rep) -> a + r.failed) 0 reps in
  let sent = warm.sent in
  transfer_timing ~emit:info reps;
  metric "minor_words_per_pkt" "words"
    (median_of (fun (r : Xfer.rep) -> r.minor /. float_of_int r.chunks) reps);
  metric "promoted_words_per_pkt" "words"
    (median_of (fun (r : Xfer.rep) -> r.promoted /. float_of_int r.chunks) reps);
  metric "minor_words_per_kib" "words"
    (median_of
       (fun (r : Xfer.rep) -> r.minor /. (float_of_int r.app_bytes /. 1024.0))
       reps);
  metric "top_heap_mb" "MB" (median_of (fun (r : Xfer.rep) -> r.heap_mb) reps);
  metric "setup_s" "s" setup_s;
  metric "delivered_ratio" "ratio"
    (1.0 -. (float_of_int failed /. float_of_int (max 1 attempted)));
  (* A mean over the transfers' own goodputs: a total would be decided by
     the few transfers that stall on back-to-back losses, and a median
     flips between the clean and the lossy transfers. *)
  metric "sim_goodput_mbps" "Mb/s"
    (Clock.mean
       (Array.map (fun t -> float_of_int (8 * Gen.transfer_bytes) /. t /. 1e6) done_at));
  metric "wire_bytes_per_app_byte" "ratio" (ratio warm.wire sent);
  metric "tx_per_tpdu" "ratio" (ratio warm.txs warm.expected);
  finish ~attempted ~failed

let g_occupancy = Obs.Metrics.gauge "governor_occupancy_bytes"

let transfer_traced () =
  let t = Gen.transfer_lossy ~seed:!seed in
  stamp ~digest:(Gen.digest_transfer t);
  let root = Span.fresh () in
  let t_root = Clock.now_ns () in
  let runs =
    traced_repetitions ~root
      ~run:(fun span -> Xfer.cycle ?span t)
      ~wall:(fun (r : Xfer.rep) -> r.wall_ns)
  in
  (* One more untraced cycle; its counters are read before the replays
     add their own to the registry. *)
  let r = Xfer.cycle t in
  let high_water = Obs.Metrics.gauge_max g_occupancy in
  let counters = (Obs.Metrics.snapshot ()).Obs.Metrics.s_counters in
  let cnt name = Option.value (List.assoc_opt name counters) ~default:0 in
  print_counters cnt;
  let runs = runs @ [ r ] in
  List.iter (fun (r : Xfer.rep) -> List.iter (fail "%s") r.problems) runs;
  transfer_timing ~emit:metric runs;
  let cap = Layers.of_transfer t in
  let c =
    Span.around ~parent:root ~name:"replay" (fun id -> Layers.measure ~parent:id cap)
  in
  Span.record ~id:root ~parent:0 ~name:"traced-run" ~t0:t_root ~t1:(Clock.now_ns ())
    ~count:1;
  layer_metrics c;
  let sent = r.sent in
  metric "flowcache.conn_hit_rate" "ratio" 0.0;
  metric "flowcache.tpdu_hit_rate" "ratio" 0.0;
  metric "edc.dup_ratio" "ratio"
    (ratio (cnt "edc_duplicates_total") (cnt "edc_chunks_total"));
  metric "wsc2.bytes_per_payload_byte" "ratio" (ratio (cnt "wsc2_bytes_total") sent);
  metric "transport.acks_per_tpdu" "ratio"
    (ratio (cnt "transport_acks_total") r.expected);
  metric "transport.reacks_per_pkt" "ratio"
    (ratio (cnt "transport_reacks_total") r.chunks);
  metric "governor.high_water_bytes" "bytes" (float_of_int high_water);
  metric "governor.evictions" "count"
    (float_of_int
       (cnt "governor_evictions_deadline_total" + cnt "governor_evictions_budget_total"));
  metric "netsim.events_per_kib" "events/KiB"
    (float_of_int r.events /. (float_of_int sent /. 1024.0));
  (* Per receiver chunk: what the capture's own call counts cost, the
     sender's stages included; the rest is simulator and transport. *)
  let nc = float_of_int (Array.length cap.chunks) in
  let each (x : Layers.cost) = x.ns /. 1e3 *. float_of_int x.calls /. nc in
  let stage_us =
    each c.decode +. each c.verifier +. each c.place +. each c.ack +. each c.push_frame
    +. each c.seal +. each c.encode +. each c.split
  in
  let e2e_us =
    median_of (fun (r : Xfer.rep) -> r.wall_ns /. 1e3 /. float_of_int r.chunks) runs
  in
  ledger ~e2e_us ~stage_us;
  write_spans ();
  let attempted = List.fold_left (fun a (r : Xfer.rep) -> a + r.expected) 0 runs in
  let failed = List.fold_left (fun a (r : Xfer.rep) -> a + r.failed) 0 runs in
  finish ~attempted ~failed

let () =
  match (multi_gen !workload, !workload) with
  | Some make, _ -> if !trace = 1 then multi_traced make else multi_end_to_end make
  | None, "transfer-lossy" ->
      if !trace = 1 then transfer_traced () else transfer_end_to_end ()
  | None, w ->
      prerr_endline ("unknown workload " ^ w);
      exit 2
