(* The lossy transfer: the one workload that runs the sender, the
   simulator, gateway re-fragmentation and retransmission.  The closed
   loop here is one whole [Chunk_transport.run] call after another,
   cycling through the seed's transfers. *)

module Ct = Transport.Chunk_transport

let c_chunks = Obs.Metrics.counter "edc_chunks_total"
let c_events = Obs.Metrics.counter "netsim_events_total"
let tpdu_bytes (t : Gen.transfer) = t.t_config.Ct.elem_size * t.t_config.Ct.tpdu_elems

type check = { expected : int; failed : int; problems : string list }

(* Byte-exact delivery per TPDU, the transfer's own verdict and zero
   verifier failures. *)
let check_delivery t ~data ~(delivered : bytes) ~(o : Ct.outcome) =
  let tb = tpdu_bytes t in
  let n = Bytes.length data in
  let expected = (n + tb - 1) / tb in
  let failed = ref 0 in
  for k = 0 to expected - 1 do
    let off = k * tb in
    let len = min tb (n - off) in
    if
      Bytes.length delivered < off + len
      || not (Bytes.equal (Bytes.sub delivered off len) (Bytes.sub data off len))
    then incr failed
  done;
  let problems =
    (if o.Ct.ok then [] else [ "outcome.ok false" ])
    @
    if o.verifier.Edc.Verifier.tpdus_failed > 0 then
      [ Printf.sprintf "%d verifier failures" o.verifier.tpdus_failed ]
    else []
  in
  { expected; failed = !failed; problems }

type rep = {
  wall_ns : float;
  samples : float array;  (** ns per transfer *)
  minor : float;
  promoted : float;
  chunks : int;  (** chunks that reached the receiver's verifier *)
  events : int;  (** simulator events *)
  app_bytes : int;  (** bytes of TPDUs delivered byte-exact *)
  expected : int;
  failed : int;
  problems : string list;
  sent : int;  (** application bytes offered *)
  wire : int;  (** bytes the sender put on the wire *)
  txs : int;  (** TPDU transmissions, retransmissions included *)
  heap_mb : float;  (** major heap size at the end of the cycle *)
}

(* One cycle of transfers.  With [~span], each [run] call is a child span
   of that id. *)
let cycle ?span (t : Gen.transfer) =
  Obs.Metrics.reset_all ();
  (* Start from a collected heap, as a receive-path repetition does. *)
  Gc.full_major ();
  let n = Array.length t.runs in
  let samples = Array.make n 0.0 in
  let outcomes = Array.make n None in
  let st0 = Gc.quick_stat () in
  let mw0 = Gc.minor_words () in
  for i = 0 to n - 1 do
    let t0 = Clock.now_ns () in
    let o = Gen.run_transfer t t.runs.(i) in
    let t1 = Clock.now_ns () in
    (match span with
    | Some parent ->
        Span.record ~id:(Span.fresh ()) ~parent ~name:"transport.chunk_transport.run" ~t0
          ~t1 ~count:1
    | None -> ());
    samples.(i) <- t1 -. t0;
    outcomes.(i) <- Some o
  done;
  let minor = Gc.minor_words () -. mw0 in
  let st1 = Gc.quick_stat () in
  let outcomes = Array.to_list (Array.map Option.get outcomes) in
  let sum f = List.fold_left (fun a o -> a + f o) 0 outcomes in
  let expected = ref 0 and failed = ref 0 and app = ref 0 and problems = ref [] in
  List.iteri
    (fun i o ->
      let data = snd t.runs.(i) in
      let c = check_delivery t ~data ~delivered:o.Ct.delivered ~o in
      expected := !expected + c.expected;
      failed := !failed + c.failed;
      app := !app + Bytes.length data - (c.failed * tpdu_bytes t);
      problems := !problems @ c.problems)
    outcomes;
  {
    wall_ns = Array.fold_left ( +. ) 0.0 samples;
    samples;
    minor;
    promoted = st1.Gc.promoted_words -. st0.Gc.promoted_words;
    chunks = Obs.Metrics.value c_chunks;
    events = Obs.Metrics.value c_events;
    app_bytes = max 0 !app;
    expected = !expected;
    failed = !failed;
    problems = !problems;
    sent = sum (fun o -> o.Ct.sent_bytes);
    wire = sum (fun o -> o.Ct.wire_bytes);
    txs = !expected + sum (fun o -> o.Ct.retransmissions + o.Ct.sack_retransmissions);
    heap_mb = float_of_int (st1.Gc.heap_words * (Sys.word_size / 8)) /. 1e6;
  }

(* Simulated time at which the receiver verified each transfer's last
   TPDU, read from a trace ring.  The run itself lasts until the
   receiver's idle-state deadline drains ([state_ttl]), so [sim_time]
   says nothing about how fast the data arrived. *)
let completion_times (t : Gen.transfer) =
  Array.map
    (fun r ->
      let sink = Obs.Trace.ring ~capacity:(1 lsl 16) in
      Obs.Trace.set_sink sink;
      ignore (Gen.run_transfer t r);
      Obs.Trace.set_sink Obs.Trace.null;
      List.fold_left
        (fun acc (time, ev) ->
          match ev with Obs.Trace.Verify_done _ -> Float.max acc time | _ -> acc)
        0.0 (Obs.Trace.ring_contents sink))
    t.runs

(* The self-test: one transfer sends data that differs in one byte from
   the data the check expects, through the whole lossy path, and the
   delivery check must report the TPDU.  (A byte damaged on the wire
   would be caught by WSC-2 and retransmitted, so the delivered data
   would be right.) *)
let check_trips (t : Gen.transfer) =
  let sim_seed, data = t.runs.(0) in
  let sent = Bytes.copy data in
  let at = Bytes.length sent / 2 in
  Bytes.set sent at (Char.chr (Char.code (Bytes.get sent at) lxor 0xFF));
  let o = Gen.run_transfer t (sim_seed, sent) in
  (check_delivery t ~data ~delivered:o.Ct.delivered ~o).failed > 0
