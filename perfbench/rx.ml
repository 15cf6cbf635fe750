(* The closed-loop receive path: one caller hands [Multi.ingest_batch]
   the next 32-packet batch only after the previous call returned. *)

module Multi = Transport.Multi

let counter = Obs.Metrics.counter
let c_passed = counter "edc_tpdus_passed_total"
let c_failed = counter "edc_tpdus_failed_total"
let h_touch = Obs.Metrics.histogram "governor_entry_bytes"

(* One endpoint, Opens applied.  The metric registry is process-global,
   so it is zeroed first and only one endpoint is alive at a time. *)
let endpoint (g : Gen.multi) =
  Obs.Metrics.reset_all ();
  let engine = Netsim.Engine.create () in
  let m =
    Multi.create engine ~config:g.config ~quota_elems:g.quota_elems
      ~max_conns:g.max_conns
      ~send_ack:(fun _ -> ())
      ()
  in
  Array.iter (Multi.ingest m) g.opens;
  m

type check = {
  expected : int;  (** TPDUs the stream carries to open connections *)
  failed : int;  (** of those, not verified and delivered byte-exact *)
  app_bytes : int;  (** bytes of the TPDUs delivered byte-exact *)
  problems : string list;
}

(* Byte-exact delivery against the generated stream, verifier verdicts
   from the edc counters, and — for streams that end with C.ST —
   complete epochs and no soft state left behind. *)
let check (g : Gen.multi) m =
  let problems = ref [] in
  let note s = problems := s :: !problems in
  let cur = ref (-1) and buf = ref Bytes.empty in
  let bad = ref 0 and good_bytes = ref 0 in
  Array.iter
    (fun (c, off, len) ->
      if c <> !cur then begin
        cur := c;
        buf :=
          match List.rev (Multi.epochs m ~conn_id:c) with
          | e :: _ ->
              if g.whole && not e.Multi.complete then
                note (Printf.sprintf "conn %d: epoch incomplete" c);
              e.Multi.delivered
          | [] -> Bytes.empty
      end;
      let d = !buf in
      if
        Bytes.length d >= off + len
        && Bytes.equal (Bytes.sub d off len) (Bytes.sub g.data.(c) off len)
      then good_bytes := !good_bytes + len
      else incr bad)
    g.regions;
  let expected = Array.length g.regions in
  let passed = Obs.Metrics.value c_passed and vfail = Obs.Metrics.value c_failed in
  if vfail > 0 then note (Printf.sprintf "%d verifier failures" vfail);
  if passed <> expected then
    note (Printf.sprintf "%d TPDUs verified, %d expected" passed expected);
  if g.whole then begin
    if Multi.live_in_flight m <> 0 then
      note (Printf.sprintf "live_in_flight %d" (Multi.live_in_flight m));
    if Multi.live_stashed m <> 0 then
      note (Printf.sprintf "live_stashed %d" (Multi.live_stashed m))
  end;
  let failed = min expected (max !bad (expected - passed)) in
  { expected; failed; app_bytes = !good_bytes; problems = List.rev !problems }

type rep = {
  wall_ns : float;  (** sum over the ingest_batch calls *)
  samples : float array;  (** ns per ingest_batch call *)
  minor : float;
  promoted : float;
  result : check;
  fastpath : Multi.fastpath_stats;
  governor : Transport.Governor.stats;
  counters : (string * int) list;  (** the metric registry after the run *)
  touches : int;  (** governor accounting steps *)
  heap_mb : float;  (** major heap size with the endpoint loaded *)
}

(* Feed every batch through a fresh endpoint.  With [~span], each call is
   recorded as a child span of that id.  The endpoint is dropped, not torn
   down: [Multi.teardown] is a crash, not part of the receive path. *)
let run ?span (g : Gen.multi) batches =
  let m = endpoint g in
  (* Start from a collected heap: the repetition pays for its own garbage,
     not for the previous repetition's endpoint. *)
  Gc.full_major ();
  let n = Array.length batches in
  let samples = Array.make n 0.0 in
  let st0 = Gc.quick_stat () in
  let mw0 = Gc.minor_words () in
  (match span with
  | None ->
      for i = 0 to n - 1 do
        let t0 = Clock.now_ns () in
        Multi.ingest_batch m (Array.unsafe_get batches i);
        Array.unsafe_set samples i (Clock.now_ns () -. t0)
      done
  | Some parent ->
      for i = 0 to n - 1 do
        let id = Span.fresh () in
        let t0 = Clock.now_ns () in
        Multi.ingest_batch m (Array.unsafe_get batches i);
        let t1 = Clock.now_ns () in
        Span.record ~id ~parent ~name:"transport.multi.ingest_batch" ~t0 ~t1
          ~count:(Array.length (Array.unsafe_get batches i));
        Array.unsafe_set samples i (t1 -. t0)
      done);
  let minor = Gc.minor_words () -. mw0 in
  let st1 = Gc.quick_stat () in
  let result = check g m in
  {
    wall_ns = Array.fold_left ( +. ) 0.0 samples;
    samples;
    minor;
    promoted = st1.Gc.promoted_words -. st0.Gc.promoted_words;
    result;
    fastpath = Multi.fastpath_stats m;
    governor = Multi.governor_stats m;
    counters = (Obs.Metrics.snapshot ()).Obs.Metrics.s_counters;
    touches = Obs.Metrics.hist_count h_touch;
    heap_mb = float_of_int (st1.Gc.heap_words * (Sys.word_size / 8)) /. 1e6;
  }

(* A copy of the stream with one payload byte flipped in a data chunk
   that reaches an open connection exactly once, so neither a duplicate
   nor a re-offer can mask the damage. *)
let corrupt (g : Gen.multi) =
  let seen = Hashtbl.create (Array.length g.packets) in
  Array.iter
    (fun p ->
      Hashtbl.replace seen p (1 + Option.value (Hashtbl.find_opt seen p) ~default:0))
    g.packets;
  let n = Array.length g.packets in
  let rec pick i =
    if i >= n then failwith "no packet eligible for the corruption self-test"
    else
      let p = g.packets.(i) in
      if
        Bytes.get p 0 = '\000'
        && Labelling.Wire.Scan.c_id p 0 <= g.max_conns
        && Hashtbl.find seen p = 1
      then i
      else pick (i + 1)
  in
  let i = pick (n / 2) in
  let packets = Array.copy g.packets in
  let p = Bytes.copy packets.(i) in
  let at = Labelling.Wire.header_size in
  Bytes.set p at (Char.chr (Char.code (Bytes.get p at) lxor 0xFF));
  packets.(i) <- p;
  { g with packets }
