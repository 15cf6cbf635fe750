module CT = Transport.Chunk_transport
module Persist = Transport.Persist

include Driver_types

(* The one mutation table: each mode's name, how it is built from its
   period (a periodic mode is written [name:N], the rest take none), and
   what it injects. *)
let fixed m = function None -> Some m | Some _ -> None
let periodic f = Option.map f

let mutations =
  [
    ("none", fixed No_mutation, "no injected bug");
    ( "flip",
      periodic (fun n -> Flip_every n),
      "XOR a byte of every Nth packet" );
    ("dup", periodic (fun n -> Dup_every n), "deliver every Nth packet twice");
    ("drop", periodic (fun n -> Drop_every n), "swallow every Nth packet");
    ("corrupt-restore", fixed Corrupt_restore, "a corrupted crash snapshot");
    ( "overlap-clobber",
      fixed Overlap_clobber,
      "a validly-sealed forged TPDU that clobbers verified bytes" );
    ( "shed-clobber",
      fixed Shed_clobber,
      "a stack that sheds a TPDU the schedule declares mandatory" );
    ( "byz-clobber",
      fixed Byz_clobber,
      "a stack whose byzantine quarantine is disabled" );
  ]

let mutation_names =
  List.map
    (fun (name, make, doc) ->
      ((if make None = None then name ^ ":N" else name), doc))
    mutations

let period = function
  | Flip_every n | Dup_every n | Drop_every n -> Some n
  | No_mutation | Corrupt_restore | Overlap_clobber | Shed_clobber
  | Byz_clobber ->
      None

let mutation_to_string m =
  let name, _, _ =
    List.find (fun (_, make, _) -> make (period m) = Some m) mutations
  in
  match period m with
  | Some n -> Printf.sprintf "%s:%d" name n
  | None -> name

let mutation_of_string str =
  let find name period =
    List.find_map
      (fun (n, make, _) -> if n = name then make period else None)
      mutations
  in
  match String.split_on_char ':' str with
  | [ name ] -> find name None
  | [ name; n ] ->
      Option.bind (int_of_string_opt n) (fun n -> find name (Some n))
  | _ -> None

(* The probe reads the process-wide registry, so a run's deltas are
   meaningful only while runs execute one at a time — which the driver
   guarantees (one engine, one domain).  The occupancy gauge is zeroed
   and re-marked at run start so the high-water mark read at run end
   belongs to this run's governor alone. *)
let mp_passed = Obs.Metrics.counter "edc_tpdus_passed_total"
let mp_acks = Obs.Metrics.counter "transport_acks_total"
let mp_occ = Obs.Metrics.gauge "governor_occupancy_bytes"

let probe_start () =
  if Obs.enabled then begin
    Obs.Metrics.set mp_occ 0;
    Obs.Metrics.mark mp_occ
  end;
  (Obs.Metrics.value mp_passed, Obs.Metrics.value mp_acks)

let probe_end (passed0, acks0) =
  {
    mp_verified = Obs.Metrics.value mp_passed - passed0;
    mp_acked = Obs.Metrics.value mp_acks - acks0;
    mp_governor_peak = Obs.Metrics.gauge_max mp_occ;
  }

let horizon = Schedule.horizon

(* Everything on the forward side of the wire is common to the single-
   and multi-connection paths: door mutation, congestion dropper,
   gateway chain, multipath, plus the scheduled outage valve in front
   of it all. *)
type plumbing = {
  forward_send : bytes -> unit;
  door : bytes -> unit;  (** the raw receiver door (adversary injection) *)
  forward_stats : unit -> Netsim.Link.stats;
  dropper_stats : unit -> Netsim.Dropper.stats option;
  gateways_malformed : unit -> int;
}

let make_trec engine trace fmt =
  Printf.ksprintf
    (fun ev ->
      match trace with
      | Some t -> Trace.add t ~time:(Netsim.Engine.now engine) ev
      | None -> ())
    fmt

(* The endpoints' config.  The Shed_clobber mutation, part 1: both
   endpoints mis-classify TPDU 0 as expendable and (if the schedule did
   not already) arm the sender's shed policy.  Forcing the {e config}
   rather than the schedule is what makes the mutation survive the
   [shed=none] shrink transform — the oracle must catch it from the
   observed behaviour alone. *)
let config_of ~mutation s =
  let config = Schedule.config_of s in
  if mutation <> Shed_clobber then config
  else
    let base_classify = config.CT.classify in
    {
      config with
      CT.classify =
        (fun t_id ->
          if t_id = 0 then Labelling.Significance.Sheddable 1
          else base_classify t_id);
      shed_txs =
        (if config.CT.shed_txs > 0 then config.CT.shed_txs
         else if config.CT.give_up_txs > 1 then
           min 2 (config.CT.give_up_txs - 1)
         else 0);
    }

(* Part 2's door predicate: a packet carrying TPDU-0 payload (data or ED
   chunks).  Signal chunks pass — the shed signal itself must reach the
   receiver for the clobber to "succeed". *)
let carries_tid0_payload b =
  let open Labelling in
  match Wire.decode_packet b with
  | Error _ -> false
  | Ok chunks ->
      List.exists
        (fun c ->
          (Chunk.is_data c || Ctype.equal c.Chunk.header.Header.ctype Ctype.ed)
          && c.Chunk.header.Header.t.Ftuple.id = 0)
        chunks

let build_plumbing ~mutation ~trace (s : Schedule.t) engine to_receiver_raw =
  let trec fmt = make_trec engine trace fmt in
  let door_count = ref 0 in
  let to_receiver b =
    incr door_count;
    let n = !door_count in
    trec "rx packet #%d (%d bytes)" n (Bytes.length b);
    match mutation with
    | No_mutation | Corrupt_restore | Overlap_clobber | Byz_clobber ->
        to_receiver_raw b
    | Shed_clobber ->
        if carries_tid0_payload b then
          trec "MUTATION swallow TPDU-0 packet #%d" n
        else to_receiver_raw b
    | Flip_every k when k > 0 && n mod k = 0 ->
        trec "MUTATION flip byte of packet #%d" n;
        let b = Bytes.copy b in
        let i = 50 mod Bytes.length b in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10));
        to_receiver_raw b
    | Dup_every k when k > 0 && n mod k = 0 ->
        trec "MUTATION duplicate packet #%d" n;
        to_receiver_raw b;
        to_receiver_raw b
    | Drop_every k when k > 0 && n mod k = 0 ->
        trec "MUTATION drop packet #%d" n
    | Flip_every _ | Dup_every _ | Drop_every _ -> to_receiver_raw b
  in
  (* Congestion-drop element just before the receiver.  Doomed-TPDU
     memory must not outlive a retransmission round, or the dropper
     black-holes a TPDU forever; resetting on the first arrival after an
     RTO-sized quiet period keeps the simulation event-driven (a
     repeating reset timer would never let the queue drain). *)
  let dropper, after_gateways =
    match s.dropper with
    | None -> (None, to_receiver)
    | Some { drop_mode; drop_loss } ->
        let d =
          Netsim.Dropper.create ~mode:drop_mode
            ~sheddable:(fun t_id -> Schedule.sheddable_tid s ~t_id)
            ~rng:(Netsim.Rng.split (Netsim.Engine.rng engine))
            ~loss:drop_loss ~forward:to_receiver ()
        in
        let last_reset = ref 0.0 in
        ( Some d,
          fun b ->
            let now = Netsim.Engine.now engine in
            if now -. !last_reset > s.rto then begin
              last_reset := now;
              Netsim.Dropper.reset_epoch d
            end;
            Netsim.Dropper.on_packet d b )
  in
  (* Gateway chain, built back to front; each re-envelopes for its own
     outgoing link.  Batching gateways get a one-shot flush scheduled
     per arrival so held chunks always drain. *)
  let gws = ref [] in
  let first_hop =
    List.fold_left
      (fun downstream (g : Schedule.gateway) ->
        let out_link =
          Netsim.Link.create engine ~rate_bps:s.rate_bps ~delay:s.delay
            ~mtu:g.gw_mtu ~deliver:downstream ()
        in
        let gw =
          Netsim.Gateway.create ~policy:g.gw_policy ~flush_batch:g.gw_batch
            ~forward:(fun b -> ignore (Netsim.Link.send out_link b))
            ~out_mtu:g.gw_mtu ()
        in
        gws := gw :: !gws;
        fun b ->
          Netsim.Gateway.on_packet gw b;
          if g.gw_batch > 1 then
            Netsim.Engine.schedule engine ~delay:0.002 (fun () ->
                Netsim.Gateway.flush gw))
      after_gateways (List.rev s.gateways)
  in
  let spread =
    match s.spread with
    | Schedule.Round_robin -> Netsim.Multipath.Round_robin
    | Schedule.Random_path -> Netsim.Multipath.Random
    | Schedule.Route_change t -> Netsim.Multipath.Route_change t
  in
  let forward =
    Netsim.Multipath.create engine ~paths:s.paths ~rate_bps:s.rate_bps
      ~delay:s.delay ~skew:s.skew ~jitter:s.jitter ~mtu:s.mtu ~loss:s.loss
      ~corrupt:s.corrupt ~duplicate:s.duplicate ~spread ~deliver:first_hop ()
  in
  let into_multipath b = ignore (Netsim.Multipath.send forward b) in
  (* The scheduled forward outage sits between the sender and the wire:
     during the window packets are discarded (dead path) or held and
     replayed in order at resume (pausing link). *)
  let forward_send =
    match s.outage with
    | None -> into_multipath
    | Some o ->
        let valve =
          Netsim.Outage.create engine
            ~mode:(if o.Schedule.out_hold then Netsim.Outage.Hold
                   else Netsim.Outage.Drop)
            ~start:o.Schedule.out_start ~duration:o.Schedule.out_duration
            ~deliver:into_multipath ()
        in
        fun b -> Netsim.Outage.send valve b
  in
  {
    forward_send;
    door = to_receiver_raw;
    forward_stats = (fun () -> Netsim.Multipath.aggregate_stats forward);
    dropper_stats = (fun () -> Option.map Netsim.Dropper.stats dropper);
    gateways_malformed =
      (fun () ->
        List.fold_left
          (fun acc gw ->
            acc + (Netsim.Gateway.stats gw).Netsim.Gateway.malformed)
          0 !gws);
  }

(* The reverse path, with the optional ACK black hole in front of it. *)
let build_reverse ~trace (s : Schedule.t) engine deliver =
  let trec fmt = make_trec engine trace fmt in
  let reverse =
    Netsim.Link.create engine ~name:"ack" ~rate_bps:1e9 ~delay:s.delay
      ~mtu:s.mtu
      ~deliver:(fun b ->
        trec "ack packet (%d bytes)" (Bytes.length b);
        deliver b)
      ()
  in
  let into_link b = ignore (Netsim.Link.send reverse b) in
  match s.ack_blackhole with
  | None -> into_link
  | Some (start, duration) ->
      let valve =
        Netsim.Outage.create engine ~mode:Netsim.Outage.Drop ~start ~duration
          ~deliver:into_link ()
      in
      fun b -> Netsim.Outage.send valve b

(* {2 Crash injection}

   A crash drops the endpoint's in-memory state and every packet that
   arrives during the down window; the restart rebuilds the endpoint
   from the persisted snapshot + journal.  One harness does this for
   both endpoint shapes — the single receiver and the demultiplexer —
   driving each through the record below. *)

type 'e endpoint = {
  name : string;  (* in trace lines *)
  empty : Persist.endpoint_image;  (* what recovery starts from *)
  quota_elems : int;
  export : 'e -> Persist.endpoint_image;
  restore : Persist.endpoint_image -> 'e option;
      (* [None] on an image of the other endpoint shape *)
  reannounce : 'e -> unit;
  quiesce : 'e -> unit;  (* what a crash does to the live instance *)
  stats : 'e -> CT.Rx_stats.t;
  verifier : 'e -> Edc.Verifier.stats;
  fastpath : 'e -> Transport.Flowcache.stats;
  governor : 'e -> Transport.Governor.stats;
}

(* The live endpoint instance, its crash valve and persist store, and
   the per-run crash bookkeeping: counters the oracle's recovery checks
   read, plus the statistics of every endpoint incarnation the run went
   through (a restored instance restarts its own at zero), folded in by
   [absorb] at each crash and once at the end of the run. *)
type 'e harness = {
  live : 'e option ref;
  store : Persist.Store.t;
  persist : (Persist.event -> unit) option;
  valve : Netsim.Blackout.t;
  mutable crashes : int;
  mutable restores : int;
  mutable bad : int;  (* recovery-safety probe failures *)
  mutable over_budget : int;
  mutable roundtrip : int;
  mutable corrupted : bool;  (* Corrupt_restore already applied *)
  mutable rx : CT.Rx_stats.t;
  mutable verifier : Edc.Verifier.stats;
  mutable fastpath : Transport.Flowcache.stats;
  mutable high_water : int;  (* governor high water, max over all *)
}

(* A crashed endpoint neither receives nor buffers: the valve in front
   of [ingest] discards everything that arrives at the door inside a
   crash window. *)
let harness engine (s : Schedule.t) ~ingest =
  let live = ref None in
  let store = Persist.Store.create () in
  {
    live;
    store;
    persist =
      (if s.Schedule.crashes <> [] then
         Some (fun ev -> Persist.Store.append store ev)
       else None);
    valve =
      Netsim.Blackout.create engine
        ~windows:
          (List.map
             (fun (c : Schedule.crash) ->
               ( c.Schedule.cr_time,
                 c.Schedule.cr_time +. c.Schedule.cr_restart ))
             s.Schedule.crashes)
        ~deliver:(fun b -> match !live with Some e -> ingest e b | None -> ())
        ();
    crashes = 0;
    restores = 0;
    bad = 0;
    over_budget = 0;
    roundtrip = 0;
    corrupted = false;
    rx = CT.Rx_stats.zero ();
    verifier = Edc.Verifier.zero_stats;
    fastpath = Transport.Flowcache.zero_stats;
    high_water = 0;
  }

let absorb h ep e =
  h.rx <- CT.Rx_stats.add h.rx (ep.stats e);
  h.verifier <- Edc.Verifier.add_stats h.verifier (ep.verifier e);
  h.fastpath <- Transport.Flowcache.add_stats h.fastpath (ep.fastpath e);
  h.high_water <- max h.high_water (ep.governor e).Transport.Governor.high_water

(* The Corrupt_restore mutation: flip one byte that the image claims is
   already {e verified}.  Verified bytes are exactly the ones recovery
   must preserve faithfully — their TPDUs sit in the ledger, so the
   sender will never retransmit them and no later traffic can heal the
   damage.  Returns [None] when the image holds no verified byte yet
   (the caller retries at the next restore). *)
let corrupt_receiver_image ~elem_size (ri : Persist.receiver_image) =
  match ri.Persist.ri_verified with
  | [] -> None
  | (vs, _) :: _ ->
      let rec go = function
        | [] -> None
        | (sn, data) :: rest ->
            let elems = Bytes.length data / elem_size in
            if vs >= sn && vs < sn + elems then begin
              let data = Bytes.copy data in
              let i = (vs - sn) * elem_size in
              Bytes.set data i
                (Char.chr (Char.code (Bytes.get data i) lxor 0x01));
              Some ((sn, data) :: rest)
            end
            else Option.map (fun tl -> (sn, data) :: tl) (go rest)
      in
      Option.map
        (fun placed -> { ri with Persist.ri_placed = placed })
        (go ri.Persist.ri_placed)

let corrupt_image ~elem_size (img : Persist.endpoint_image) =
  match img with
  | Persist.Single si ->
      Option.map
        (fun rx -> Persist.Single { si with Persist.s_rx = rx })
        (corrupt_receiver_image ~elem_size si.Persist.s_rx)
  | Persist.Multi conns ->
      let rec go = function
        | [] -> None
        | (c : Persist.conn_image) :: rest -> (
            match
              Option.bind c.Persist.ci_live (corrupt_receiver_image ~elem_size)
            with
            | Some rx -> Some ({ c with Persist.ci_live = Some rx } :: rest)
            | None -> Option.map (fun tl -> c :: tl) (go rest))
      in
      Option.map (fun cs -> Persist.Multi cs) (go conns)

(* Recovery-safety probe on a freshly restored endpoint's re-export: a
   T.ID both in the ledger and among the in-flight verifier images means
   the endpoint would verify (and deliver) a TPDU it already promised
   was done — double delivery waiting to happen.  Counts the receivers
   (one per live connection) that clash. *)
let ledger_clashes img =
  let clash ~acked (ri : Persist.receiver_image) =
    List.exists
      (fun (ti : Edc.Verifier.tpdu_image) ->
        List.mem ti.Edc.Verifier.ti_t_id acked)
      ri.Persist.ri_tpdus
  in
  match img with
  | Persist.Single si ->
      Bool.to_int (clash ~acked:si.Persist.s_acked si.Persist.s_rx)
  | Persist.Multi conns ->
      List.length
        (List.filter
           (fun (ci : Persist.conn_image) ->
             match ci.Persist.ci_live with
             | Some ri -> clash ~acked:ci.Persist.ci_acked ri
             | None -> false)
           conns)

(* Snapshots are scheduled up front at k·snap_period for every k that
   lands before the last crash (later ones could never be consulted),
   so the store never re-arms itself and cannot keep the engine alive. *)
let schedule_snapshots engine (s : Schedule.t) store export_now =
  if s.Schedule.crashes <> [] && s.Schedule.snap_period > 0.0 then begin
    let last =
      List.fold_left
        (fun acc (c : Schedule.crash) -> Float.max acc c.Schedule.cr_time)
        0.0 s.Schedule.crashes
    in
    let k = ref 1 in
    while float_of_int !k *. s.Schedule.snap_period <= last do
      let at = float_of_int !k *. s.Schedule.snap_period in
      Netsim.Engine.schedule engine ~delay:at (fun () ->
          match export_now () with
          | Some img -> Persist.Store.snapshot store img
          | None -> ());
      incr k
    done
  end

(* Make [first] the live instance and schedule the run's snapshots and
   crash/restart events.  A restart recovers the persisted image, checks
   the codec round trip, applies the Corrupt_restore mutation, restores
   the endpoint, and then probes it: the re-export must reproduce the
   image, the ledger must not clash with in-flight state, the governor
   must fit the budget.  Only then is the endpoint reannounced. *)
let arm_crashes h ep engine (s : Schedule.t) ~mutation ~trace first =
  let trec fmt = make_trec engine trace fmt in
  h.live := Some first;
  schedule_snapshots engine s h.store (fun () ->
      Option.map ep.export !(h.live));
  let restore_now (c : Schedule.crash) =
    let t0 = Unix.gettimeofday () in
    match
      Persist.Store.recover ~elem_size:s.Schedule.elem_size
        ~quota_elems:ep.quota_elems ~empty:ep.empty h.store
    with
    | Error msg ->
        h.bad <- h.bad + 1;
        trec "RESTORE failed: %s" msg
    | Ok (img, torn) -> (
        if torn then trec "RESTORE journal torn, tail discarded";
        (* The codec must be a fixpoint on every image it produced
           itself; a re-encode that fails to decode back to the same
           value means the snapshot format lies about something. *)
        if Persist.decode_endpoint (Persist.encode_endpoint img) <> Ok img
        then h.roundtrip <- h.roundtrip + 1;
        let img =
          if mutation = Corrupt_restore && not h.corrupted then
            match corrupt_image ~elem_size:s.Schedule.elem_size img with
            | Some img' ->
                h.corrupted <- true;
                trec "MUTATION corrupt restored image";
                img'
            | None -> img
          else img
        in
        match ep.restore img with
        | None -> h.bad <- h.bad + 1
        | Some e ->
            if Obs.enabled then
              Obs.Metrics.observe_s Persist.m_recovery
                (Unix.gettimeofday () -. t0);
            (* Re-export must reproduce the image (structural round
               trip), unless the restore itself evicted, displaced or
               collected state — then the budget legitimately trimmed
               the image. *)
            let re = ep.export e in
            let st = ep.stats e in
            if
              st.CT.Rx_stats.evictions = 0
              && st.CT.Rx_stats.displaced_conns = 0
              && st.CT.Rx_stats.conn_gcs = 0
              && re <> img
            then h.roundtrip <- h.roundtrip + 1;
            h.bad <- h.bad + ledger_clashes re;
            if
              s.Schedule.state_budget > 0
              && (ep.governor e).Transport.Governor.accounted_bytes
                 > s.Schedule.state_budget
            then h.over_budget <- h.over_budget + 1;
            h.restores <- h.restores + 1;
            ep.reannounce e;
            h.live := Some e;
            trec "RESTART %s after %.4fs down" ep.name c.Schedule.cr_restart)
  in
  List.iter
    (fun (c : Schedule.crash) ->
      Netsim.Engine.schedule engine ~delay:c.Schedule.cr_time (fun () ->
          match !(h.live) with
          | None -> ()
          | Some e ->
              h.crashes <- h.crashes + 1;
              trec "CRASH %s, down %.4fs" ep.name c.Schedule.cr_restart;
              absorb h ep e;
              ep.quiesce e;
              h.live := None);
      Netsim.Engine.schedule engine
        ~delay:(c.Schedule.cr_time +. c.Schedule.cr_restart)
        (fun () -> match !(h.live) with None -> restore_now c | Some _ -> ()))
    s.Schedule.crashes

(* At the end of a run: the final endpoint incarnation (the first one,
   if the run ended while crashed) with its statistics folded in, and
   the observation fields the harness, the plumbing, the metrics probe
   and the senders determine alike on both paths — each path overrides
   the rest. *)
let observe h ep first engine p probe0 senders =
  let e = match !(h.live) with Some e -> e | None -> first in
  absorb h ep e;
  let sum f = List.fold_left (fun acc tx -> acc + f tx) 0 senders in
  ( e,
    {
      ok = false;
      complete = false;
      gave_up = false;
      finished = false;
      delivered = Bytes.empty;
      delivered_elems = 0;
      retransmissions = sum CT.Sender.retransmissions;
      sack_retransmissions = sum CT.Sender.sack_retransmissions;
      packets_sent = sum CT.Sender.packets_sent;
      verifier = h.verifier;
      verifier_in_flight = 0;
      stashed_tpdus = 0;
      engine_pending = Netsim.Engine.pending engine;
      sim_time = Netsim.Engine.now engine;
      forward = p.forward_stats ();
      dropper = p.dropper_stats ();
      gateways_malformed = p.gateways_malformed ();
      rx_stats = h.rx;
      aborts_sent = sum CT.Sender.aborts_sent;
      sheds_sent = sum CT.Sender.sheds_sent;
      shed_spans = [];
      state_high_water = h.high_water;
      state_accounted = (ep.governor e).Transport.Governor.accounted_bytes;
      flood_injected = 0;
      rtt_samples = sum CT.Sender.rtt_samples;
      max_txs_at_rtt_sample =
        List.fold_left
          (fun acc tx -> max acc (CT.Sender.max_txs_at_rtt_sample tx))
          0 senders;
      final_rto = 0.0;
      crashes_injected = h.crashes;
      restores = h.restores;
      recovery_bad = h.bad;
      restore_over_budget = h.over_budget;
      roundtrip_failures = h.roundtrip;
      snapshots_taken = Persist.Store.snapshots_taken h.store;
      journal_records = Persist.Store.journal_records h.store;
      multi = None;
      metrics = probe_end probe0;
      overlap_injected = 0;
      fastpath_stats = h.fastpath;
      byz = None;
      counterfactuals = [];
    } )

(* The Overlap_clobber mutation: a forged TPDU with a {e correct} WSC-2
   seal over divergent bytes, covering exactly the first data chunk's
   connection range and injected ahead of it.  The forged TPDU verifies
   first and locks its bytes under first-verified-wins; the real TPDU
   still passes its own parity over its own chunks, so the receiver
   completes with the forged bytes in that window — the data mismatch
   the oracle must catch.  Forging it requires authoring a {e valid}
   seal, which no honest network element can do: that is what makes
   this a stack-bug mutation rather than an adversary mode. *)
let clobber_tid_base = 900_000

let forge_clobber b =
  let open Labelling in
  match Wire.decode_packet b with
  | Error _ -> None
  | Ok chunks -> (
      match List.find_opt Chunk.is_data chunks with
      | None -> None
      | Some c -> (
          let h = c.Chunk.header in
          let payload =
            Bytes.init (Bytes.length c.Chunk.payload) (fun i ->
                Char.chr (Char.code (Bytes.get c.Chunk.payload i) lxor 0xFF))
          in
          match
            Chunk.data ~size:h.Header.size
              ~c:
                (Ftuple.v ~id:h.Header.c.Ftuple.id ~sn:h.Header.c.Ftuple.sn
                   ())
              ~t:(Ftuple.v ~st:true ~id:clobber_tid_base ~sn:0 ())
              ~x:(Ftuple.v ~id:clobber_tid_base ~sn:0 ())
              payload
          with
          | Error _ -> None
          | Ok d -> (
              match Edc.Encoder.seal [ d ] with
              | Error _ -> None
              | Ok ed -> (
                  match (Wire.encode_packet [ d ], Wire.encode_packet [ ed ])
                  with
                  | Ok p1, Ok p2 -> Some [ p1; p2 ]
                  | _ -> None))))

(* Every schedule is delivered through [ingest]; a multi-connection
   schedule without the fast path gets a capacity-0 connection cache,
   the cache-off reference the [fastpath-coherence] row compares a
   fastpath run against.  A single receiver has no cache. *)
let reference_slots (s : Schedule.t) =
  if s.Schedule.fastpath then None else Some 0

let run_single ~mutation ~trace ~overlap_salt (s : Schedule.t) =
  let config = config_of ~mutation s in
  let data = Schedule.data_of s in
  let engine = Netsim.Engine.create ~seed:s.seed () in
  let trec fmt = make_trec engine trace fmt in
  let sender = ref None in
  let h = harness engine s ~ingest:CT.Receiver.ingest in
  (* The overlap adversary taps the door (before its own injections, so
     it never feeds on itself) and injects straight past the tap. *)
  let overlapper = ref None in
  let clobbered = ref false in
  let to_receiver_raw b =
    (match !overlapper with
    | Some o -> Netsim.Overlapper.observe o b
    | None -> ());
    (if mutation = Overlap_clobber && not !clobbered then
       match forge_clobber b with
       | Some pkts ->
           clobbered := true;
           trec "MUTATION forged clobber TPDU ahead of packet";
           List.iter (Netsim.Blackout.send h.valve) pkts
       | None -> ());
    Netsim.Blackout.send h.valve b
  in
  let p = build_plumbing ~mutation ~trace s engine to_receiver_raw in
  (match s.Schedule.overlap with
  | None -> ()
  | Some o ->
      overlapper :=
        Some
          (Netsim.Overlapper.create engine
             ~seed:(s.seed lxor 0x0A51A9 lxor overlap_salt)
             ~rate:o.Schedule.ov_rate ~stop:o.Schedule.ov_stop
             ~dup:o.Schedule.ov_dup ~forge:o.Schedule.ov_forge
             ~resplit:o.Schedule.ov_resplit
             ~inject:(fun b -> Netsim.Blackout.send h.valve b)
             ()));
  let probe0 = probe_start () in
  let reverse_send =
    build_reverse ~trace s engine (fun b ->
        match !sender with Some t -> CT.Sender.on_packet t b | None -> ())
  in
  let expected_elems =
    CT.expected_elements config ~data_len:s.Schedule.data_len
  in
  let ep =
    {
      name = "receiver";
      empty =
        Persist.Single
          {
            Persist.s_acked = [];
            s_rx = Persist.empty_receiver ~conn:config.CT.conn_id;
          };
      quota_elems = expected_elems;
      export =
        (fun rx ->
          Persist.Single
            {
              Persist.s_acked = CT.Receiver.acked_tids rx;
              s_rx = CT.Receiver.export rx;
            });
      restore =
        (function
        | Persist.Single si ->
            Some
              (CT.Receiver.restore engine config ?persist:h.persist
                 ~send_ack:reverse_send
                 ~capacity:(`Exact expected_elems)
                 si.Persist.s_rx ~acked_tids:si.Persist.s_acked)
        | Persist.Multi _ -> None);
      reannounce = CT.Receiver.reannounce;
      quiesce = CT.Receiver.quiesce;
      stats = CT.Receiver.stats;
      verifier = CT.Receiver.verifier_stats;
      fastpath = (fun _ -> Transport.Flowcache.zero_stats);
      governor = CT.Receiver.governor_stats;
    }
  in
  let rx =
    CT.Receiver.create engine config ?persist:h.persist ~send_ack:reverse_send
      ~capacity:(`Exact expected_elems) ()
  in
  arm_crashes h ep engine s ~mutation ~trace rx;
  let tx = CT.Sender.create engine config ~send:p.forward_send ~data () in
  sender := Some tx;
  CT.Sender.start tx;
  Netsim.Engine.run ~until:horizon engine;
  let rx, o = observe h ep rx engine p probe0 [ tx ] in
  let delivered = CT.Receiver.contents rx in
  let n = Bytes.length data in
  let shed_spans = CT.Receiver.shed_spans rx in
  (* Byte-exact outside the honoured shed spans; the oracle separately
     checks that every observed shed was contractually permitted. *)
  let ok =
    (not (CT.Sender.gave_up tx))
    && CT.Receiver.complete rx
    && Bytes.length delivered >= n
    &&
    match shed_spans with
    | [] -> Bytes.equal (Bytes.sub delivered 0 n) data
    | spans ->
        CT.equal_outside_sheds ~elem_size:s.Schedule.elem_size ~spans
          ~expected:data ~delivered
  in
  trec "run end: ok=%b pending=%d" ok (Netsim.Engine.pending engine);
  {
    o with
    ok;
    complete = CT.Receiver.complete rx;
    gave_up = CT.Sender.gave_up tx;
    finished = CT.Sender.finished tx;
    delivered;
    delivered_elems = CT.Receiver.delivered_elems rx;
    (* Whole-epoch counts: pass totals carry across restarts via
       [epoch_passes]; the other counters are accumulated over every
       receiver instance the run went through. *)
    verifier =
      {
        h.verifier with
        Edc.Verifier.tpdus_passed = CT.Receiver.epoch_passes rx;
      };
    verifier_in_flight = CT.Receiver.verifier_in_flight rx;
    stashed_tpdus = CT.Receiver.stashed_tpdus rx;
    shed_spans;
    final_rto = CT.Sender.current_rto tx;
    overlap_injected =
      (match !overlapper with
      | Some o -> (Netsim.Overlapper.stats o).Netsim.Overlapper.injected
      | None -> 0);
  }

(* T.ID spaces of successive epochs of one connection must be disjoint
   (a stale full-TPDU retransmission from a closed epoch must never be
   mistakable for new-epoch data). *)
let epoch_tid_stride = 200_000

(* One (connection, epoch) transfer as the driver-side endpoint sees
   it. *)
type ep = {
  ep_conn : int;
  ep_epoch : int;
  mutable ep_tx : CT.Sender.t option;
  mutable ep_done : bool;
  mutable ep_gave_up : bool;
}

let run_multi ~mutation ~trace (s : Schedule.t) =
  let config = config_of ~mutation s in
  let engine = Netsim.Engine.create ~seed:s.seed () in
  let trec fmt = make_trec engine trace fmt in
  let h = harness engine s ~ingest:Transport.Multi.ingest in
  (* The byzantine peer taps the door for its replay ring (before its
     own injections, so it never feeds on itself). *)
  let byzantine = ref None in
  let to_receiver_raw b =
    (match !byzantine with
    | Some bz -> Netsim.Byzantine.observe bz b
    | None -> ());
    Netsim.Blackout.send h.valve b
  in
  let p = build_plumbing ~mutation ~trace s engine to_receiver_raw in
  let probe0 = probe_start () in
  (* Reverse traffic is demultiplexed to the per-connection sender by
     the C.ID every control chunk carries. *)
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
  let reverse_send = build_reverse ~trace s engine demux_reverse in
  let quota_elems =
    CT.expected_elements config ~data_len:s.Schedule.data_len
  in
  let max_conns = s.Schedule.connections + 8 in
  (* The byz-clobber mutation switches the quarantine off wholesale —
     at creation and at every restore, so a crash cannot silently
     re-arm the defense mid-mutation. *)
  let anomaly_budget = if mutation = Byz_clobber then Some 0 else None in
  (* Archived epochs release their verifiers, so no meaningful verifier
     aggregate exists; the oracle's verifier-stats checks are
     single-path only. *)
  let ep =
    {
      name = "demultiplexer";
      empty = Persist.Multi [];
      quota_elems;
      export = (fun m -> Persist.Multi (Transport.Multi.export m));
      restore =
        (function
        | Persist.Multi conns ->
            Some
              (Transport.Multi.restore engine ~config ~quota_elems ~max_conns
                 ?persist:h.persist ?fastpath_slots:(reference_slots s)
                 ?anomaly_budget ~send_ack:reverse_send conns)
        | Persist.Single _ -> None);
      reannounce = Transport.Multi.reannounce;
      quiesce = Transport.Multi.teardown;
      stats = Transport.Multi.stats;
      verifier = (fun _ -> Edc.Verifier.zero_stats);
      fastpath =
        (fun m -> (Transport.Multi.fastpath_stats m).Transport.Multi.fp_conn);
      governor = Transport.Multi.governor_stats;
    }
  in
  let m =
    Transport.Multi.create engine ~config ~quota_elems ~max_conns
      ?persist:h.persist ?fastpath_slots:(reference_slots s)
      ?anomaly_budget ~send_ack:reverse_send ()
  in
  arm_crashes h ep engine s ~mutation ~trace m;
  (* Plan the (connection, epoch) transfers: every connection one epoch,
     connection 1 a second one when the schedule re-opens it. *)
  let eps =
    List.concat_map
      (fun i ->
        let conn = i + 1 in
        let epochs = if conn = 1 && s.Schedule.reopen then 2 else 1 in
        List.init epochs (fun e ->
            {
              ep_conn = conn;
              ep_epoch = e;
              ep_tx = None;
              ep_done = false;
              ep_gave_up = false;
            }))
      (List.init s.Schedule.connections Fun.id)
  in
  let start_ep ep =
    let tx =
      CT.Sender.create engine
        { config with CT.conn_id = ep.ep_conn }
        ~first_tid:(ep.ep_epoch * epoch_tid_stride)
        ~announce_open:true ~send:p.forward_send
        ~data:(Schedule.data_of_conn s ~conn:ep.ep_conn ~epoch:ep.ep_epoch)
        ()
    in
    ep.ep_tx <- Some tx;
    Hashtbl.replace senders ep.ep_conn tx;
    trec "start epoch (%d,%d)" ep.ep_conn ep.ep_epoch;
    CT.Sender.start tx
  in
  (* Epoch 0 of every connection starts together; later epochs start
     only after the previous one finished (their Open performs the
     close-and-reopen).  The explicit Close is sent once per connection
     after its {e final} epoch, so no Close is ever in flight while a
     reopen could race it. *)
  List.iter (fun ep -> if ep.ep_epoch = 0 then start_ep ep) eps;
  let close_sent : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let send_close conn =
    if not (Hashtbl.mem close_sent conn) then begin
      Hashtbl.add close_sent conn ();
      trec "close connection %d" conn;
      match
        Labelling.Wire.encode_packet
          [ Labelling.Connection.(signal_chunk ~conn_id:conn Close) ]
      with
      | Ok b -> p.forward_send b
      | Error _ -> ()
    end
  in
  let last_of conn =
    List.fold_left
      (fun acc ep -> if ep.ep_conn = conn then max acc ep.ep_epoch else acc)
      0 eps
  in
  let poll_dt = Float.max 0.002 (s.Schedule.rto /. 4.0) in
  (* A finished epoch hands over after one RTO of settling time, so its
     last retransmitted packets (and the next epoch's Open) cannot
     arrive out of order across the multipath skew. *)
  let rec poll () =
    List.iter
      (fun ep ->
        match ep.ep_tx with
        | Some tx when (not ep.ep_done) && CT.Sender.finished tx ->
            ep.ep_done <- true;
            ep.ep_gave_up <- CT.Sender.gave_up tx;
            trec "epoch (%d,%d) finished gave_up=%b" ep.ep_conn ep.ep_epoch
              ep.ep_gave_up;
            if ep.ep_epoch = last_of ep.ep_conn then send_close ep.ep_conn
            else begin
              let next =
                List.find
                  (fun e ->
                    e.ep_conn = ep.ep_conn && e.ep_epoch = ep.ep_epoch + 1)
                  eps
              in
              Netsim.Engine.schedule engine ~delay:s.Schedule.rto (fun () ->
                  start_ep next)
            end
        | _ -> ())
      eps;
    if List.exists (fun ep -> not ep.ep_done) eps then
      Netsim.Engine.schedule engine ~delay:poll_dt poll
  in
  Netsim.Engine.schedule engine ~delay:poll_dt poll;
  (* The flood adversary injects straight at the receiver door. *)
  let adversary =
    match s.Schedule.flood with
    | None -> None
    | Some f ->
        Some
          (Adversary.create engine ~seed:(s.seed lxor 0xF100D)
             ~rate:f.Schedule.flood_rate ~stop:f.Schedule.flood_stop
             ~legit_conns:(List.init s.Schedule.connections (fun i -> i + 1))
             ~bogus_conns:f.Schedule.flood_conns ~elem_size:s.Schedule.elem_size
             ~inject:p.door ())
  in
  (* The byzantine peer: own RNG (so removing it leaves every honest
     draw untouched), forward injection straight past its own tap at
     the door, reverse injection straight into the sender demux —
     bypassing the shared ACK link, so forged reverse traffic cannot
     perturb honest ACK serialisation.  Both properties together make
     the blast-radius re-run a true counterfactual. *)
  (match s.Schedule.byz with
  | None -> ()
  | Some b ->
      byzantine :=
        Some
          (Netsim.Byzantine.create engine ~seed:(s.seed lxor 0xB12A97)
             ~rate:b.Schedule.bz_rate ~stop:b.Schedule.bz_stop
             ~conns:b.Schedule.bz_conns
             ~legit_conns:(List.init s.Schedule.connections (fun i -> i + 1))
             ~elem_size:s.Schedule.elem_size ~acks:b.Schedule.bz_acks
             ~sheds:b.Schedule.bz_sheds ~replay:b.Schedule.bz_replay
             ~garbage:b.Schedule.bz_garbage
             ~inject:(fun b -> Netsim.Blackout.send h.valve b)
             ~inject_ack:demux_reverse ()));
  Netsim.Engine.run ~until:horizon engine;
  let txs = List.filter_map (fun ep -> ep.ep_tx) eps in
  let m, o = observe h ep m engine p probe0 txs in
  (* Join the driver-side epochs with the receiver-side reports. *)
  let mo_epochs =
    List.map
      (fun ep ->
        (* Join by epoch identity (the Open's announced first C.SN),
           not by list position: the receiver legitimately drops an
           epoch in which no TPDU ever verified (a fully-given-up
           transfer), which would shift every later epoch under a
           positional join. *)
        let reports = Transport.Multi.epochs m ~conn_id:ep.ep_conn in
        let want = Some (ep.ep_epoch * epoch_tid_stride) in
        let r =
          List.find_opt
            (fun (r : Transport.Multi.epoch_report) ->
              r.Transport.Multi.open_csn = want)
            reports
        in
        {
          e_conn = ep.ep_conn;
          e_epoch = ep.ep_epoch;
          e_gave_up = ep.ep_gave_up;
          e_complete =
            (match r with
            | Some r -> r.Transport.Multi.complete
            | None -> false);
          e_delivered =
            Option.map (fun r -> r.Transport.Multi.delivered) r;
        })
      eps
  in
  let epoch_ok e =
    let data = Schedule.data_of_conn s ~conn:e.e_conn ~epoch:e.e_epoch in
    let n = Bytes.length data in
    match e.e_delivered with
    | Some d when Bytes.length d >= n -> Bytes.equal (Bytes.sub d 0 n) data
    | Some _ | None -> false
  in
  let ok =
    List.for_all (fun e -> e.e_gave_up || (e.e_complete && epoch_ok e)) mo_epochs
    && List.for_all (fun ep -> ep.ep_done) eps
  in
  trec "run end: ok=%b pending=%d" ok (Netsim.Engine.pending engine);
  (* The endpoint-side view of the byzantine connections at quiescence.
     The quarantine ledger survives crashes (it is persisted per
     connection image), so [conn_stats] on the final incarnation is the
     whole run's story. *)
  let byz_report =
    Option.map
      (fun bz ->
        let stats cid = Transport.Multi.conn_stats m ~conn_id:cid in
        let view f cid = Option.fold ~none:0 ~some:f (stats cid) in
        {
          bo_stats = Netsim.Byzantine.stats bz;
          bo_conns =
            List.map
              (fun cid ->
                {
                  bc_conn = cid;
                  bc_epochs = view (fun cs -> cs.Transport.Multi.cs_epochs) cid;
                  bc_hist_bytes =
                    view (fun cs -> cs.Transport.Multi.cs_hist_bytes) cid;
                })
              (Netsim.Byzantine.conn_ids bz);
          bo_honest_quarantined =
            List.length
              (List.filter
                 (fun i ->
                   match stats (i + 1) with
                   | Some cs ->
                       cs.Transport.Multi.cs_quarantines > 0
                       || cs.Transport.Multi.cs_poisoned
                   | None -> false)
                 (List.init s.Schedule.connections Fun.id));
        })
      !byzantine
  in
  let first_epoch = List.hd mo_epochs in
  {
    o with
    ok;
    complete = List.for_all (fun e -> e.e_gave_up || e.e_complete) mo_epochs;
    gave_up = List.exists (fun e -> e.e_gave_up) mo_epochs;
    finished = List.for_all (fun ep -> ep.ep_done) eps;
    delivered =
      (match first_epoch.e_delivered with Some d -> d | None -> Bytes.empty);
    verifier_in_flight = Transport.Multi.live_in_flight m;
    stashed_tpdus = Transport.Multi.live_stashed m;
    flood_injected =
      (match adversary with
      | Some a -> Adversary.injected a
      | None -> 0);
    final_rto = s.Schedule.rto;
    multi =
      Some
        {
          mo_epochs;
          mo_live_conns = Transport.Multi.live_conns m;
        };
    byz = byz_report;
  }

(* The counterfactual re-runs a schedule calls for, each with the
   schedule it runs and its overlap-injection salt:
   - [Permuted]: a different overlap-injection seed, so the adversary's
     arrival order and mix over the same transfer are permuted —
     whatever the interleaving, a completed transfer must deliver
     byte-identical data;
   - [Byz_free]: the byzantine peer removed.  Its RNG and wire paths are
     disjoint from every honest draw, so the honest traffic is
     byte-identical and the honest per-epoch outcomes must agree;
   - [Cache_off]: the flow cache off, on a multi-connection schedule
     (a single receiver has no cache, so there the re-run would repeat
     the primary run).  Determinism makes the wire identical packet for
     packet, so any observable divergence is the cache's doing. *)
let reruns (s : Schedule.t) =
  List.filter_map Fun.id
    [
      (if s.Schedule.overlap <> None && not (Schedule.multi_mode s) then
         Some (Permuted, s, 0x7E12A5)
       else None);
      (if s.Schedule.byz <> None then Some (Byz_free, { s with byz = None }, 0)
       else None);
      (if s.Schedule.fastpath && Schedule.multi_mode s then
         Some (Cache_off, { s with Schedule.fastpath = false }, 0)
       else None);
    ]

let run ?(mutation = No_mutation) ?trace (s : Schedule.t) =
  (* A re-run keeps the primary run's endpoint shape even when its own
     schedule would qualify for the other one: the comparison must
     differ by the one thing the re-run changes, not by the endpoint. *)
  let exec ~trace ~overlap_salt s' =
    if Schedule.multi_mode s then run_multi ~mutation ~trace s'
    else run_single ~mutation ~trace ~overlap_salt s'
  in
  let o = exec ~trace ~overlap_salt:0 s in
  let counterfactual (cf_rerun, s', overlap_salt) =
    { cf_rerun; cf_run = exec ~trace:None ~overlap_salt s' }
  in
  { o with counterfactuals = List.map counterfactual (reruns s) }
