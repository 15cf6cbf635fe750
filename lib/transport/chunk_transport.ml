open Labelling

type config = {
  conn_id : int;
  elem_size : int;
  tpdu_elems : int;
  frame_bytes : int;
  mtu : int;
  window : int;
  rto : float;
  rto_adaptive : bool;
  adaptive : bool;
  sack : bool;
  nack_delay : float;
  give_up_txs : int;
  state_budget : int;
  state_ttl : float;
  (* partial reliability: [classify] maps a T.ID to its significance
     class (both endpoints must agree — the class is part of the
     transfer contract, like the framing); [shed_txs > 0] arms the
     sender's congestion shed policy, abandoning a sheddable TPDU after
     that many transmissions instead of retransmitting to give-up *)
  classify : int -> Significance.t;
  shed_txs : int;
}

let default_config =
  {
    conn_id = 1;
    elem_size = 4;
    tpdu_elems = 512;
    frame_bytes = 1024;
    mtu = 1500;
    window = 8;
    rto = 0.05;
    rto_adaptive = false;
    adaptive = false;
    sack = false;
    nack_delay = 0.01;
    give_up_txs = 40;
    state_budget = 0;
    state_ttl = 60.0;
    classify = (fun _ -> Significance.Normal);
    shed_txs = 0;
  }

let validate_config c =
  if c.elem_size < 4 || c.elem_size mod 4 <> 0 then
    invalid_arg "Chunk_transport: elem_size must be a positive multiple of 4";
  if c.frame_bytes mod c.elem_size <> 0 then
    invalid_arg "Chunk_transport: frame_bytes must be a multiple of elem_size";
  if c.tpdu_elems < 1 || c.window < 1 then
    invalid_arg "Chunk_transport: tpdu_elems and window must be >= 1";
  if c.tpdu_elems > Edc.Invariant.max_tpdu_elems ~size:c.elem_size then
    invalid_arg "Chunk_transport: TPDU exceeds the error-detection invariant";
  if c.mtu <= Wire.header_size then
    invalid_arg "Chunk_transport: mtu cannot hold a chunk header";
  if c.give_up_txs < 1 then
    invalid_arg "Chunk_transport: give_up_txs must be >= 1";
  if c.state_ttl <= 0.0 then
    invalid_arg "Chunk_transport: state_ttl must be positive";
  if c.shed_txs < 0 then
    invalid_arg "Chunk_transport: shed_txs must be >= 0";
  if c.shed_txs > 0 && c.shed_txs >= c.give_up_txs then
    invalid_arg "Chunk_transport: shed_txs must be < give_up_txs"

(* Total elements the receiver will hold once the stream of [n] bytes is
   framed: only the final frame is padded to a whole element. *)
let expected_elements config ~data_len =
  let full = data_len / config.frame_bytes in
  let rem = data_len mod config.frame_bytes in
  (full * (config.frame_bytes / config.elem_size))
  + ((rem + config.elem_size - 1) / config.elem_size)

let ack_packet ~conn_id ~t_id =
  Wire.control_packet ~kind:Ctype.ack ~c_id:conn_id ~t_id 4

(* NACK payload: [u8 flags (bit0 = resend the ED chunk)]
   [u16 span count][count * (u32 t_sn, u32 len)]; at most 64 spans. *)
let max_nack_spans = 64

let nack_packet ~conn_id ~t_id ~need_ed ~spans =
  let count = Int.min max_nack_spans (List.length spans) in
  let b =
    Wire.control_packet ~kind:Ctype.nack ~c_id:conn_id ~t_id (3 + (8 * count))
  in
  let p = Wire.header_size in
  Bytes.set_uint8 b p (if need_ed then 1 else 0);
  Bytes.set_uint16_be b (p + 1) count;
  let rec put i = function
    | (sn, len) :: rest when i < count ->
        Bytes.set_int32_be b (p + 3 + (8 * i)) (Int32.of_int sn);
        Bytes.set_int32_be b (p + 7 + (8 * i)) (Int32.of_int len);
        put (i + 1) rest
    | _ -> ()
  in
  put 0 spans;
  b

(* Transport-level accounting.  The ACK counter is deliberately bumped
   at exactly the fresh-ACK site (first [Tpdu_verified Passed] for a
   T.ID): the conformance oracle's [metrics-verify-count] check relies
   on it tracking [edc_tpdus_passed_total] one-for-one. *)
let m_acks = Obs.Metrics.counter "transport_acks_total"
let m_reacks = Obs.Metrics.counter "transport_reacks_total"
let m_nacks = Obs.Metrics.counter "transport_nacks_total"
let m_rto_fires = Obs.Metrics.counter "transport_rto_fires_total"
let m_give_ups = Obs.Metrics.counter "transport_give_ups_total"
let m_aborts_sent = Obs.Metrics.counter "transport_aborts_sent_total"
let m_sheds_sent = Obs.Metrics.counter "transport_sheds_sent_total"
let m_sheds_received = Obs.Metrics.counter "transport_sheds_received_total"
let m_shed_bytes = Obs.Metrics.counter "transport_shed_bytes_total"
let m_tpdu_latency = Obs.Metrics.histogram "transport_tpdu_latency_us"
let m_rtt = Obs.Metrics.histogram "transport_rtt_us"
let m_backoff = Obs.Metrics.histogram "transport_rto_backoff_us"
let g_rto = Obs.Metrics.gauge "transport_rto_us"

let parse_nack chunk =
  let p = chunk.Chunk.payload in
  if Bytes.length p < 3 then Error "bad NACK"
  else begin
    let need_ed = Bytes.get_uint8 p 0 land 1 = 1 in
    let count = Bytes.get_uint16_be p 1 in
    if Bytes.length p <> 3 + (8 * count) then Error "bad NACK size"
    else begin
      let spans =
        List.init count (fun i ->
            ( Int32.to_int (Bytes.get_int32_be p (3 + (8 * i))) land 0xFFFF_FFFF,
              Int32.to_int (Bytes.get_int32_be p (7 + (8 * i))) land 0xFFFF_FFFF ))
      in
      Ok (need_ed, spans)
    end
  end

module Rx_stats = struct
  type t = {
    mutable nacks_sent : int;
    mutable reacks_sent : int;
    mutable evictions : int;
    mutable aborts_received : int;
    mutable sheds_received : int;
    mutable shed_elems : int;
    mutable sheds_refused : int;
    overlap : Placement.overlap_stats;
    mutable conn_gcs : int;
    mutable displaced_conns : int;
    mutable unknown_drops : int;
    mutable late_drops : int;
    mutable anomalies : int;
    mutable sig_damage : int;
    mutable quarantines : int;
    mutable quarantine_drops : int;
    mutable conns_poisoned : int;
  }

  let zero () =
    {
      nacks_sent = 0;
      reacks_sent = 0;
      evictions = 0;
      aborts_received = 0;
      sheds_received = 0;
      shed_elems = 0;
      sheds_refused = 0;
      overlap = Placement.zero_overlap_stats;
      conn_gcs = 0;
      displaced_conns = 0;
      unknown_drops = 0;
      late_drops = 0;
      anomalies = 0;
      sig_damage = 0;
      quarantines = 0;
      quarantine_drops = 0;
      conns_poisoned = 0;
    }

  let add a b =
    {
      nacks_sent = a.nacks_sent + b.nacks_sent;
      reacks_sent = a.reacks_sent + b.reacks_sent;
      evictions = a.evictions + b.evictions;
      aborts_received = a.aborts_received + b.aborts_received;
      sheds_received = a.sheds_received + b.sheds_received;
      shed_elems = a.shed_elems + b.shed_elems;
      sheds_refused = a.sheds_refused + b.sheds_refused;
      overlap = Placement.add_overlap_stats a.overlap b.overlap;
      conn_gcs = a.conn_gcs + b.conn_gcs;
      displaced_conns = a.displaced_conns + b.displaced_conns;
      unknown_drops = a.unknown_drops + b.unknown_drops;
      late_drops = a.late_drops + b.late_drops;
      anomalies = a.anomalies + b.anomalies;
      sig_damage = a.sig_damage + b.sig_damage;
      quarantines = a.quarantines + b.quarantines;
      quarantine_drops = a.quarantine_drops + b.quarantine_drops;
      conns_poisoned = a.conns_poisoned + b.conns_poisoned;
    }
end

module Receiver = struct
  (* Placement writes straight into the application buffer at the
     connection offset, so a corrupted C.SN that stays inside the window
     could clobber a region an {e already verified} TPDU owns — and
     nothing would ever rewrite it.  Placement is therefore gated on the
     TPDU's C.SN - T.SN delta being witnessed twice independently: once
     by a data chunk and once by the ED chunk, whose labels travel in a
     separate header (two data chunks are not independent — a gateway
     can split one corrupted chunk into several fragments that all
     inherit the same wrong delta).  Until the two agree, fresh data
     waits in a per-TPDU stash; the moment they agree it flushes.
     Disagreement is left to the verifier, which fails the TPDU so the
     identical-label retransmission starts a clean epoch.

     A stash entry reads its chunk, labels and payload, where it lies:
     in the packet it arrived in while that packet is being ingested (a
     view), in a header-inclusive copy of its own after that.  [settle]
     makes the copy, once per chunk, for every entry still stashed when
     the packet is done. *)
  type stashed = {
    mutable sbuf : bytes;
    mutable soff : int;  (* the chunk's (header's) offset in [sbuf] *)
    st_sn : int;  (* the fresh run: first T.SN ... *)
    selems : int;  (* ... and element count *)
  }

  (* The "not yet witnessed" delta: C.SN and T.SN are non-negative
     63-bit ints, so their difference never takes it. *)
  let unset = min_int

  (* A TPDU in flight.  Its pieces live differently: the corroboration
     record ([witnessed] and the fields after it) and [end_claim] (the
     last C.SN a C.ST bit claimed) go with a failed epoch;
     [first_arrival] survives that, so latency spans the retransmission,
     but not an eviction or abort; [nack_armed] outlives all of them
     until the gap timer next fires.  An empty record leaves the
     table. *)
  type live = {
    key : Governor.key;  (* this TPDU's account, built once *)
    mutable first_arrival : float;  (* [nan]: none *)
    mutable nack_armed : bool;
    mutable end_claim : int option;
    mutable witnessed : bool;  (* a data or ED chunk opened the record *)
    mutable delta_data : int;  (* C.SN - T.SN from data chunks, or [unset] *)
    mutable delta_ed : int;  (* C.SN - T.SN from the ED chunk, or [unset] *)
    mutable confirmed : bool;
    mutable stash : stashed list;  (* newest first *)
    mutable placed_runs : (int * int) list;
        (* (c_sn, elems) runs this TPDU has placed; locked as verified
           only if the TPDU passes *)
    mutable quarantine : (Chunk.t * int * int) list;
        (* (sub-chunk, c_sn, elems) whose bytes conflicted with
           unverified resident bytes (Placement's fresh-vs-fresh case):
           re-asserted by a verified write if this TPDU passes, dropped
           with the epoch otherwise *)
  }

  (* One TPDU's state in this epoch, found by its T.ID in one lookup.
     The connection's ledger ([acked]) says whether a TPDU is
     acknowledged, and is asked first; [Acked] only holds the re-ACK
     throttle clock of a TPDU re-ACKed at least once.  A [Shed] TPDU's
     late chunks are dropped; its clock is [neg_infinity] before the
     first re-ACK. *)
  type tpdu =
    | Live of live
    | Acked of { mutable last_reack : float }
    | Shed of { mutable last_reack : float }

  type t = {
    engine : Netsim.Engine.t;
    config : config;
    bus : Busmodel.t;
    send_ack : bytes -> unit;
    verifier : Edc.Verifier.t;
    placement : Placement.t;
    capacity : [ `Exact of int | `Quota of int ];
    governor : Governor.t;
    acked : (int, unit) Hashtbl.t;  (* ACK ledger; outlives the epoch *)
    tpdus : (int, tpdu) Hashtbl.t;
    (* element runs deliberately given up by the sender (Shed_tpdu):
       they count toward stream completion — the degradation contract —
       but never toward verified delivery *)
    shed_cover : Vreassembly.t;
    (* stream-end bookkeeping (`Quota mode): the C.ST bit names the
       connection's final element, but is believed only once the TPDU
       that carried it verifies — a forged or corrupted C.ST must not
       truncate the stream *)
    mutable end_confirmed : int option;
    (* element runs placed: each was available to the application the
       instant it arrived, so the element-delay summary is all zeros *)
    mutable instant_runs : int;
    tpdu_latency : Netsim.Stats.t;
    (* the receiver fields of [Rx_stats], kept inline so a receiver
       costs no extra record; [stats] assembles them *)
    mutable nacks_sent : int;
    mutable reacks_sent : int;
    mutable evictions : int;
    mutable aborts_received : int;
    mutable sheds_received : int;
    mutable shed_elems : int;
    mutable sheds_refused : int;
    (* crash recovery: [persist] receives one journal event per fresh
       ACK {e before} the ACK leaves (write-ahead — the receiver never
       promises bytes it has not made durable); [restored_passes] carries
       the verified-TPDU count across restarts so the epoch's archive
       gate survives a crash *)
    mutable persist : (Persist.event -> unit) option;
    mutable restored_passes : int;
    (* lowest T.ID freshly acknowledged this epoch (verified or
       shed-honoured), [max_int] before the first.  Under the
       monotone-label discipline this equals the epoch's first C.SN once
       the stream head is acknowledged — the epoch's identity recovered
       from the data labels alone, for epochs whose Open died in
       flight *)
    mutable ident_min : int;
    mutable scan : Wire.Scan.t;
        (* [ingest]'s, made by its first call: a receiver a demultiplexer
           feeds chunk by chunk never scans *)
    view : Wire.Scan.view;  (* the labels of the chunk being admitted *)
    tally : Placement.tally;  (* [Placement.place_tally]'s, between calls empty *)
    (* TPDUs that stashed a view of the packet being ingested; [settle]
       empties it *)
    mutable views : live list;
  }

  let no_scan = Wire.Scan.create ()

  let gov_key rx t_id = { Governor.conn = rx.config.conn_id; tpdu = t_id }

  let add_live rx t_id =
    let l =
      { key = gov_key rx t_id; first_arrival = nan; nack_armed = false;
        end_claim = None; witnessed = false; delta_data = unset;
        delta_ed = unset; confirmed = false; stash = []; placed_runs = [];
        quarantine = [] }
    in
    Hashtbl.replace rx.tpdus t_id (Live l);
    l

  (* [l], the record of [t_id], leaves the table once it holds nothing. *)
  let retire rx t_id l =
    if
      (not l.witnessed) && l.end_claim = None && (not l.nack_armed)
      && Float.is_nan l.first_arrival
    then Hashtbl.remove rx.tpdus t_id

  let witnessed rx t_id =
    match Hashtbl.find rx.tpdus t_id with
    | Live l -> l.witnessed
    | Acked _ | Shed _ -> false
    | exception Not_found -> false

  (* The placed bytes of element runs [(c_sn, elems)], as [(c_sn, bytes)]
     copies; runs outside the buffer are skipped. *)
  let copy_runs rx runs =
    let es = rx.config.elem_size in
    let buf = Placement.contents rx.placement in
    List.filter_map
      (fun (sn, len) ->
        let off = sn * es and n = len * es in
        if off >= 0 && n > 0 && off + n <= Bytes.length buf then
          Some (sn, Bytes.sub buf off n)
        else None)
      runs

  (* Forget [l]'s corroboration record, stash included, so that no view
     of it is copied when the packet is settled. *)
  let drop_corrob l =
    l.witnessed <- false;
    l.delta_data <- unset;
    l.delta_ed <- unset;
    l.confirmed <- false;
    l.stash <- [];
    l.placed_runs <- [];
    l.quarantine <- []

  (* TPDUs holding verifier or corroboration state. *)
  let tracked_ids rx =
    List.sort_uniq compare
      (Edc.Verifier.in_flight_ids rx.verifier
      @ Hashtbl.fold
          (fun k e acc ->
            match e with Live { witnessed = true; _ } -> k :: acc | _ -> acc)
          rx.tpdus [])

  (* Dispose of every piece of per-TPDU soft state but the gap timer's
     flag, which the timer clears itself at its next firing.  The
     governor's account is the caller's responsibility: the eviction
     callback has already been debited, the abort path has not. *)
  let drop_tpdu_state rx t_id =
    ignore (Edc.Verifier.abandon rx.verifier ~t_id);
    match Hashtbl.find rx.tpdus t_id with
    | Live l ->
        drop_corrob l;
        l.end_claim <- None;
        l.first_arrival <- nan;
        retire rx t_id l
    | Acked _ | Shed _ -> ()
    | exception Not_found -> ()

  let evict rx ~t_id =
    drop_tpdu_state rx t_id;
    rx.evictions <- rx.evictions + 1

  let create engine config ?(bus = Busmodel.create ()) ?governor ?acked
      ?persist ~send_ack ~capacity () =
    validate_config config;
    let capacity_elems =
      match capacity with `Exact n | `Quota n -> n
    in
    let governor, own_governor =
      match governor with
      | Some g -> (g, false)
      | None ->
          ( Governor.create ~budget_bytes:config.state_budget
              ~ttl:config.state_ttl (),
            true )
    in
    let rx =
      {
        engine;
        config;
        bus;
        send_ack;
        verifier = Edc.Verifier.create ();
        placement =
          Placement.create ~level:Placement.Conn ~base_sn:0 ~capacity_elems
            ~elem_size:config.elem_size;
        capacity;
        governor;
        acked = (match acked with Some t -> t | None -> Hashtbl.create 32);
        tpdus = Hashtbl.create 32;
        shed_cover = Vreassembly.create ();
        end_confirmed = None;
        instant_runs = 0;
        tpdu_latency = Netsim.Stats.create ();
        nacks_sent = 0;
        reacks_sent = 0;
        evictions = 0;
        aborts_received = 0;
        sheds_received = 0;
        shed_elems = 0;
        sheds_refused = 0;
        persist;
        restored_passes = 0;
        ident_min = max_int;
        scan = no_scan;
        view = Wire.Scan.view ();
        tally = { Placement.runs = []; held = false };
        views = [];
      }
    in
    if own_governor then
      Governor.set_on_evict governor (fun key ->
          if key.Governor.tpdu >= 0 then evict rx ~t_id:key.Governor.tpdu);
    rx

  (* Place the fresh sub-run [t_sn, t_sn+elems) of the chunk at [hoff]
     in [b] (header first, then payload) straight into the application
     buffer — spatial reordering, one pass, no intermediate copy.  The
     runs it covers are credited to [l]; only a run that must wait in
     quarantine is copied out, into a sub-chunk of its own. *)
  let place_fresh rx l b hoff ~t_sn ~elems =
    let size = Wire.Scan.size b hoff in
    let off_elems = t_sn - Wire.Scan.t_sn b hoff in
    let c_sn = Wire.Scan.c_sn b hoff + off_elems in
    let t_id = Wire.Scan.t_id b hoff in
    let off = hoff + Wire.header_size + (off_elems * size)
    and nbytes = elems * size in
    (* One combined pass: read while computing, write to the final
       location. *)
    Busmodel.mem_to_cpu rx.bus nbytes;
    Busmodel.cpu_to_mem rx.bus nbytes;
    let t = rx.tally in
    t.Placement.runs <- l.placed_runs;
    let placed =
      Placement.place_tally rx.placement t ~verified:false ~sn:c_sn ~size
        ~conn:(Wire.Scan.c_id b hoff) ~tpdu:t_id b ~off ~len:elems
    in
    (* only bytes this TPDU actually covers (fresh writes and identical
       duplicates) are credited; conflicting runs either lost to a
       verified owner (discarded by placement) or wait in quarantine
       for this TPDU's parity *)
    l.placed_runs <- t.Placement.runs;
    t.Placement.runs <- [];
    if placed then begin
      (if t.Placement.held then
         match
           Chunk.data ~size
             ~c:(Ftuple.v ~id:(Wire.Scan.c_id b hoff) ~sn:c_sn ())
             ~t:(Ftuple.v ~id:t_id ~sn:t_sn ())
             ~x:
               (Ftuple.v ~st:(Wire.Scan.x_st b hoff) ~id:(Wire.Scan.x_id b hoff)
                  ~sn:(Wire.Scan.x_sn b hoff) ())
             (Bytes.sub b off nbytes)
         with
         | Ok sub -> l.quarantine <- (sub, c_sn, elems) :: l.quarantine
         | Error _ -> ());
      rx.instant_runs <- rx.instant_runs + 1
    end

  let rec place_stashed rx l = function
    | [] -> ()
    | e :: rest ->
        place_fresh rx l e.sbuf e.soff ~t_sn:e.st_sn ~elems:e.selems;
        place_stashed rx l rest

  let flush_stash rx l =
    let pending = List.rev l.stash in
    l.stash <- [];
    (match rx.views with l' :: rest when l' == l -> rx.views <- rest | _ -> ());
    place_stashed rx l pending

  (* Copy the entries of [stash] that still view packet [b], one copy
     per chunk: a chunk's entries are adjacent and share its offset. *)
  let rec copy_views b prev_off prev_copy = function
    | [] -> ()
    | e :: rest ->
        if e.sbuf == b then begin
          let copy =
            if e.soff = prev_off then prev_copy
            else
              Bytes.sub b e.soff
                (Wire.header_size + Wire.Scan.payload_bytes b e.soff)
          in
          let off = e.soff in
          e.sbuf <- copy;
          e.soff <- 0;
          copy_views b off copy rest
        end
        else copy_views b prev_off prev_copy rest

  let settle rx b =
    match rx.views with
    | [] -> ()
    | views ->
        rx.views <- [];
        List.iter (fun l -> copy_views b (-1) Bytes.empty l.stash) views

  let holds_views rx = rx.views <> []

  let ed_code = Ctype.code Ctype.ed

  (* Note the chunk's connection delta before the verifier sees it, so
     that an ED chunk flushes the stash before the [Tpdu_verified] event
     it may trigger.  First witness wins within an epoch: a conflicting
     later chunk fails the TPDU in the verifier, which clears the
     epoch's state here too. *)
  let witness rx l (h : Wire.Scan.view) =
    let is_ed = h.code = ed_code in
    if h.code = 0 || is_ed then begin
      l.witnessed <- true;
      if not l.confirmed then begin
        let delta = h.c_sn - h.t_sn in
        if is_ed then begin
          if l.delta_ed = unset then l.delta_ed <- delta
        end
        else if l.delta_data = unset then l.delta_data <- delta;
        if l.delta_data <> unset && l.delta_data = l.delta_ed then begin
          l.confirmed <- true;
          flush_stash rx l
        end
      end
    end

  (* While a TPDU stays incomplete, periodically report its gap list so
     the sender can re-send exactly the missing element runs.  Bounded:
     if the gaps never fill (black-hole path) the timer must not keep
     the simulation alive forever. *)
  let max_nack_rounds = 200

  let rec arm_nack rx t_id rounds =
    Netsim.Engine.schedule rx.engine ~delay:rx.config.nack_delay (fun () ->
        match
          if rounds >= max_nack_rounds || Hashtbl.mem rx.acked t_id then None
          else Edc.Verifier.missing rx.verifier ~t_id
        with
        | None -> (
            (* verified, dropped or given up: disarm *)
            match Hashtbl.find_opt rx.tpdus t_id with
            | Some (Live l) ->
                l.nack_armed <- false;
                retire rx t_id l
            | Some (Acked _ | Shed _) | None -> ())
        | Some spans ->
            let need_ed = not (Edc.Verifier.ed_seen rx.verifier ~t_id) in
            if spans <> [] || need_ed then begin
              rx.nacks_sent <- rx.nacks_sent + 1;
              if Obs.enabled then Obs.Metrics.incr m_nacks;
              rx.send_ack
                (nack_packet ~conn_id:rx.config.conn_id ~t_id ~need_ed ~spans)
            end;
            arm_nack rx t_id (rounds + 1))

  let stashed_bytes acc e = acc + Wire.Scan.payload_bytes e.sbuf e.soff + 48
  let quarantined_bytes acc (c, _, _) = acc + Bytes.length c.Chunk.payload + 48

  (* What [l]'s corroboration record holds, as charged to the governor. *)
  let held_bytes l =
    List.fold_left quarantined_bytes
      (List.fold_left stashed_bytes (16 * List.length l.placed_runs) l.stash)
      l.quarantine

  (* Re-assert the accounted cost of one TPDU's soft state ([held] is
     what its corroboration record holds) under its governor [key] and
     refresh its delta-t deadline.  Called after every chunk that
     touched the TPDU; once verification has released everything the
     entry is retired instead. *)
  let charge rx t_id key held =
    let fp = Edc.Verifier.footprint_bytes rx.verifier ~t_id in
    if fp = 0 && held = 0 then Governor.remove rx.governor ~key
    else begin
      (* sheddable state is charged at its significance rank so budget
         pressure displaces it before any fully-reliable TPDU's state *)
      Governor.touch_class rx.governor
        ~cls:(Significance.rank (rx.config.classify t_id))
        ~key ~bytes:(fp + held + 64)
        ~now:(Netsim.Engine.now rx.engine);
      Governor.arm rx.governor rx.engine
    end

  let account rx t_id l = charge rx t_id l.key (held_bytes l)

  (* Whether this receiver holds a verifier accumulator or corroboration
     record for [t_id] (an armed gap timer alone does not count): the
     demultiplexer tells a chunk of an in-flight TPDU from traffic with
     a label this epoch has never seen by it. *)
  let tracks_tpdu rx ~t_id =
    Edc.Verifier.footprint_bytes rx.verifier ~t_id > 0 || witnessed rx t_id

  (* A sender that abandoned a TPDU says so (give-up is signalled, not
     silent): release the partial state instead of waiting for the
     deadline sweep to find it. *)
  let abort_tpdu rx ~t_id =
    if tracks_tpdu rx ~t_id then begin
      drop_tpdu_state rx t_id;
      Governor.remove rx.governor ~key:(gov_key rx t_id);
      rx.aborts_received <- rx.aborts_received + 1
    end

  let send_reack rx t_id =
    let now = Netsim.Engine.now rx.engine in
    (match Hashtbl.find rx.tpdus t_id with
    | Acked r -> r.last_reack <- now
    | Shed r -> r.last_reack <- now
    | Live _ -> Hashtbl.replace rx.tpdus t_id (Acked { last_reack = now })
    | exception Not_found ->
        Hashtbl.replace rx.tpdus t_id (Acked { last_reack = now }));
    rx.reacks_sent <- rx.reacks_sent + 1;
    if Obs.enabled then Obs.Metrics.incr m_reacks;
    rx.send_ack (ack_packet ~conn_id:rx.config.conn_id ~t_id)

  (* An already-verified TPDU whose traffic keeps arriving means the
     sender never heard the ACK (a lossy or black-holed reverse path):
     re-acknowledge instead of staying silent, or the sender retransmits
     to a wall until it gives up.  Throttled per TPDU so a duplication
     storm does not become an ACK storm. *)
  let re_ack rx t_id =
    match Hashtbl.find rx.tpdus t_id with
    | Acked { last_reack } | Shed { last_reack }
      when Netsim.Engine.now rx.engine -. last_reack < rx.config.nack_delay ->
        ()
    | Acked _ | Shed _ | Live _ -> send_reack rx t_id
    | exception Not_found -> send_reack rx t_id

  (* The sender deliberately abandoned a sheddable TPDU (partial
     reliability).  Honoured only when this receiver's own classifier
     agrees the TPDU is sheddable — a forged (or buggy) shed of a
     Critical TPDU must not truncate the stream — and only when the TPDU
     has not already been verified and acknowledged (a shed racing a
     lost ACK changes nothing: the bytes are already delivered).  The
     span joins [shed_cover] so completion can proceed without it. *)
  let shed_tpdu rx ~t_id ~first_elem ~elems =
    match Hashtbl.find_opt rx.tpdus t_id with
    (* a duplicated shed signal, or a shed racing a lost ACK: the
       sender is still retrying, so re-acknowledge (throttled) *)
    | Some (Shed _) -> re_ack rx t_id
    | _ when Hashtbl.mem rx.acked t_id -> re_ack rx t_id
    | _ when not (Significance.sheddable (rx.config.classify t_id)) ->
        (* the local classifier says this TPDU is not sheddable: a
           forged (or misclassified) shed of Critical/Normal traffic.
           Refused silently — honouring it would truncate the stream —
           but counted, so the demultiplexer's anomaly accounting can
           see how often this connection is named by forged sheds *)
        rx.sheds_refused <- rx.sheds_refused + 1
    | prior ->
        let last_reack =
          match prior with Some (Acked r) -> r.last_reack | _ -> neg_infinity
        in
        drop_tpdu_state rx t_id;
        Governor.remove rx.governor ~key:(gov_key rx t_id);
        Hashtbl.replace rx.tpdus t_id (Shed { last_reack });
        if t_id < rx.ident_min then rx.ident_min <- t_id;
        (match
           Vreassembly.insert_new rx.shed_cover ~sn:first_elem ~len:elems
             ~st:false
         with
        | Ok _ | Error `Inconsistent -> ());
        rx.sheds_received <- rx.sheds_received + 1;
        rx.shed_elems <- rx.shed_elems + elems;
        if Obs.enabled then begin
          Obs.Metrics.incr m_sheds_received;
          Obs.Metrics.add m_shed_bytes (elems * rx.config.elem_size);
          if Obs.Trace.active () then
            Obs.Trace.record
              (Obs.Trace.Shed
                 {
                   conn = rx.config.conn_id;
                   tpdu = t_id;
                   elems;
                   cls = Significance.to_string (rx.config.classify t_id);
                 })
              ~time:(Netsim.Engine.now rx.engine)
        end;
        (* the shed is acknowledged like a verified TPDU — the sender
           stops retrying the signal once this lands; deliberately NOT
           counted as a fresh verification ACK (the metrics-verify-count
           oracle check demands acks track verified TPDUs one-for-one) *)
        rx.send_ack (ack_packet ~conn_id:rx.config.conn_id ~t_id)

  (* Release every piece of soft state at once (connection close): the
     governor account is cleared entry by entry so a shared governor
     keeps other connections' entries intact. *)
  let quiesce rx =
    List.iter
      (fun t_id ->
        drop_tpdu_state rx t_id;
        Governor.remove rx.governor ~key:(gov_key rx t_id))
      (tracked_ids rx)

  let on_signal rx chunk =
    match Connection.parse_signal chunk with
    | Ok (conn_id, Connection.Abort_tpdu { t_id })
      when conn_id = rx.config.conn_id ->
        abort_tpdu rx ~t_id
    | Ok (conn_id, Connection.Shed_tpdu { t_id; first_elem; elems })
      when conn_id = rx.config.conn_id ->
        shed_tpdu rx ~t_id ~first_elem ~elems
    | Ok _ | Error _ -> ()

  (* Re-assert each quarantined run of a passed TPDU with a verified
     write, crediting what it covers to [t]. *)
  let rec place_quarantined rx t = function
    | [] -> ()
    | ((sub : Chunk.t), _, _) :: rest ->
        let h = sub.Chunk.header in
        ignore
          (Placement.place_tally rx.placement t ~verified:true
             ~sn:h.Header.c.Ftuple.sn ~size:h.Header.size
             ~conn:h.Header.c.Ftuple.id ~tpdu:h.Header.t.Ftuple.id
             sub.Chunk.payload ~off:0 ~len:h.Header.len
            : bool);
        place_quarantined rx t rest

  let rec lock_runs p = function
    | [] -> ()
    | (sn, len) :: rest ->
        Placement.lock_span p ~sn ~len;
        lock_runs p rest

  (* TPDU [t_id], in flight as [l], passed: place what it still holds,
     settle its quarantine, lock its bytes and acknowledge it (once per
     T.ID).  The placement's lock map is the verified coverage.  From
     here on the ledger speaks for it. *)
  let tpdu_passed rx t_id l =
    (* a passed parity covers every stashed run, so any still-unconfirmed
       stash is safe to place now *)
    flush_stash rx l;
    (* the parity settles this TPDU's quarantined conflicts: re-assert
       each held run with a verified write, which reclaims bytes from
       any unverified squatter but never from a locked region *)
    if l.quarantine <> [] then begin
      let t = rx.tally in
      t.Placement.runs <- l.placed_runs;
      place_quarantined rx t (List.rev l.quarantine);
      l.placed_runs <- t.Placement.runs;
      t.Placement.runs <- []
    end;
    (* the verified bytes can never again be clobbered by conflicting
       data *)
    lock_runs rx.placement l.placed_runs;
    let placed_runs = l.placed_runs in
    drop_corrob l;
    (match l.end_claim with Some _ as e -> rx.end_confirmed <- e | None -> ());
    Hashtbl.remove rx.tpdus t_id;
    if not (Hashtbl.mem rx.acked t_id) then begin
      Hashtbl.add rx.acked t_id ();
      if t_id < rx.ident_min then rx.ident_min <- t_id;
      if Obs.enabled then Obs.Metrics.incr m_acks;
      if not (Float.is_nan l.first_arrival) then begin
        let dt = Netsim.Engine.now rx.engine -. l.first_arrival in
        Netsim.Stats.add rx.tpdu_latency dt;
        if Obs.enabled then Obs.Metrics.observe_s m_tpdu_latency dt
      end;
      (* write-ahead: the bytes this ACK promises to keep go to stable
         storage before the ACK can reach the sender — otherwise a crash
         after the ACK leaves a hole the sender will never refill *)
      (match rx.persist with
      | Some journal ->
          let runs =
            Persist.normalize_runs ~elem_size:rx.config.elem_size
              (copy_runs rx placed_runs)
          in
          journal
            (Persist.Acked
               { conn = rx.config.conn_id; t_id; runs;
                 end_confirmed = rx.end_confirmed })
      | None -> ());
      rx.send_ack (ack_packet ~conn_id:rx.config.conn_id ~t_id)
    end

  (* Dispatch the verifier's events for the chunk at [off] in [b] (header
     first, then payload), of the TPDU in flight as [l] (every event
     names the chunk's own T.ID).  A fresh run that has to wait for
     corroboration is stashed as a view of [b], which [settle] copies if
     it is still stashed when the packet is done. *)
  let rec handle_events rx l b off = function
    | [] -> ()
    | ev :: rest -> (
        match ev with
        | Edc.Verifier.Fresh_data { t_id = _; t_sn; elems } ->
            if l.confirmed then place_fresh rx l b off ~t_sn ~elems
            else begin
              l.stash <-
                { sbuf = b; soff = off; st_sn = t_sn; selems = elems }
                :: l.stash;
              if not (List.memq l rx.views) then rx.views <- l :: rx.views
            end;
            handle_events rx l b off rest
        | Edc.Verifier.Tpdu_verified { t_id; verdict = Edc.Verifier.Passed } ->
            tpdu_passed rx t_id l;
            handle_events rx l b off rest
        | Edc.Verifier.Tpdu_verified { t_id = _; verdict = _ } ->
            (* failed epoch: its stash and end claim go with it *)
            drop_corrob l;
            l.end_claim <- None;
            handle_events rx l b off rest
        | Edc.Verifier.Duplicate_dropped _ -> handle_events rx l b off rest)

  let trace_rx rx b off t_id =
    if Obs.enabled && Obs.Trace.active () then
      Obs.Trace.record
        (Obs.Trace.Chunk_rx
           { conn = Wire.Scan.c_id b off; tpdu = t_id;
             bytes = Wire.Scan.payload_bytes b off })
        ~time:(Netsim.Engine.now rx.engine)

  (* A chunk of TPDU [t_id], in flight as [l], scanned at [off] in [b]:
     note its arrival, C.ST claim and gap timer, witness its delta, then
     verify, place and account.  Its labels are read into the receiver's
     view and its payload stays in the packet. *)
  let admit rx t_id l b off =
    let h = rx.view in
    Wire.Scan.read h b off;
    if h.code = 0 then begin
      if Float.is_nan l.first_arrival then
        l.first_arrival <- Netsim.Engine.now rx.engine;
      (* the C.ST bit claims the connection's final element; the claim
         is trusted only once this TPDU verifies *)
      if h.c_st then l.end_claim <- Some (h.c_sn + h.len - 1);
      if rx.config.sack && not l.nack_armed then begin
        l.nack_armed <- true;
        arm_nack rx t_id 0
      end
    end;
    witness rx l h;
    handle_events rx l b off
      (Edc.Verifier.on_view rx.verifier h b (off + Wire.header_size));
    retire rx t_id l;
    account rx t_id l

  (* One scanned chunk.  The gates decide from the labels where they sit
     in the packet (paper §2: the header alone says what to do with a
     chunk), so a chunk they turn away costs no allocation beyond its
     outcome: the ledger first, then one lookup of the T.ID.  Signals
     are the exception: their payload is parsed as an object, so they
     are materialised. *)
  let on_scanned rx b off =
    let code = Wire.Scan.ctype_code b off in
    if code = Ctype.code Ctype.signal then on_signal rx (Wire.Scan.chunk b off)
    else begin
      let t_id = Wire.Scan.t_id b off in
      trace_rx rx b off t_id;
      (* late traffic for an already-verified TPDU is not re-processed
         (feeding it would recreate verifier state that can never
         complete), but it is re-acknowledged *)
      if Hashtbl.mem rx.acked t_id then re_ack rx t_id
      else
        match Hashtbl.find rx.tpdus t_id with
        | Shed _ ->
            (* a shed TPDU is gone for good: its straggler chunks must
               not recreate verifier state the sender will never
               complete *)
            ()
        | Live l -> admit rx t_id l b off
        | Acked _ -> admit rx t_id (add_live rx t_id) b off
        | exception Not_found -> admit rx t_id (add_live rx t_id) b off
    end

  let ingest rx b =
    Busmodel.nic_to_mem rx.bus (Bytes.length b);
    if rx.scan == no_scan then rx.scan <- Wire.Scan.create ();
    if Wire.Scan.packet rx.scan b then
      match
        for i = 0 to Wire.Scan.count rx.scan - 1 do
          on_scanned rx b (Wire.Scan.offset rx.scan i)
        done
      with
      | () -> settle rx b
      | exception e ->
          settle rx b;
          raise e

  let contents rx = Placement.contents rx.placement
  let delivered_elems rx = Placement.placed_elems rx.placement

  let stream_end_elems rx =
    Option.map (fun last -> last + 1) rx.end_confirmed

  (* First element not covered by a verified (locked) or
     deliberately-shed run: the lock map's prefix, carried across each
     shed run that reaches it.  A shed span counts toward stream
     {e completion} (the degradation contract says those bytes may be
     missing) but never toward verified delivery. *)
  let covered_frontier rx =
    let rec go f = function
      | (s, l) :: rest when s + l <= f -> go f rest
      | (s, l) :: rest when s <= f ->
          go (Placement.locked_frontier rx.placement ~from:(s + l)) rest
      | _ -> f
    in
    go
      (Placement.locked_frontier rx.placement ~from:0)
      (Vreassembly.spans rx.shed_cover)

  let complete rx =
    match rx.capacity with
    | `Exact n ->
        (* a bare element count is not enough: an element squatted by a
           TPDU that never verified must not fake completeness — the
           overlap policy holds delivery until every byte has a
           WSC-2-verified owner or was deliberately shed *)
        covered_frontier rx >= n
    | `Quota _ -> (
        match rx.end_confirmed with
        | Some last ->
            (* contiguous coverage of [0, last] by {e verified} (or
               shed) TPDUs, not a bare element count: bytes placed by a
               TPDU that later failed parity (or diverted here by a
               corrupted C.ID) must not fake completeness — a premature
               "complete" lets a connection archive a buffer the
               pending retransmission was about to correct *)
            covered_frontier rx > last
        | None -> false)

  let tpdu_latency rx = rx.tpdu_latency

  (* The summary of one zero delay per placed run. *)
  let element_delay rx =
    if rx.instant_runs = 0 then None
    else
      Some
        { Netsim.Stats.count = rx.instant_runs; mean = 0.0; min = 0.0;
          max = 0.0; p50 = 0.0; p90 = 0.0; p99 = 0.0 }
  let verifier_stats rx = Edc.Verifier.stats rx.verifier
  let verifier_in_flight rx = Edc.Verifier.in_flight rx.verifier
  let stats rx =
    {
      (Rx_stats.zero ()) with
      Rx_stats.nacks_sent = rx.nacks_sent;
      reacks_sent = rx.reacks_sent;
      evictions = rx.evictions;
      aborts_received = rx.aborts_received;
      sheds_received = rx.sheds_received;
      shed_elems = rx.shed_elems;
      sheds_refused = rx.sheds_refused;
      overlap = Placement.overlap_stats rx.placement;
    }
  let shed_spans rx = Vreassembly.spans rx.shed_cover
  let governor_stats rx = Governor.stats rx.governor

  let stashed_tpdus rx =
    Hashtbl.fold
      (fun _ e acc ->
        match e with
        | Live { stash = _ :: _; _ } -> acc + 1
        | _ -> acc)
      rx.tpdus 0

  (* {2 Crash recovery} *)

  let epoch_passes rx =
    rx.restored_passes + (Edc.Verifier.stats rx.verifier).Edc.Verifier.tpdus_passed

  let ident_tid rx = if rx.ident_min = max_int then None else Some rx.ident_min

  let acked_tids rx =
    Hashtbl.fold (fun k () acc -> k :: acc) rx.acked []
    |> List.sort Int.compare

  (* One sorted image list drawn from the TPDU table. *)
  let image_of rx pick =
    Hashtbl.fold
      (fun t_id e acc ->
        match pick t_id e with Some v -> (t_id, v) :: acc | None -> acc)
      rx.tpdus []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

  let export rx : Persist.receiver_image =
    let ri_corrob =
      image_of rx (fun t_id -> function
        | Live ({ witnessed = true; _ } as l) ->
            let pi_stash =
              List.rev_map
                (fun e ->
                  (* the image of [Wire.encode_packet] for the one chunk,
                     its header written as it decodes *)
                  let n = Wire.Scan.payload_bytes e.sbuf e.soff in
                  let b = Bytes.create (Wire.header_size + n) in
                  Wire.write_header b 0 (Wire.Scan.header e.sbuf e.soff);
                  Bytes.blit e.sbuf (e.soff + Wire.header_size) b
                    Wire.header_size n;
                  (b, e.st_sn, e.selems))
                l.stash
            in
            let opt d = if d = unset then None else Some d in
            Some
              {
                Persist.pi_t_id = t_id;
                pi_delta_data = opt l.delta_data;
                pi_delta_ed = opt l.delta_ed;
                pi_confirmed = l.confirmed;
                pi_stash;
                pi_placed_runs = List.sort compare l.placed_runs;
              }
        | Live _ | Acked _ | Shed _ -> None)
      |> List.map snd
    in
    {
      Persist.ri_conn = rx.config.conn_id;
      ri_placed = copy_runs rx (Placement.spans rx.placement);
      ri_verified = Placement.locked_spans rx.placement;
      ri_end_confirmed = rx.end_confirmed;
      ri_end_claims =
        image_of rx (fun _ -> function
          | Live { end_claim; _ } -> end_claim | Acked _ | Shed _ -> None);
      ri_last_reack =
        image_of rx (fun _ -> function
          | (Acked { last_reack } | Shed { last_reack })
            when last_reack > neg_infinity ->
              Some last_reack
          | Live _ | Acked _ | Shed _ -> None);
      ri_passed = epoch_passes rx;
      ri_tpdus = Edc.Verifier.export rx.verifier;
      ri_corrob;
    }

  (* Rebuild a live receiver from its persisted image.  Conservative
     re-entry: data already counted into a restored parity is never
     re-accepted (the restored verifier tracker treats it as duplicate),
     the ledger in [acked_tids] keeps verified TPDUs from being
     re-processed, and governor occupancy is re-derived from the
     restored state — not trusted from the image.  The image does not
     record sheds, so a re-ACK clock comes back as [Acked]. *)
  let restore engine config ?bus ?governor ?acked ?persist ~send_ack
      ~capacity (img : Persist.receiver_image) ~acked_tids =
    let rx =
      create engine config ?bus ?governor ?acked ?persist ~send_ack
        ~capacity ()
    in
    rx.restored_passes <- img.Persist.ri_passed;
    List.iter
      (fun (sn, b) ->
        match Placement.restore_span rx.placement ~sn b with
        | Ok () | Error _ -> ())
      img.Persist.ri_placed;
    (* restored runs come back unlocked; re-assert verified ownership so
       the overlap policy survives the crash.  The lock map is the
       verified coverage, so a span outside the placement window (which
       only a damaged or foreign image can hold) is dropped whole: it
       covers no byte this receiver could deliver, and must not count
       toward completeness. *)
    lock_runs rx.placement img.Persist.ri_verified;
    rx.end_confirmed <- img.Persist.ri_end_confirmed;
    List.iter
      (fun (t, at) -> Hashtbl.replace rx.tpdus t (Acked { last_reack = at }))
      img.Persist.ri_last_reack;
    let live t_id =
      match Hashtbl.find_opt rx.tpdus t_id with
      | Some (Live l) -> l
      | Some (Acked _ | Shed _) | None -> add_live rx t_id
    in
    let cell = function Some d -> d | None -> unset in
    List.iter
      (fun (t, last) -> (live t).end_claim <- Some last)
      img.Persist.ri_end_claims;
    List.iter (Edc.Verifier.import rx.verifier) img.Persist.ri_tpdus;
    List.iter
      (fun (pi : Persist.corrob_image) ->
        let stash =
          List.filter_map
            (fun (b, t_sn, elems) ->
              (* the image is one chunk's packet: its first chunk sits
                 at offset 0 *)
              match Wire.decode_packet b with
              | Ok (_ :: _) ->
                  Some { sbuf = b; soff = 0; st_sn = t_sn; selems = elems }
              | Ok [] | Error _ -> None)
            pi.Persist.pi_stash
          |> List.rev
        in
        let l = live pi.Persist.pi_t_id in
        drop_corrob l;
        l.witnessed <- true;
        l.delta_data <- cell pi.Persist.pi_delta_data;
        l.delta_ed <- cell pi.Persist.pi_delta_ed;
        l.confirmed <- pi.Persist.pi_confirmed;
        l.stash <- stash;
        l.placed_runs <- pi.Persist.pi_placed_runs
        (* quarantined conflicts are not persisted: dropping them
           degrades to missing data that retransmission repairs *))
      img.Persist.ri_corrob;
    List.iter (fun t -> Hashtbl.replace rx.acked t ()) acked_tids;
    (* re-derive what the restored soft state costs and account it; the
       governor, not the image, decides whether it still fits *)
    List.iter
      (fun t_id ->
        match Hashtbl.find_opt rx.tpdus t_id with
        | Some (Live l) -> account rx t_id l
        | Some (Acked _ | Shed _) | None -> charge rx t_id (gov_key rx t_id) 0)
      (tracked_ids rx);
    rx

  (* Conservative re-entry into service: re-ACK the whole restored
     ledger, because any ACK sent in the pre-crash epoch may have been
     lost with the crash — the sender retransmitting into a restored
     receiver that stays silent would probe until give-up. *)
  let reannounce rx = List.iter (send_reack rx) (acked_tids rx)
end

module Sender = struct
  type tpdu = {
    t_id : int;
    chunks : Chunk.t list;  (* data chunks followed by the ED chunk *)
    mutable acked : bool;
    mutable last_tx : float;
    mutable txs : int;
    mutable shed : bool;
        (* abandoned under the shed policy: the timer now retries the
           Shed_tpdu signal instead of the data *)
  }

  type t = {
    engine : Netsim.Engine.t;
    config : config;
    send : bytes -> unit;
    framer : Framer.t;
    frames : bytes array;
    first_tid : int;
    mutable open_chunk : Chunk.t option;
    open_sz : int;  (* wire bytes the piggybacked Open occupies *)
    mutable next_frame : int;
    mutable pending : Chunk.t list;  (* current TPDU, reversed *)
    ready : tpdu Queue.t;
    inflight : (int, tpdu) Hashtbl.t;
    mutable retrans : int;
    mutable sack_retrans : int;
    mutable tpdus_sent : int;
    mutable packets_sent : int;
    mutable bytes_sent : int;
    mutable cur_tpdu_elems : int;
    mutable clean_acks : int;
    mutable started : bool;
    mutable gave_up : bool;
    mutable aborts_sent : int;
    mutable sheds_sent : int;
    (* ACK/NACK traffic naming a T.ID this sender never transmitted:
       nothing to do but ignore it, yet worth counting — a peer that
       manufactures acknowledgements is lying about the conversation *)
    mutable bogus_acks : int;
    (* Jacobson estimation state; [srtt < 0] means no sample yet.  The
       configured [rto] doubles as the estimator's ceiling (it is the
       conservative a-priori bound) and the initial value. *)
    mutable srtt : float;
    mutable rttvar : float;
    mutable rto_cur : float;
    mutable rtt_samples : int;
    mutable max_txs_at_sample : int;
    (* T.IDs acknowledged over the transfer's whole life, including those
       restored from a persisted image ([restore]); a restored-acked TPDU
       is rebuilt by the framer but never (re)transmitted *)
    done_tids : (int, unit) Hashtbl.t;
  }

  let rto_min = 2e-3

  let cut_frames config data =
    let n = Bytes.length data in
    if n = 0 then invalid_arg "Chunk_transport.Sender: empty data";
    let fb = config.frame_bytes in
    let count = (n + fb - 1) / fb in
    Array.init count (fun i ->
        let off = i * fb in
        let len = min fb (n - off) in
        Framer.pad_frame ~elem_size:config.elem_size (Bytes.sub data off len))

  let create engine config ?(first_tid = 0) ?(announce_open = false) ~send
      ~data () =
    validate_config config;
    (* The Open announces the stream's first C.SN (= the first T.ID
       under the label scheme's per-epoch numbering), which identifies
       the epoch: the receiver distinguishes a reopen from a duplicate
       piggybacked Open by comparing it against the connection's
       watermark. *)
    let open_chunk =
      if announce_open then
        Some
          (Connection.signal_chunk ~conn_id:config.conn_id
             (Connection.Open { first_csn = first_tid }))
      else None
    in
    let open_sz =
      match open_chunk with
      | None -> 0
      | Some s -> (
          match Packet.pack ~mtu:config.mtu [ s ] with
          | Ok [ p ] -> Packet.wire_used p
          | Ok _ | Error _ ->
              invalid_arg "Chunk_transport.Sender: mtu cannot hold Open")
    in
    if open_sz > 0 && config.mtu - open_sz < (2 * Wire.header_size) + config.elem_size
    then invalid_arg "Chunk_transport.Sender: mtu too small to piggyback Open";
    {
      engine;
      config;
      send;
      framer =
        Framer.create ~elem_size:config.elem_size
          ~tpdu_elems:config.tpdu_elems ~first_tid ~conn_id:config.conn_id ();
      frames = cut_frames config data;
      first_tid;
      open_chunk;
      open_sz;
      next_frame = 0;
      pending = [];
      ready = Queue.create ();
      inflight = Hashtbl.create 16;
      retrans = 0;
      sack_retrans = 0;
      tpdus_sent = 0;
      packets_sent = 0;
      bytes_sent = 0;
      cur_tpdu_elems = config.tpdu_elems;
      clean_acks = 0;
      started = false;
      gave_up = false;
      aborts_sent = 0;
      sheds_sent = 0;
      bogus_acks = 0;
      srtt = -1.0;
      rttvar = 0.0;
      rto_cur = config.rto;
      rtt_samples = 0;
      max_txs_at_sample = 0;
      done_tids = Hashtbl.create 16;
    }

  (* A sender over pre-cut, pre-sealed TPDUs (each chunk list is the
     data chunks followed by their ED chunk), transmitted in list order
     — the hook for {!Interleave}: a priority scheduler decides the
     order across many X streams, and this sender gives every TPDU the
     full retransmission/shed machinery without re-framing anything. *)
  let of_tpdus engine config ?(announce_open = false) ~send tpdus =
    let first_tid =
      match tpdus with
      | [] -> invalid_arg "Chunk_transport.Sender.of_tpdus: no TPDUs"
      | (t_id, _) :: _ -> t_id
    in
    (* a one-element dummy transfer builds a fully-initialised sender;
       the real TPDUs then replace the framer's queue wholesale *)
    let tx =
      create engine config ~first_tid ~announce_open ~send
        ~data:(Bytes.make config.elem_size '\000')
        ()
    in
    tx.next_frame <- Array.length tx.frames;
    tx.pending <- [];
    Queue.clear tx.ready;
    List.iter
      (fun (t_id, chunks) ->
        if chunks = [] then
          invalid_arg "Chunk_transport.Sender.of_tpdus: empty TPDU";
        Queue.add
          { t_id; chunks; acked = false; last_tx = 0.0; txs = 0; shed = false }
          tx.ready)
      tpdus;
    tx

  (* The adaptive floor: a TPDU small enough that (data + ED chunk) fits
     one packet, so a single loss forfeits at most one packet's data —
     the paper's point against Kent & Mogul's fragment-loss argument. *)
  let min_tpdu_elems config =
    max 16
      (min config.tpdu_elems
         ((config.mtu - (2 * Wire.header_size) - 8) / config.elem_size))

  (* Move complete TPDUs from [pending] (chunk stream) to [ready]. *)
  let absorb tx chunks =
    List.iter
      (fun chunk ->
        tx.pending <- chunk :: tx.pending;
        if chunk.Chunk.header.Header.t.Ftuple.st then begin
          let tpdu_chunks = List.rev tx.pending in
          tx.pending <- [];
          match Edc.Encoder.seal tpdu_chunks with
          | Error e -> invalid_arg e
          | Ok ed ->
              let t_id =
                (List.hd tpdu_chunks).Chunk.header.Header.t.Ftuple.id
              in
              (* a TPDU the restored ledger says is already acknowledged
                 is rebuilt (the framer's labels are deterministic) but
                 never queued for transmission *)
              if not (Hashtbl.mem tx.done_tids t_id) then
                Queue.add
                  {
                    t_id;
                    chunks = tpdu_chunks @ [ ed ];
                    acked = false;
                    last_tx = 0.0;
                    txs = 0;
                    shed = false;
                  }
                  tx.ready
        end)
      chunks

  let build_more tx =
    while
      Queue.length tx.ready < tx.config.window
      && tx.next_frame < Array.length tx.frames
    do
      (* Apply the adaptive TPDU size at the next TPDU boundary. *)
      (match Framer.set_tpdu_elems tx.framer tx.cur_tpdu_elems with
      | Ok () | Error _ -> ());
      let frame = tx.frames.(tx.next_frame) in
      let last = tx.next_frame = Array.length tx.frames - 1 in
      tx.next_frame <- tx.next_frame + 1;
      match Framer.push_frame ~last tx.framer frame with
      | Error e -> invalid_arg e
      | Ok chunks -> absorb tx chunks
    done

  let emit tx b =
    tx.packets_sent <- tx.packets_sent + 1;
    tx.bytes_sent <- tx.bytes_sent + Bytes.length b;
    tx.send b

  (* Connection establishment rides in the same envelope as the data
     (Appendix A piggybacking) — in {e every} envelope until the first
     TPDU is acknowledged, not just the first one: packets are
     arbitrarily reorderable in flight, and whichever arrives first must
     (re-)establish the epoch before its data chunks are routed.  A lost
     Open is likewise re-announced by the retransmission machinery for
     free. *)
  let send_chunks tx chunks =
    match tx.open_chunk with
    | None -> (
        match Packet.pack ~mtu:tx.config.mtu chunks with
        | Error e -> invalid_arg e
        | Ok packets ->
            List.iter (fun p -> emit tx (Packet.encode_unpadded p)) packets)
    | Some s -> (
        match Packet.pack ~mtu:(tx.config.mtu - tx.open_sz) chunks with
        | Error e -> invalid_arg e
        | Ok packets ->
            List.iter
              (fun p ->
                match
                  Packet.pack ~mtu:tx.config.mtu (s :: Packet.chunks p)
                with
                | Error e -> invalid_arg e
                | Ok ps ->
                    List.iter (fun q -> emit tx (Packet.encode_unpadded q)) ps)
              packets)

  let transmit tx tp =
    send_chunks tx tp.chunks;
    tp.last_tx <- Netsim.Engine.now tx.engine;
    tp.txs <- tp.txs + 1

  (* The abandonment is announced on the forward path so the receiver
     can evict the TPDU's partial state instead of leaking it; the
     receiver's own deadline sweep is the backstop when even this
     signal is lost. *)
  let send_abort tx t_id =
    let s =
      Connection.signal_chunk ~conn_id:tx.config.conn_id
        (Connection.Abort_tpdu { t_id })
    in
    match Wire.encode_packet [ s ] with
    | Error _ -> ()
    | Ok b ->
        tx.packets_sent <- tx.packets_sent + 1;
        tx.bytes_sent <- tx.bytes_sent + Bytes.length b;
        tx.aborts_sent <- tx.aborts_sent + 1;
        if Obs.enabled then Obs.Metrics.incr m_aborts_sent;
        tx.send b

  (* The element span a stored TPDU covers in the connection buffer:
     its data chunks (everything before the trailing ED chunk) are
     contiguous by construction, labelled with the connection SN. *)
  let tpdu_span tp =
    let data_chunks =
      match List.rev tp.chunks with _ed :: rev -> List.rev rev | [] -> []
    in
    match data_chunks with
    | [] -> None
    | first :: _ ->
        let first_elem = first.Chunk.header.Header.c.Ftuple.sn in
        let elems =
          List.fold_left
            (fun acc c -> acc + c.Chunk.header.Header.len)
            0 data_chunks
        in
        if elems > 0 then Some (first_elem, elems) else None

  (* Deliberate abandonment of a sheddable TPDU under congestion: the
     Shed_tpdu signal tells the receiver to reclaim partial state {e
     and} count the span as covered, so the stream finishes without the
     shed bytes instead of both ends retransmitting them to give-up.
     Unlike Abort_tpdu (where the deadline sweep is a sufficient
     backstop), stream completion depends on this signal arriving, so
     the receiver acknowledges it like a verified TPDU and the
     retransmission timer re-sends the {e signal} (one small packet, not
     the data) until that ACK lands. *)
  let send_shed tx tp =
    match tpdu_span tp with
    | None -> ()
    | Some (first_elem, elems) -> (
        let s =
          Connection.signal_chunk ~conn_id:tx.config.conn_id
            (Connection.Shed_tpdu { t_id = tp.t_id; first_elem; elems })
        in
        match Wire.encode_packet [ s ] with
        | Error _ -> ()
        | Ok b ->
            tx.packets_sent <- tx.packets_sent + 1;
            tx.bytes_sent <- tx.bytes_sent + Bytes.length b;
            tx.send b)

  (* First shed of a TPDU: count it once and trace it. *)
  let shed_now tx tp =
    tp.shed <- true;
    tx.sheds_sent <- tx.sheds_sent + 1;
    if Obs.enabled then begin
      Obs.Metrics.incr m_sheds_sent;
      if Obs.Trace.active () then
        Obs.Trace.record
          (Obs.Trace.Shed
             {
               conn = tx.config.conn_id;
               tpdu = tp.t_id;
               elems = (match tpdu_span tp with Some (_, e) -> e | None -> 0);
               cls = Significance.to_string (tx.config.classify tp.t_id);
             })
          ~time:(Netsim.Engine.now tx.engine)
    end;
    send_shed tx tp

  (* Exponential backoff de-synchronises retransmission bursts.  The
     interval doubles from the current (possibly adaptively shrunk) RTO
     but caps at 8× the {e configured} ceiling, so an adaptive sender
     whose RTO converged to milliseconds still probes long enough to
     outlast a multi-second outage before exhausting [give_up_txs]. *)
  let rec arm_timer tx tp =
    let interval =
      Float.min
        (tx.rto_cur *. Float.pow 2.0 (float_of_int (min 30 (tp.txs - 1))))
        (8.0 *. tx.config.rto)
    in
    Netsim.Engine.schedule tx.engine ~delay:interval
      (fun () ->
        if not tp.acked then
          if tp.txs >= tx.config.give_up_txs then begin
            (* black-hole path: stop the timer so the simulation can
               end; the transfer reports failure via [gave_up], and the
               receiver is told to evict the TPDU's partial state *)
            tx.gave_up <- true;
            tp.acked <- true;
            Hashtbl.remove tx.inflight tp.t_id;
            if Obs.enabled then Obs.Metrics.incr m_give_ups;
            send_abort tx tp.t_id;
            pump tx
          end
          else if tp.shed then begin
            (* already abandoned: keep retrying the (cheap) shed signal
               until the receiver's ACK confirms the span is accounted *)
            tp.txs <- tp.txs + 1;
            send_shed tx tp;
            arm_timer tx tp
          end
          else if
            tx.config.shed_txs > 0
            && tp.txs >= tx.config.shed_txs
            && Significance.sheddable (tx.config.classify tp.t_id)
          then begin
            (* congestion shed: the RTO backoff is the congestion
               signal — after [shed_txs] transmissions a sheddable TPDU
               is deliberately given up rather than retransmitted to
               give-up, freeing the path for Critical/Normal data *)
            shed_now tx tp;
            arm_timer tx tp
          end
          else begin
            tx.retrans <- tx.retrans + 1;
            if Obs.enabled then begin
              Obs.Metrics.incr m_rto_fires;
              Obs.Metrics.observe_s m_backoff interval;
              if Obs.Trace.active () then
                Obs.Trace.record
                  (Obs.Trace.Rto_fire
                     {
                       conn = tx.config.conn_id;
                       tpdu = tp.t_id;
                       txs = tp.txs;
                       rto = interval;
                     })
                  ~time:(Netsim.Engine.now tx.engine)
            end;
            if tx.config.adaptive then begin
              tx.clean_acks <- 0;
              tx.cur_tpdu_elems <-
                max (min_tpdu_elems tx.config) (tx.cur_tpdu_elems / 2)
            end;
            transmit tx tp;
            arm_timer tx tp
          end)

  and pump tx =
    build_more tx;
    if Hashtbl.length tx.inflight < tx.config.window
       && not (Queue.is_empty tx.ready)
    then begin
      let tp = Queue.pop tx.ready in
      Hashtbl.add tx.inflight tp.t_id tp;
      tx.tpdus_sent <- tx.tpdus_sent + 1;
      transmit tx tp;
      arm_timer tx tp;
      pump tx
    end

  let start tx =
    if not tx.started then begin
      tx.started <- true;
      Netsim.Engine.schedule tx.engine ~delay:0.0 (fun () -> pump tx)
    end

  (* Jacobson/Karn: an RTT sample is taken only from a TPDU that was
     transmitted exactly once — retransmissions reuse identical labels
     (§3.3), so an ACK after a retransmission is inherently ambiguous
     and must never feed the estimator. *)
  let note_rtt tx tp =
    if tp.txs = 1 then begin
      let sample = Netsim.Engine.now tx.engine -. tp.last_tx in
      tx.rtt_samples <- tx.rtt_samples + 1;
      if Obs.enabled then Obs.Metrics.observe_s m_rtt sample;
      if tp.txs > tx.max_txs_at_sample then tx.max_txs_at_sample <- tp.txs;
      if tx.config.rto_adaptive && sample >= 0.0 then begin
        if tx.srtt < 0.0 then begin
          tx.srtt <- sample;
          tx.rttvar <- sample /. 2.0
        end
        else begin
          let err = sample -. tx.srtt in
          tx.srtt <- tx.srtt +. (err /. 8.0);
          tx.rttvar <- tx.rttvar +. ((Float.abs err -. tx.rttvar) /. 4.0)
        end;
        (* a 2x SRTT floor keeps a long clean run (where RTTVAR decays
           to nothing) from shaving the timeout below queueing noise *)
        let rto =
          Float.max (2.0 *. tx.srtt) (tx.srtt +. (4.0 *. tx.rttvar))
        in
        tx.rto_cur <- Float.min tx.config.rto (Float.max rto_min rto);
        if Obs.enabled then
          Obs.Metrics.set g_rto (int_of_float (tx.rto_cur *. 1e6))
      end
    end

  let on_ack tx t_id =
    match Hashtbl.find_opt tx.inflight t_id with
    | None ->
        (* an ACK for a finished TPDU is a routine re-ACK; one for a
           T.ID never sent is fabricated *)
        if not (Hashtbl.mem tx.done_tids t_id) then
          tx.bogus_acks <- tx.bogus_acks + 1
    | Some tp ->
        if not tp.acked then begin
          (* an ACK for a shed TPDU confirms the signal, not the data:
             it must feed neither the RTT estimator (the sample spans
             the RTO wait) nor the adaptive clean-run counter *)
          if not tp.shed then note_rtt tx tp;
          tp.acked <- true;
          Hashtbl.replace tx.done_tids t_id ();
          Hashtbl.remove tx.inflight t_id;
          (* first ACK proves the receiver processed the Open: the
             establishment phase is over *)
          if t_id = tx.first_tid then tx.open_chunk <- None;
          if tx.config.adaptive && not tp.shed then begin
            tx.clean_acks <- tx.clean_acks + 1;
            (* grow cautiously: a long clean run is needed before the
               TPDU doubles, so a lossy path keeps small TPDUs instead
               of oscillating *)
            if tx.clean_acks >= 32 then begin
              tx.clean_acks <- 0;
              tx.cur_tpdu_elems <-
                min tx.config.tpdu_elems (tx.cur_tpdu_elems * 2)
            end
          end;
          pump tx
        end

  (* Selective retransmission: cut exactly the requested element runs
     out of the stored TPDU (chunks are self-describing, so any sub-run
     is a first-class chunk) and re-send them, plus the ED chunk when
     asked. *)
  let on_nack tx t_id ~need_ed ~spans =
    match Hashtbl.find_opt tx.inflight t_id with
    | None ->
        (* already acknowledged: stale NACK — unless the T.ID was never
           sent at all, which only a fabricating peer produces *)
        if not (Hashtbl.mem tx.done_tids t_id) then
          tx.bogus_acks <- tx.bogus_acks + 1
    | Some tp ->
        let data_chunks, ed =
          match List.rev tp.chunks with
          | ed :: rev_data -> (List.rev rev_data, [ ed ])
          | [] -> ([], [])
        in
        let pieces =
          List.concat_map
            (fun (sn, len) ->
              if len < 1 then []
              else
                List.filter_map
                  (fun c ->
                    let h = c.Chunk.header in
                    let c_first = h.Header.t.Ftuple.sn in
                    let c_last = c_first + h.Header.len - 1 in
                    let lo = max sn c_first and hi = min (sn + len - 1) c_last in
                    if lo > hi then None
                    else
                      match Fragment.extract c ~t_sn:lo ~elems:(hi - lo + 1) with
                      | Ok piece -> Some piece
                      | Error _ -> None)
                  data_chunks)
            spans
        in
        let to_send = pieces @ (if need_ed then ed else []) in
        if to_send <> [] then begin
          tx.sack_retrans <- tx.sack_retrans + 1;
          send_chunks tx to_send
        end

  let on_chunk tx chunk =
    let h = chunk.Chunk.header in
    if Ctype.equal h.Header.ctype Ctype.ack then
      on_ack tx h.Header.t.Ftuple.id
    else if Ctype.equal h.Header.ctype Ctype.nack then
      match parse_nack chunk with
      | Ok (need_ed, spans) -> on_nack tx h.Header.t.Ftuple.id ~need_ed ~spans
      | Error _ -> ()

  let on_packet tx b =
    match Wire.decode_packet b with
    | Error _ -> ()
    | Ok chunks -> List.iter (on_chunk tx) chunks

  let finished tx =
    tx.started
    && tx.next_frame >= Array.length tx.frames
    && Queue.is_empty tx.ready
    && Hashtbl.length tx.inflight = 0

  let retransmissions tx = tx.retrans
  let sack_retransmissions tx = tx.sack_retrans
  let gave_up tx = tx.gave_up
  let aborts_sent tx = tx.aborts_sent
  let sheds_sent tx = tx.sheds_sent
  let bogus_acks tx = tx.bogus_acks
  let tpdus_sent tx = tx.tpdus_sent
  let packets_sent tx = tx.packets_sent
  let bytes_sent tx = tx.bytes_sent
  let current_tpdu_elems tx = tx.cur_tpdu_elems
  let current_rto tx = tx.rto_cur
  let srtt tx = if tx.srtt < 0.0 then None else Some tx.srtt
  let rtt_samples tx = tx.rtt_samples
  let max_txs_at_rtt_sample tx = tx.max_txs_at_sample

  (* {2 Crash recovery} *)

  let export tx : Persist.sender_image =
    {
      Persist.si_first_tid = tx.first_tid;
      si_acked =
        Hashtbl.fold (fun k () acc -> k :: acc) tx.done_tids []
        |> List.sort Int.compare;
      si_srtt = (if tx.srtt < 0.0 then None else Some tx.srtt);
      si_rttvar = tx.rttvar;
      si_rto_cur = tx.rto_cur;
      si_tpdu_elems = tx.cur_tpdu_elems;
    }

  (* Rebuild a sender around the (re-offered) transfer data: the framer's
     label assignment is deterministic, so the rebuilt TPDUs carry the
     same T.IDs as before the crash and the restored ledger filters the
     already-acknowledged ones out of transmission.  Adaptive TPDU sizing
     re-partitions the stream mid-flight, which breaks that determinism —
     restoring an adaptive sender is refused. *)
  let restore engine config ?(announce_open = false) ~send ~data
      (si : Persist.sender_image) =
    if config.adaptive then
      invalid_arg
        "Chunk_transport.Sender.restore: adaptive TPDU sizing cannot be \
         restored (label assignment is not deterministic)";
    let tx =
      create engine config ~first_tid:si.Persist.si_first_tid ~announce_open
        ~send ~data ()
    in
    List.iter
      (fun t -> Hashtbl.replace tx.done_tids t ())
      si.Persist.si_acked;
    if List.mem si.Persist.si_first_tid si.Persist.si_acked then
      tx.open_chunk <- None;
    tx.srtt <- Option.value si.Persist.si_srtt ~default:(-1.0);
    tx.rttvar <- si.Persist.si_rttvar;
    tx.rto_cur <- si.Persist.si_rto_cur;
    tx
end

type outcome = {
  ok : bool;
  sim_time : float;
  sent_bytes : int;
  wire_bytes : int;
  retransmissions : int;
  sack_retransmissions : int;
  element_delay : Netsim.Stats.summary option;
  tpdu_latency : Netsim.Stats.summary option;
  bus_crossings_per_byte : float;
  goodput_bps : float;
  final_tpdu_elems : int;
  verifier : Edc.Verifier.stats;
  final_rto : float;
  rtt_samples : int;
  max_txs_at_rtt_sample : int;
  receiver_evictions : int;
  sheds_sent : int;
  sheds_received : int;
  shed_elems : int;
  shed_spans : (int * int) list;
  delivered : bytes;
}

(* Byte-exact outside the shed spans: the partial-reliability delivery
   contract.  [spans] are element runs ([elem_size] bytes each). *)
let equal_outside_sheds ~elem_size ~spans ~expected ~delivered =
  let n = Bytes.length expected in
  if Bytes.length delivered < n then false
  else begin
    let shed = Bytes.make n '\000' in
    List.iter
      (fun (sn, len) ->
        let off = sn * elem_size and nb = len * elem_size in
        if off >= 0 && nb > 0 && off + nb <= n then
          Bytes.fill shed off nb '\001')
      spans;
    let ok = ref true in
    for i = 0 to n - 1 do
      if
        Bytes.get shed i = '\000'
        && Bytes.get delivered i <> Bytes.get expected i
      then ok := false
    done;
    !ok
  end

let run ?(seed = 0x5EED) ?(config = default_config) ?(loss = 0.0)
    ?(corrupt = 0.0) ?(duplicate = 0.0) ?(paths = 8) ?(skew = 0.25e-3)
    ?(rate_bps = 155e6) ?(delay = 1e-3) ?(gateways = []) ~data () =
  validate_config config;
  let engine = Netsim.Engine.create ~seed () in
  let bus = Busmodel.create () in
  let receiver = ref None in
  let sender = ref None in
  let to_receiver b =
    match !receiver with Some r -> Receiver.ingest r b | None -> ()
  in
  (* Build the in-network gateway chain back to front: each gateway
     re-envelopes chunks for its outgoing MTU and forwards over its own
     clean link — the paper's arbitrary mixture of intra- and
     inter-network fragmentation, fully transparent end to end. *)
  List.iter
    (fun (_, out_mtu) ->
      if out_mtu <= Wire.header_size then
        invalid_arg
          (Printf.sprintf
             "Chunk_transport.run: gateway MTU %d cannot hold a chunk header"
             out_mtu))
    gateways;
  let first_hop_deliver =
    List.fold_left
      (fun downstream (policy, out_mtu) ->
        let out_link =
          Netsim.Link.create engine ~rate_bps ~delay ~mtu:out_mtu
            ~deliver:downstream ()
        in
        let gw =
          Netsim.Gateway.create ~policy
            ~forward:(fun b -> ignore (Netsim.Link.send out_link b))
            ~out_mtu ()
        in
        fun b -> Netsim.Gateway.on_packet gw b)
      to_receiver (List.rev gateways)
  in
  let forward =
    Netsim.Multipath.create engine ~paths ~rate_bps ~delay ~skew
      ~mtu:config.mtu ~loss ~corrupt ~duplicate ~deliver:first_hop_deliver ()
  in
  let reverse =
    Netsim.Link.create engine ~name:"ack" ~rate_bps:1e9 ~delay
      ~mtu:config.mtu
      ~deliver:(fun b ->
        match !sender with Some s -> Sender.on_packet s b | None -> ())
      ()
  in
  let expected_elems = expected_elements config ~data_len:(Bytes.length data) in
  let rx =
    Receiver.create engine config ~bus
      ~send_ack:(fun b -> ignore (Netsim.Link.send reverse b))
      ~capacity:(`Exact expected_elems) ()
  in
  receiver := Some rx;
  let tx =
    Sender.create engine config
      ~send:(fun b -> ignore (Netsim.Multipath.send forward b))
      ~data ()
  in
  sender := Some tx;
  Sender.start tx;
  Netsim.Engine.run engine;
  let delivered = Receiver.contents rx in
  let n = Bytes.length data in
  let shed_spans = Receiver.shed_spans rx in
  let ok =
    (not (Sender.gave_up tx))
    && Receiver.complete rx
    && Bytes.length delivered >= n
    &&
    (* under partial reliability, "intact" means byte-exact outside the
       deliberately shed element spans *)
    match shed_spans with
    | [] -> Bytes.equal (Bytes.sub delivered 0 n) data
    | spans ->
        equal_outside_sheds ~elem_size:config.elem_size ~spans ~expected:data
          ~delivered
  in
  let sim_time = Netsim.Engine.now engine in
  {
    ok;
    sim_time;
    sent_bytes = n;
    wire_bytes = Sender.bytes_sent tx;
    retransmissions = Sender.retransmissions tx;
    sack_retransmissions = Sender.sack_retransmissions tx;
    element_delay = Receiver.element_delay rx;
    tpdu_latency = Netsim.Stats.summary (Receiver.tpdu_latency rx);
    bus_crossings_per_byte = Busmodel.per_byte bus ~delivered:n;
    goodput_bps =
      (if sim_time > 0.0 then float_of_int (8 * n) /. sim_time else 0.0);
    final_tpdu_elems = Sender.current_tpdu_elems tx;
    verifier = Receiver.verifier_stats rx;
    final_rto = Sender.current_rto tx;
    rtt_samples = Sender.rtt_samples tx;
    max_txs_at_rtt_sample = Sender.max_txs_at_rtt_sample tx;
    receiver_evictions = rx.Receiver.evictions;
    sheds_sent = Sender.sheds_sent tx;
    sheds_received = rx.Receiver.sheds_received;
    shed_elems = rx.Receiver.shed_elems;
    shed_spans;
    delivered;
  }
