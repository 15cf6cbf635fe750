open Labelling
module R = Chunk_transport.Receiver
module S = Chunk_transport.Rx_stats

type epoch_report = {
  delivered : bytes;
  complete : bool;
  closed : bool;
  open_csn : int option;
}

(* An archived epoch's buffer is safe to hold by reference: the receiver
   that owned it is dropped at archive time, so nothing writes it
   again. *)
type archived = {
  a_delivered : bytes;
  a_complete : bool;
  a_open_csn : int option;
}

type conn = {
  id : int;
  key : Governor.key;  (* the connection's own account, built once *)
  acked : (int, unit) Hashtbl.t;  (* ACK ledger, shared across epochs *)
  last_reack : (int, float) Hashtbl.t;
  mutable live : R.t option;
  mutable live_open : int option;
      (* the live epoch's announced Open C.SN; [None] until its Open is
         seen (implicit establishment) *)
  mutable open_hwm : int;
      (* highest Open C.SN ever processed on this connection (-1 before
         the first): the monotone-label discipline makes any Open at or
         below the watermark a duplicate or a straggler, never a new
         epoch *)
  mutable hist : archived list;  (* newest first *)
  mutable last_touch : float;
  mutable acc : S.t;
      (* counters of archived epochs, replaced by their sum at
         [archive] (never bumped in place); the live epoch's are read
         off its receiver *)
  (* {2 Containment} — anomaly scoring and quarantine (DESIGN §10).
     Only anomalies this connection {e provably authored} feed the
     score: explicit re-establishment churn (each such Open names a
     fresh C.SN above the watermark, which a replay cannot do twice)
     and late traffic with unledgered T.IDs.  Spoofable or replayable
     events — stale Opens, forged sheds naming this connection,
     parity-damaged signals — are counted in [anomalies] but never
     scored, or an attacker could talk an honest connection into the
     penalty box. *)
  mutable epochs_started : int;
  mutable hist_bytes : int;  (* archived-epoch buffer bytes parked *)
  mutable anomalies : int;  (* every anomaly, scored or not *)
  mutable anomaly_score : int;
  mutable last_anomaly : float;
  mutable quarantined_until : float;  (* > now means boxed *)
  mutable quarantine_count : int;  (* admissions revoked so far *)
  mutable poisoned : bool;  (* bulkhead teardown: permanent *)
}

(* The [acc] of a connection with no archived epoch, shared: [acc] is
   only ever replaced, so a fresh connection costs no counter record. *)
let no_counts = S.zero ()

(* An L2 (connection-level) flow-cache entry pins the connection record
   and the exact receiver incarnation it was populated for.  Validity is
   re-established physically on every probe — the entry's receiver must
   still be the connection's live epoch ([rx == fc_rx]) and the stream
   end must not be confirmed — so epoch turnover, close, displacement
   and crash restore all invalidate by construction rather than by
   callback. *)
type l2_entry = { fc_conn : conn; fc_rx : R.t }

type fastpath_stats = {
  fp_conn : Flowcache.stats;
  fp_tpdu : Flowcache.stats;
}

type t = {
  engine : Netsim.Engine.t;
  config : Chunk_transport.config;
  bus : Busmodel.t;
  table : Connection.t;
  governor : Governor.t;
  send_ack : bytes -> unit;
  conns : (int, conn) Hashtbl.t;
  quota_elems : int;
  max_conns : int;
  persist : (Persist.event -> unit) option;
  l2 : l2_entry Flowcache.t;  (* hot-connection dispatch cache *)
  scan : Wire.Scan.t;
  mutable unsettled : R.t list;
      (* receivers holding views of the packet being ingested *)
  anomaly_budget : int;  (* quarantine trip threshold; 0 disables *)
  quarantine_base : float;  (* first penalty-box duration *)
  anomaly_decay : float;  (* quiet time that forgives the score *)
  counts : S.t;
      (* the endpoint's own counters (GC, displacement, drops,
         containment, closed-epoch re-ACKs); per-epoch ones live in the
         receivers *)
}

let emit m ev = match m.persist with Some f -> f ev | None -> ()

let m_opens = Obs.Metrics.counter "multi_opens_total"
let m_closes = Obs.Metrics.counter "multi_closes_total"
let m_conn_gcs = Obs.Metrics.counter "multi_conn_gcs_total"
let m_displaced = Obs.Metrics.counter "multi_displaced_total"
let m_unknown = Obs.Metrics.counter "multi_unknown_drops_total"
let m_late = Obs.Metrics.counter "multi_late_drops_total"
let m_anomalies = Obs.Metrics.counter "multi_anomalies_total"
let m_quarantines = Obs.Metrics.counter "multi_quarantines_total"
let m_quarantine_drops = Obs.Metrics.counter "multi_quarantine_drops_total"
let m_poisoned = Obs.Metrics.counter "multi_conns_poisoned_total"
let g_live = Obs.Metrics.gauge "multi_live_conns"

let now m = Netsim.Engine.now m.engine
let conn_cost m = (m.quota_elems * m.config.elem_size) + 256

let touch_conn m c =
  c.last_touch <- now m;
  Governor.touch_class m.governor ~cls:0 ~key:c.key ~bytes:(conn_cost m)
    ~now:(now m);
  Governor.arm m.governor m.engine

(* The live epoch's identity: the Open's announced first C.SN when one
   was processed, else the identity recovered from the data labels
   themselves — the lowest T.ID the epoch freshly acknowledged, which
   under the monotone-label discipline equals the first C.SN once the
   stream head is acknowledged.  An epoch whose Open died in flight
   (gateways resegment envelopes, so the piggybacked Open travels and
   dies independently of the data) is thus still identifiable: explicit
   establishment is an accelerator, not a prerequisite. *)
let epoch_identity c rx =
  match c.live_open with Some _ as s -> s | None -> R.ident_tid rx

let archive m c =
  match c.live with
  | None -> ()
  | Some rx ->
      R.quiesce rx;
      c.acc <- S.add c.acc (R.stats rx);
      (* An epoch in which no TPDU ever verified delivered nothing to the
         application (and acknowledged nothing to the sender), so from
         both ends' point of view it never happened: drop it rather than
         burn an epoch slot.  The sender's retransmissions re-establish
         the connection and deliver the whole stream into the re-opened
         epoch — at the same position in the sequence.  The gate counts
         passes over the epoch's {e whole} life ([R.epoch_passes]), so an
         epoch that verified TPDUs before a crash-restart is not dropped
         just because the restored verifier's counter restarted. *)
      let id = epoch_identity c rx in
      (* raise the watermark past a recovered identity too, so a
         straggler Open naming this archived epoch cannot be adopted by
         (or tear down) a later implicitly-established epoch *)
      (match id with
      | Some k when k > c.open_hwm -> c.open_hwm <- k
      | Some _ | None -> ());
      if R.epoch_passes rx > 0 then begin
        let delivered = R.contents rx in
        (* archived buffers are outside the governor's account (nothing
           writes or re-admits them), so their total is exactly the
           state a flapping peer can park for free — tracked per
           connection for the isolation-budget oracle row *)
        c.hist_bytes <- c.hist_bytes + Bytes.length delivered;
        c.hist <-
          {
            a_delivered = delivered;
            a_complete = R.complete rx;
            a_open_csn = id;
          }
          :: c.hist
      end;
      c.live <- None;
      c.live_open <- None;
      emit m (Persist.Archived c.id);
      if Obs.enabled then
        Obs.Metrics.set g_live (max 0 (Obs.Metrics.gauge_value g_live - 1))

let close_conn m c =
  archive m c;
  Governor.remove_conn m.governor ~conn:c.id;
  emit m (Persist.Closed c.id);
  if Obs.enabled then begin
    Obs.Metrics.incr m_closes;
    if Obs.Trace.active () then
      Obs.Trace.record (Obs.Trace.Conn_close { conn = c.id }) ~time:(now m)
  end

(* {1 Containment: anomaly scoring, quarantine, bulkheads}

   A byzantine peer speaks valid wire format, so per-chunk validation
   passes everything it sends; what gives it away is the {e pattern} —
   Open/Close flapping that parks an archived epoch per cycle, garbage
   traffic against its own closed epochs, fabricated acknowledgements.
   Each connection carries an anomaly score; exhausting the error
   budget revokes its admission for an exponentially growing penalty,
   which bounds the state and work one hostile connection can cost the
   endpoint without touching any honest connection (the [blast-radius]
   oracle row holds the defense to that claim). *)

let quarantine_active m c = c.poisoned || c.quarantined_until > now m

let quarantine_drop m =
  m.counts.quarantine_drops <- m.counts.quarantine_drops + 1;
  if Obs.enabled then Obs.Metrics.incr m_quarantine_drops

let enter_quarantine m c =
  let score = c.anomaly_score in
  c.quarantine_count <- c.quarantine_count + 1;
  (* exponential re-admission backoff: a peer that re-offends right
     after re-admission is boxed for twice as long each time (capped
     at 2^8 so the arithmetic stays tame) *)
  let dur =
    m.quarantine_base *. (2.0 ** float_of_int (min 8 (c.quarantine_count - 1)))
  in
  c.quarantined_until <- now m +. dur;
  c.anomaly_score <- 0;
  m.counts.quarantines <- m.counts.quarantines + 1;
  (* the live epoch's state is reclaimed, and the L2 row is dropped so
     the fast path cannot keep serving a boxed connection (the physical
     [rx == fc_rx] probe would also catch it — the live receiver is
     gone — but the row itself must not linger) *)
  Flowcache.invalidate m.l2 ~k1:c.id ~k2:0;
  close_conn m c;
  if Obs.enabled then begin
    Obs.Metrics.incr m_quarantines;
    if Obs.Trace.active () then
      Obs.Trace.record
        (Obs.Trace.Quarantine
           { conn = c.id; score; until = c.quarantined_until })
        ~time:(now m)
  end

(* A scored anomaly: only for events the connection provably authored
   (see the [conn] field comments).  The score forgives itself after a
   quiet [anomaly_decay], so honest connections whose rare anomalies
   are spread over the transfer never accumulate toward the budget. *)
let note_scored m c ~weight =
  c.anomalies <- c.anomalies + 1;
  m.counts.anomalies <- m.counts.anomalies + 1;
  if Obs.enabled then Obs.Metrics.incr m_anomalies;
  if m.anomaly_budget > 0 && not (quarantine_active m c) then begin
    let t = now m in
    if t -. c.last_anomaly > m.anomaly_decay then c.anomaly_score <- 0;
    c.last_anomaly <- t;
    c.anomaly_score <- c.anomaly_score + weight;
    if c.anomaly_score >= m.anomaly_budget then enter_quarantine m c
  end

(* An unscored anomaly: observed and counted, but spoofable or
   replayable — anyone on the path could have named this connection, so
   it must never push the connection toward the penalty box. *)
let note_unscored m c =
  c.anomalies <- c.anomalies + 1;
  m.counts.anomalies <- m.counts.anomalies + 1;
  if Obs.enabled then Obs.Metrics.incr m_anomalies

(* Scored weights: re-establishment churn is the byzantine signature
   (4 per cycle, 8 cycles inside one decay window trip the default
   budget of 32), late unledgered traffic is corroborating evidence.
   An honest connection's worst legitimate episode — displacement under
   flood pressure followed by its sender's catch-up retransmissions —
   scores one churn plus a handful of late drops, far under budget. *)
let w_churn = 4
let w_late = 1

(* Exception bulkhead: a connection whose processing throws is torn
   down and permanently boxed instead of letting the exception kill the
   endpoint (or worse, leave half-mutated per-connection state in
   service).  Resource-exhaustion exceptions are not containable at
   connection granularity and re-raise. *)
let poison m ~conn_id =
  match Hashtbl.find_opt m.conns conn_id with
  | None -> ()
  | Some c ->
      if not c.poisoned then begin
        c.poisoned <- true;
        m.counts.conns_poisoned <- m.counts.conns_poisoned + 1;
        Flowcache.invalidate m.l2 ~k1:conn_id ~k2:0;
        close_conn m c;
        if Obs.enabled then begin
          Obs.Metrics.incr m_poisoned;
          if Obs.Trace.active () then
            Obs.Trace.record
              (Obs.Trace.Quarantine
                 { conn = conn_id; score = c.anomaly_score; until = infinity })
              ~time:(now m)
        end
      end

let bulkhead m ~conn_id exn =
  match exn with
  | Out_of_memory | Stack_overflow -> raise exn
  | _ -> poison m ~conn_id

let create engine ~config ~quota_elems ~max_conns ?(bus = Busmodel.create ())
    ?persist ?fastpath_slots ?(anomaly_budget = 32) ~send_ack () =
  if quota_elems < 1 || max_conns < 1 then
    invalid_arg "Multi.create: quota_elems and max_conns must be >= 1";
  if anomaly_budget < 0 then
    invalid_arg "Multi.create: anomaly_budget must be >= 0";
  let slots =
    match fastpath_slots with
    | Some n -> n
    | None -> max 64 (min max_conns 65536)
  in
  let m =
    {
      engine;
      config;
      bus;
      table = Connection.create ();
      governor =
        Governor.create ~budget_bytes:config.state_budget
          ~ttl:config.state_ttl ();
      send_ack;
      conns = Hashtbl.create 16;
      quota_elems;
      max_conns;
      persist;
      l2 = Flowcache.create ~name:"conn" ~slots ();
      scan = Wire.Scan.create ();
      unsettled = [];
      anomaly_budget;
      (* both containment clocks scale with the configured round trip:
         the first box outlasts a retransmission burst, and the decay
         window comfortably covers one displacement-and-catch-up
         episode without spanning two unrelated ones *)
      quarantine_base = Float.max 0.25 (4.0 *. config.rto);
      anomaly_decay = Float.max 1.0 (8.0 *. config.rto);
      counts = S.zero ();
    }
  in
  Governor.set_on_evict m.governor (fun key ->
      match Hashtbl.find_opt m.conns key.Governor.conn with
      | None -> ()
      | Some c ->
          if key.Governor.tpdu >= 0 then (
            match c.live with
            | Some rx -> R.evict rx ~t_id:key.Governor.tpdu
            | None -> ())
          else begin
            (* the connection itself went stale (or was squeezed out by
               budget pressure): reclaim everything it holds *)
            m.counts.conn_gcs <- m.counts.conn_gcs + 1;
            if Obs.enabled then Obs.Metrics.incr m_conn_gcs;
            close_conn m c
          end);
  m

let live_count m =
  Hashtbl.fold (fun _ c n -> if c.live <> None then n + 1 else n) m.conns 0

let stalest_live m =
  let pick pred =
    Hashtbl.fold
      (fun _ c best ->
        if c.live = None || not (pred c) then best
        else
          match best with
          | Some b when b.last_touch <= c.last_touch -> best
          | _ -> Some c)
      m.conns None
  in
  (* Displace unproven connections first: one whose ACK ledger has ever
     recorded a verified TPDU demonstrably carries a real sender, while a
     flood connection never verifies anything — so an Open flood churns
     through its own connections before it can touch a conn that is
     merely quiet between retransmissions. *)
  match pick (fun c -> Hashtbl.length c.acked = 0) with
  | Some _ as v -> v
  | None -> pick (fun _ -> true)

let new_epoch ?open_csn m c =
  emit m (Persist.Opened { conn = c.id; open_csn });
  let rx =
    R.create m.engine
      { m.config with conn_id = c.id }
      ~bus:m.bus ~governor:m.governor ~acked:c.acked ?persist:m.persist
      ~send_ack:m.send_ack ~capacity:(`Quota m.quota_elems) ()
  in
  c.live <- Some rx;
  c.live_open <- open_csn;
  c.epochs_started <- c.epochs_started + 1;
  (match open_csn with
  | Some k when k > c.open_hwm -> c.open_hwm <- k
  | Some _ | None -> ());
  if Obs.enabled then
    Obs.Metrics.set g_live (Obs.Metrics.gauge_value g_live + 1);
  touch_conn m c

(* Make room for one more live connection by displacing the stalest one
   — never the freshest, so an Open flood churns through its own
   connections while refreshing legitimate ones stay. *)
let ensure_capacity m =
  if live_count m >= m.max_conns then
    match stalest_live m with
    | Some victim ->
        m.counts.displaced_conns <- m.counts.displaced_conns + 1;
        if Obs.enabled then Obs.Metrics.incr m_displaced;
        close_conn m victim
    | None -> ()

(* A connection record with no epoch, history or anomaly yet. *)
let new_conn m id =
  {
    id;
    key = { Governor.conn = id; tpdu = -1 };
    acked = Hashtbl.create 16;
    last_reack = Hashtbl.create 8;
    live = None;
    live_open = None;
    open_hwm = -1;
    hist = [];
    last_touch = now m;
    acc = no_counts;
    epochs_started = 0;
    hist_bytes = 0;
    anomalies = 0;
    anomaly_score = 0;
    last_anomaly = 0.0;
    quarantined_until = 0.0;
    quarantine_count = 0;
    poisoned = false;
  }

(* Each epoch's Open announces the stream's first C.SN, and the
   monotone-label discipline makes those strictly increase across a
   connection's epochs.  The announced C.SN is therefore the epoch's
   identity: an Open above the connection's watermark starts a new epoch
   no matter what state the live one is in (its sender may have given up
   mid-stream and moved on — waiting for the live epoch to complete
   would leak the new epoch's chunks into the stuck epoch's buffer),
   while an Open at or below the watermark can only be a retransmitted
   duplicate or a straggler from an archived epoch and is ignored.  A
   forged or duplicated Open can consequently never tear down a live
   epoch: teardown requires a label the connection has never seen. *)
let handle_open m cid ~first_csn =
  match Hashtbl.find_opt m.conns cid with
  | None ->
      ensure_capacity m;
      let c = new_conn m cid in
      Hashtbl.add m.conns cid c;
      if Obs.enabled then begin
        Obs.Metrics.incr m_opens;
        if Obs.Trace.active () then
          Obs.Trace.record (Obs.Trace.Conn_open { conn = cid }) ~time:(now m)
      end;
      new_epoch m c ~open_csn:first_csn
  | Some c when quarantine_active m c ->
      (* admission revoked: the Open is refused outright (a flapping
         peer's whole point is getting fresh epochs admitted).  The
         first Open after the penalty expires re-establishes normally —
         re-admission is lazy, no timer needed. *)
      quarantine_drop m
  | Some c -> (
      match c.live with
      | None ->
          (* re-establishment under the same C.ID: fresh epoch, fresh
             placement, but the ACK ledger carries over so the old
             epoch's stragglers are re-acknowledged, never re-placed.
             An Open below the watermark is such a straggler itself and
             must not resurrect its archived epoch.  An Open {e at} the
             watermark re-establishes only when no archived epoch
             carries that C.SN: then the epoch's state was lost (a
             crash restore whose journal kept the Opened record but not
             the data, or a never-verified epoch the archive dropped)
             while its sender is evidently still transmitting. *)
          let already_archived =
            List.exists (fun a -> a.a_open_csn = Some first_csn) c.hist
          in
          if first_csn >= c.open_hwm && not already_archived then begin
            (* churn: only an Open naming a fresh C.SN can re-establish,
               and under the monotone-label discipline only the
               connection's own sender produces fresh C.SNs — a
               replayed Open bounces off the watermark below.  Honest
               re-establishment (reopen after Close, recovery after
               displacement) is rare; sustained churn is flapping. *)
            note_scored m c ~weight:w_churn;
            if quarantine_active m c then quarantine_drop m
            else begin
              ensure_capacity m;
              new_epoch m c ~open_csn:first_csn
            end
          end
          else
            (* a stale Open — a retransmitted duplicate or a replay of
               an archived epoch's Open.  Counted, never scored: a
               replayed signal says nothing about who is replaying. *)
            note_unscored m c
      | Some _ when first_csn <= c.open_hwm ->
          (* a duplicate Open of the live epoch (it piggybacks on every
             transmission of the first TPDU) or a straggler from an
             archived one — ignore; only the straggler is anomalous *)
          if c.live_open <> Some first_csn then note_unscored m c
      | Some _ -> (
          match c.live_open with
          | None ->
              (* the live epoch was established implicitly (its Open was
                 lost or damaged in flight); this is that Open finally
                 arriving — adopt its identity, and journal the adoption
                 so a crash replay recovers it too *)
              c.live_open <- Some first_csn;
              c.open_hwm <- first_csn;
              emit m (Persist.Opened { conn = c.id; open_csn = Some first_csn })
          | Some _ ->
              (* a newer epoch's Open: close-and-reopen, whether or not
                 the live epoch ever completed — its Close (or its
                 sender's remaining data) was evidently lost.  Scored
                 like any other churn: tearing down a live epoch with a
                 fresh label is exactly one flap half-cycle. *)
              note_scored m c ~weight:w_churn;
              if quarantine_active m c then quarantine_drop m
              else begin
                archive m c;
                new_epoch m c ~open_csn:first_csn
              end))

(* A re-ACK from a closed epoch, sent by the endpoint itself: counted
   in its own store and in the registry, like a receiver's. *)
let send_closed_reack m c t_id =
  Hashtbl.replace c.last_reack t_id (now m);
  m.counts.reacks_sent <- m.counts.reacks_sent + 1;
  if Obs.enabled then Obs.Metrics.incr Chunk_transport.m_reacks;
  m.send_ack (Chunk_transport.ack_packet ~conn_id:c.id ~t_id)

let re_ack_closed m c t_id =
  match Hashtbl.find_opt c.last_reack t_id with
  | Some last when now m -. last < m.config.nack_delay -> ()
  | Some _ | None -> send_closed_reack m c t_id

(* Remember [rx] for [settle] if it holds views of the packet. *)
let note_views m rx =
  match m.unsettled with
  | r :: _ when r == rx -> ()
  | l -> if R.holds_views rx && not (List.memq rx l) then m.unsettled <- rx :: l

(* Hand one scanned chunk to [rx].  The receiver is noted even when it
   throws: the bulkhead then catches the throw with a view possibly
   still stashed. *)
let feed m rx b off =
  match R.on_scanned rx b off with
  | () -> note_views m rx
  | exception e ->
      note_views m rx;
      raise e

(* Route one non-signal chunk, scanned at [off] in [b], by its labels:
   C.ID, TYPE and T.ID are read where they sit in the packet, so a chunk
   for an unknown connection is dropped with nothing allocated. *)
let route m b off =
  let cid = Wire.Scan.c_id b off in
  match Hashtbl.find m.conns cid with
  | exception Not_found ->
      m.counts.unknown_drops <- m.counts.unknown_drops + 1;
      if Obs.enabled then Obs.Metrics.incr m_unknown
  | c when quarantine_active m c -> quarantine_drop m
  | c -> (
      let t_id = Wire.Scan.t_id b off in
      match c.live with
      | Some rx ->
          (* Data or ED traffic with a TPDU label this epoch has never
             seen, arriving after the epoch's stream end was verified
             (C.ST), is the start of the next epoch whose Open was lost
             or damaged in flight — the Open piggybacks on every
             envelope, but a corrupted copy must not let the new
             epoch's chunks leak into the finished epoch's buffer.
             Implicit close-and-reopen, exactly as for a late Open.
             Deliberately {e not} scored as churn: it is data-driven,
             so anyone who can forge a data label could otherwise talk
             this connection into the penalty box. *)
          let code = Wire.Scan.ctype_code b off in
          let rx =
            if
              R.complete rx
              && (code = 0 || code = 1)
              && (not (Hashtbl.mem c.acked t_id))
              && not (R.tracks_tpdu rx ~t_id)
            then begin
              archive m c;
              new_epoch m c;
              match c.live with Some fresh -> fresh | None -> rx
            end
            else rx
          in
          touch_conn m c;
          feed m rx b off
      | None ->
          (* closed epoch: stale retransmissions of acknowledged TPDUs
             get their ACK again (the ledger outlives the epoch); other
             traffic for a closed connection is refused.  An unledgered
             T.ID here is scored: every T.ID an honest sender ever used
             is in the ledger (or was declared given-up while the epoch
             was live), so persistent late garbage is authored traffic,
             not a replay. *)
          if Hashtbl.mem c.acked t_id then re_ack_closed m c t_id
          else begin
            m.counts.late_drops <- m.counts.late_drops + 1;
            if Obs.enabled then Obs.Metrics.incr m_late;
            note_scored m c ~weight:w_late
          end)

let on_signal m chunk =
  match Connection.on_signal m.table chunk with
  | Ok (cid, sg) -> (
      match Hashtbl.find_opt m.conns cid with
      | Some c when quarantine_active m c ->
          (* no signal is served while boxed — in particular no Close
             (which would archive) and no shed (which would mutate the
             shed cover); the penalty box is a full service stop *)
          quarantine_drop m
      | found -> (
          match sg with
          | Connection.Open { first_csn } -> handle_open m cid ~first_csn
          | Connection.Close -> (
              match found with Some c -> close_conn m c | None -> ())
          | Connection.Resync _ -> ()
          | Connection.Abort_tpdu { t_id } -> (
              match found with
              | Some ({ live = Some rx; _ } as c) ->
                  c.last_touch <- now m;
                  R.abort_tpdu rx ~t_id
              | Some _ | None -> ())
          | Connection.Shed_tpdu { t_id; first_elem; elems } -> (
              match found with
              | Some ({ live = Some rx; _ } as c) ->
                  c.last_touch <- now m;
                  let refused = (R.stats rx).S.sheds_refused in
                  R.shed_tpdu rx ~t_id ~first_elem ~elems;
                  (* a refused shed named a TPDU this connection's
                     classifier protects: forged (or badly
                     misclassified).  Unscored — the signal names its
                     victim, not its author. *)
                  if (R.stats rx).S.sheds_refused > refused then
                    note_unscored m c
              | Some c when Hashtbl.mem c.acked t_id ->
                  (* shed signal straggling behind the epoch close while
                     its ACK was lost: re-acknowledge so the sender stops
                     retrying the signal *)
                  re_ack_closed m c t_id
              | Some _ | None -> ())))
  | Error _ ->
      (* a structurally valid signal chunk whose payload failed its
         WSC-2 parity (or shape) check: silently dropped, but counted
         — corruption in flight and tampering look identical here *)
      m.counts.sig_damage <- m.counts.sig_damage + 1;
      (match Hashtbl.find_opt m.conns chunk.Chunk.header.Header.c.Ftuple.id with
      | Some c -> note_unscored m c
      | None -> ())

let m_ingest_batch = Obs.Metrics.histogram "transport_ingest_batch_packets"

(* Populate the L2 row for connection [cid] after the slow path routed
   one of its dispatch-neutral chunks (data without C.ST, or ED): only a
   live, unfinished epoch qualifies — exactly the premises the fast
   dispatch re-checks physically on every probe. *)
let maybe_cache_conn m cid =
  match Hashtbl.find m.conns cid with
  | { live = Some rx; _ } as c when R.stream_end_elems rx = None ->
      Flowcache.insert m.l2 ~k1:cid ~k2:0 { fc_conn = c; fc_rx = rx }
  | _ -> ()
  | exception Not_found -> ()

(* The receive path (DESIGN §7).  One structural scan validates the
   whole packet; each scanned chunk then probes the connection cache.
   A hit proves the chunk needs none of the slow path's dispatch work —
   the connection table is left untouched by non-C.ST data and ED
   chunks, the epoch-reopen check cannot fire while the stream end is
   unconfirmed — so the chunk goes straight to the live receiver, whose
   own gates run in full either way.  Any other chunk, and any chunk
   whose cached premises no longer hold, takes the slow path, which
   repopulates the cache.  Neither way builds a [Chunk.t]: chunks are
   routed by the labels in the packet, and only a signal, whose payload
   is parsed as an object, is materialised.  Both ways into a live epoch
   run inside one [try], the connection's exception bulkhead, so a
   throw never escapes into the rest of the packet or batch.  Once the
   packet is done, every receiver that stashed a view of it copies what
   it still holds ([settle]), so the caller owns the packet again. *)
let ingest_chunks m b =
  for i = 0 to Wire.Scan.count m.scan - 1 do
    let cid = Wire.Scan.c_id_at m.scan i in
    try
      let off = Wire.Scan.offset m.scan i in
      let code = Wire.Scan.ctype_code_at m.scan i in
      let c_st = Wire.Scan.c_st_at m.scan i in
      let neutral = (code = 0 || code = 1) && not c_st in
      let fast =
        neutral
        &&
        match Flowcache.find m.l2 ~k1:cid ~k2:0 with
        | Some e -> (
            match e.fc_conn.live with
            | Some rx when rx == e.fc_rx && R.stream_end_elems rx = None ->
                touch_conn m e.fc_conn;
                feed m rx b off;
                true
            | Some _ | None ->
                (* the epoch turned over (or closed) under the entry *)
                Flowcache.invalidate m.l2 ~k1:cid ~k2:0;
                false)
        | None -> false
      in
      if fast then ()
      else if code = Ctype.code Ctype.signal then
        on_signal m (Wire.Scan.chunk b off)
      else begin
        (* routing is by connection record, not table state: traffic
           for a live epoch must keep flowing after the C.ST data
           chunk marked the table Closed (the final TPDU's remaining
           chunks, and retransmissions, arrive after it) *)
        if code = 0 then
          ignore (Connection.on_data m.table ~conn_id:cid ~c_st : bool);
        route m b off;
        if neutral then maybe_cache_conn m cid
      end
    with e -> bulkhead m ~conn_id:cid e
  done

(* Every receiver fed from [b] gives up its views of it. *)
let settle m b =
  match m.unsettled with
  | [] -> ()
  | rxs ->
      m.unsettled <- [];
      List.iter (fun rx -> R.settle rx b) rxs

let ingest m b =
  Busmodel.nic_to_mem m.bus (Bytes.length b);
  if Wire.Scan.packet m.scan b then
    match ingest_chunks m b with
    | () -> settle m b
    | exception e ->
        settle m b;
        raise e

let ingest_batch m packets =
  if Obs.enabled then
    Obs.Metrics.observe m_ingest_batch (Array.length packets);
  Array.iter (ingest m) packets

let fastpath_stats m =
  { fp_conn = Flowcache.stats m.l2; fp_tpdu = Flowcache.zero_stats }

let epochs m ~conn_id =
  match Hashtbl.find_opt m.conns conn_id with
  | None -> []
  | Some c ->
      List.rev_map
        (fun a ->
          {
            delivered = a.a_delivered;
            complete = a.a_complete;
            closed = true;
            open_csn = a.a_open_csn;
          })
        c.hist
      @ (match c.live with
        | Some rx ->
            [
              {
                delivered = R.contents rx;
                complete = R.complete rx;
                closed = false;
                open_csn = epoch_identity c rx;
              };
            ]
        | None -> [])

let known_conns m =
  List.sort compare (Hashtbl.fold (fun id _ acc -> id :: acc) m.conns [])

let table m = m.table
let governor_stats m = Governor.stats m.governor
let live_conns m = live_count m

let sum_live m f =
  Hashtbl.fold
    (fun _ c acc -> match c.live with Some rx -> acc + f rx | None -> acc)
    m.conns 0

let live_in_flight m = sum_live m R.verifier_in_flight
let live_stashed m = sum_live m R.stashed_tpdus

(* The endpoint's own counts plus, for every connection, its archived
   epochs' sum and its live epoch's receiver. *)
let stats m =
  S.add m.counts
    (Hashtbl.fold
       (fun _ c acc ->
         let acc = S.add acc c.acc in
         match c.live with Some rx -> S.add acc (R.stats rx) | None -> acc)
       m.conns (S.zero ()))

type conn_stats = {
  cs_epochs : int;
  cs_hist_bytes : int;
  cs_anomalies : int;
  cs_quarantines : int;
  cs_quarantined : bool;
  cs_poisoned : bool;
}

let conn_stats m ~conn_id =
  Option.map
    (fun c ->
      {
        cs_epochs = c.epochs_started;
        cs_hist_bytes = c.hist_bytes;
        cs_anomalies = c.anomalies;
        cs_quarantines = c.quarantine_count;
        cs_quarantined = quarantine_active m c;
        cs_poisoned = c.poisoned;
      })
    (Hashtbl.find_opt m.conns conn_id)

(* {1 Crash recovery} *)

let export m : Persist.conn_image list =
  Hashtbl.fold
    (fun id c acc ->
      {
        Persist.ci_id = id;
        ci_acked =
          Hashtbl.fold (fun k () l -> k :: l) c.acked []
          |> List.sort Int.compare;
        ci_hist =
          List.rev_map
            (fun a -> (a.a_delivered, a.a_complete, a.a_open_csn))
            c.hist;
        ci_live = Option.map R.export c.live;
        (* snapshot the best-known identity, announced or recovered —
           the restored endpoint's receiver starts with an empty
           fresh-ACK record and could not re-derive it *)
        ci_live_open =
          (match c.live with
          | Some rx -> epoch_identity c rx
          | None -> c.live_open);
        (* containment survives the crash: a boxed peer must not get a
           fresh budget by crashing the endpoint.  The score itself is
           not persisted — an un-tripped budget refills on restart,
           which errs on the side of honest connections. *)
        ci_quar_until = c.quarantined_until;
        ci_quar_count = c.quarantine_count;
        ci_poisoned = c.poisoned;
      }
      :: acc)
    m.conns []
  |> List.sort (fun a b -> Int.compare a.Persist.ci_id b.Persist.ci_id)

(* Rebuild a demultiplexer from its persisted image.  Each restored live
   epoch re-accounts its own soft state against the fresh governor, and
   the per-connection slot cost is re-asserted — the budget, not the
   image, decides what survives. *)
let restore engine ~config ~quota_elems ~max_conns ?bus ?persist
    ?fastpath_slots ?anomaly_budget ~send_ack
    (images : Persist.conn_image list) =
  let m =
    create engine ~config ~quota_elems ~max_conns ?bus ?persist
      ?fastpath_slots ?anomaly_budget ~send_ack ()
  in
  List.iter
    (fun (img : Persist.conn_image) ->
      if not (Hashtbl.mem m.conns img.Persist.ci_id) then begin
        let c =
          {
            (new_conn m img.Persist.ci_id) with
            live_open = img.Persist.ci_live_open;
            open_hwm =
              List.fold_left
                (fun acc (_, _, k) ->
                  match k with Some k -> max acc k | None -> acc)
                (match img.Persist.ci_live_open with Some k -> k | None -> -1)
                img.Persist.ci_hist;
            hist =
              List.rev_map
                (fun (d, cm, k) ->
                  { a_delivered = d; a_complete = cm; a_open_csn = k })
                img.Persist.ci_hist;
            (* epoch and state accounting re-derived from the image, so
               the isolation-budget bound spans the crash *)
            epochs_started =
              List.length img.Persist.ci_hist
              + (if img.Persist.ci_live <> None then 1 else 0);
            hist_bytes =
              List.fold_left
                (fun acc (d, _, _) -> acc + Bytes.length d)
                0 img.Persist.ci_hist;
            quarantined_until = img.Persist.ci_quar_until;
            quarantine_count = img.Persist.ci_quar_count;
            poisoned = img.Persist.ci_poisoned;
          }
        in
        List.iter (fun t -> Hashtbl.replace c.acked t ()) img.Persist.ci_acked;
        Hashtbl.add m.conns c.id c;
        (match img.Persist.ci_live with
        | Some ri ->
            let rx =
              R.restore m.engine
                { m.config with conn_id = c.id }
                ~bus:m.bus ~governor:m.governor ~acked:c.acked
                ?persist:m.persist ~send_ack:m.send_ack
                ~capacity:(`Quota m.quota_elems) ri ~acked_tids:[]
            in
            c.live <- Some rx;
            if Obs.enabled then
              Obs.Metrics.set g_live (Obs.Metrics.gauge_value g_live + 1)
        | None -> ());
        touch_conn m c
      end)
    images;
  m

(* Conservative re-entry into service: every TPDU in every restored
   ledger is re-acknowledged, whether its epoch is live or closed — any
   ACK from the pre-crash life may have died with the crash. *)
let reannounce m =
  Hashtbl.fold (fun id c acc -> (id, c) :: acc) m.conns []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.iter (fun (_, c) ->
         match c.live with
         | Some rx -> R.reannounce rx
         | None ->
             Hashtbl.fold (fun t_id () l -> t_id :: l) c.acked []
             |> List.sort Int.compare
             |> List.iter (send_closed_reack m c))

(* Crash the endpoint: release all soft state so the governor's sweep
   timer stops re-arming (a dead endpoint must not keep the simulation
   alive), without archiving anything or emitting journal events — a
   crash is not a graceful close. *)
let teardown m =
  let lives = live_count m in
  Hashtbl.iter
    (fun _ c -> match c.live with Some rx -> R.quiesce rx | None -> ())
    m.conns;
  Hashtbl.iter (fun id _ -> Governor.remove_conn m.governor ~conn:id) m.conns;
  if Obs.enabled then
    Obs.Metrics.set g_live (max 0 (Obs.Metrics.gauge_value g_live - lives))
