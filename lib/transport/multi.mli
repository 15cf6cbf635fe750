(** One receiver endpoint demultiplexing many connections (paper §2:
    the C.ID names an unmultiplexed conversation; TYPE-based dispatch
    makes the demultiplexer a table lookup per chunk).

    The {!Labelling.Connection} table is the authoritative lifecycle
    record: a connection exists only after its [Open] signal is
    processed (data for unknown connections is dropped — establishment
    precedes data), [Close] tears it down, and a new [Open] after close
    re-establishes it under the {e same C.ID} with a fresh epoch.  The
    per-connection ACK ledger survives epochs, so stale retransmissions
    from a closed epoch are re-acknowledged instead of re-processed —
    the guard that makes C.ID reuse safe (epoch T.ID spaces must be
    disjoint, which the sender's [first_tid] offset provides).

    All per-TPDU and per-connection state shares one {!Governor}:
    per-TPDU soft state is charged by footprint, each live connection is
    charged its placement quota, and both are evicted by deadline
    (stale-connection GC, abandoned-TPDU reclamation) or by budget
    pressure (admission under flood).  When the budget would still be
    exceeded, or the live-connection cap is hit, the {e stalest} live
    connection is displaced — never the freshest, so an Open flood
    displaces its own connections, not refreshing legitimate ones.

    {b Containment} (DESIGN §10): a byzantine peer speaks valid wire
    format, so per-chunk validation passes everything it sends; the
    demultiplexer therefore scores {e patterns} per connection.  Only
    anomalies a connection provably authored are scored — explicit
    re-establishment churn (a fresh Open C.SN above the watermark,
    which a replay cannot produce) and late traffic with unledgered
    T.IDs — while spoofable events (stale Opens, forged sheds naming
    the connection, parity-damaged signals) are counted but never
    scored, so no attacker can talk an honest connection into the
    penalty box.  A connection whose score exhausts the error budget
    has its admission revoked: its live epoch's state is reclaimed and
    every event it sources is refused until an exponentially growing
    re-admission backoff expires.  Exceptions thrown while processing
    one connection's traffic are bulkheaded: the connection is torn
    down and permanently boxed ({!poison}) instead of killing the
    endpoint. *)

type epoch_report = {
  delivered : bytes;
  complete : bool;
  closed : bool;
  open_csn : int option;
}
(** One epoch's outcome at the receiver: the placed bytes, whether
    every expected element arrived, whether the epoch saw its Close (or
    C.ST), and the first C.SN its Open announced — the epoch's identity
    under the monotone-label discipline, [None] only when the epoch was
    established implicitly and its Open never arrived.  This is the
    unit the multi-connection oracle checks. *)

type t
(** A multi-connection receiving endpoint: the connection table, one
    receiver per live epoch, the shared governor and the lifecycle
    counters. *)

val create :
  Netsim.Engine.t ->
  config:Chunk_transport.config ->
  quota_elems:int ->
  max_conns:int ->
  ?bus:Busmodel.t ->
  ?persist:(Persist.event -> unit) ->
  ?fastpath_slots:int ->
  ?anomaly_budget:int ->
  send_ack:(bytes -> unit) ->
  unit ->
  t
(** [quota_elems] sizes each connection epoch's placement buffer (the
    stream end is signalled in-band by C.ST, so no per-transfer length
    is declared up front); [max_conns] caps simultaneously live
    connections.  [config.state_budget] and [config.state_ttl] govern
    the shared account.

    [?persist] is the write-ahead journal hook, forwarded into every
    epoch receiver: it sees one {!Persist.Acked} record per fresh
    acknowledgement (before the ACK leaves) plus {!Persist.Opened} /
    {!Persist.Archived} / {!Persist.Closed} lifecycle records.

    [?fastpath_slots] sizes the two flow caches of the {!ingest} fast
    path (rounded up to a power of two; default derived from
    [max_conns]; [0] turns both off — see {!Flowcache.create}).
    Hostile or skewed workloads that overflow the caches degrade to
    slow-path throughput, never to different behaviour.

    [?anomaly_budget] (default 32) is the scored-anomaly threshold at
    which a connection's admission is revoked; [0] disables quarantine
    entirely (the [byz-clobber] mutation uses this to prove the
    defense is what contains a byzantine peer).  The penalty-box and
    score-decay clocks derive from [config.rto]:
    [max 0.25 (4 * rto)] seconds for the first box (doubling per
    revocation, capped at 2{^8}) and [max 1.0 (8 * rto)] for the quiet
    time that forgives an accumulated score.
    @raise Invalid_argument if [anomaly_budget < 0]. *)

val ingest : t -> bytes -> unit
(** Feed one wire packet — the endpoint's only way in (DESIGN §7).  A
    zero-allocation structural scan ({!Labelling.Wire.Scan}) validates
    the envelope (a malformed packet is dropped whole, as on a real
    wire).  Hot-connection chunks dispatch via the connection cache
    straight to the live epoch's receiver, and TPDUs with a
    corroborated delta trim further via the per-TPDU cache.  Signals,
    C.ST carriers, cache misses and any anomaly take the slow path:
    signals through the connection table, data to the owning epoch's
    receiver, repopulating the caches.  With [~fastpath_slots:0] every
    chunk takes the slow path — the cache-off reference the
    [fastpath-coherence] oracle row compares against; delivery is
    byte-identical either way.  An exception thrown while processing a
    chunk poisons that chunk's connection ({!poison}) and does not
    escape. *)

val ingest_batch : t -> bytes array -> unit
(** {!ingest} over a batch of packets, amortising per-call dispatch
    cost; records batch occupancy in the
    [transport_ingest_batch_packets] histogram. *)

type fastpath_stats = {
  fp_conn : Flowcache.stats;  (** connection-level (L2) cache *)
  fp_tpdu : Flowcache.stats;  (** per-TPDU (L1) cache, shared by all receivers *)
}
(** Counters of the two fast-path cache layers. *)

val fastpath_stats : t -> fastpath_stats
(** Flow-cache counters accumulated since creation.  An endpoint
    created with [~fastpath_slots:0] reports all-zero stats. *)

val epochs : t -> conn_id:int -> epoch_report list
(** Delivered buffers of the connection's epochs, oldest first; the last
    entry is the live epoch if the connection is open. *)

val known_conns : t -> int list
(** Connections ever admitted, ascending. *)

val table : t -> Labelling.Connection.t
(** The signalling table (for inspection). *)

val governor_stats : t -> Governor.stats

val live_conns : t -> int
(** Connections currently open (admitted, not closed/GCed/displaced). *)

val live_in_flight : t -> int
(** Verifier state held across all live epochs (quiescence probe). *)

val live_stashed : t -> int
(** Placement stashes held across all live epochs (quiescence probe). *)

val evictions : t -> int
(** Per-TPDU governor evictions routed to receivers. *)

val conn_gcs : t -> int
(** Whole connections reclaimed by deadline (stale-connection GC). *)

val displaced_conns : t -> int
(** Live connections displaced by admission pressure (cap or budget). *)

val aborts_received : t -> int
(** Abort_tpdu signals honoured (sender give-ups). *)

val sheds_received : t -> int
(** Shed_tpdu signals honoured across every epoch of every connection
    (partial reliability: the sender deliberately abandoned a sheddable
    TPDU under congestion and the receiver's own classifier agreed). *)

val shed_elems : t -> int
(** Elements covered by honoured sheds across every epoch — bytes
    deliberately given up under the partial-reliability contract. *)

val reacks_sent : t -> int
(** ACKs re-sent for closed-epoch stragglers (a duplicate of a TPDU
    already delivered must still be acknowledged or the sender times
    out). *)

val unknown_drops : t -> int
(** Chunks for connections never admitted (flood traffic). *)

val late_drops : t -> int
(** Chunks for closed epochs that were not re-acknowledgeable. *)

(** {1 Containment} *)

val sheds_refused : t -> int
(** Shed signals refused across every epoch of every connection — the
    named TPDU was not sheddable under the local classifier (forged or
    misclassified sheds; see
    {!Chunk_transport.Receiver.sheds_refused}). *)

val anomalies : t -> int
(** Protocol anomalies observed across all connections, scored and
    unscored alike: re-establishment churn, late unledgered traffic,
    stale Opens, refused sheds, parity-damaged signals. *)

val sig_damage : t -> int
(** Structurally valid signal chunks whose payload failed its WSC-2
    parity or shape check — dropped silently (corruption and tampering
    are indistinguishable here). *)

val quarantines : t -> int
(** Admissions revoked (penalty-box entries) across all connections. *)

val quarantine_drops : t -> int
(** Events refused because their source connection was boxed. *)

val conns_poisoned : t -> int
(** Connections permanently torn down by the exception bulkhead. *)

val poison : t -> conn_id:int -> unit
(** Tear the connection down (reclaiming its live epoch's state) and
    permanently refuse its traffic.  Called by the internal exception
    bulkheads; public so operators and tests can isolate a connection
    by hand.  Unknown connections are ignored; poisoning is
    idempotent. *)

type conn_stats = {
  cs_epochs : int;  (** epochs ever started (including the live one) *)
  cs_hist_bytes : int;  (** archived-epoch buffer bytes parked *)
  cs_anomalies : int;  (** anomalies attributed, scored and unscored *)
  cs_quarantines : int;  (** admissions revoked so far *)
  cs_quarantined : bool;  (** currently boxed (or poisoned) *)
  cs_poisoned : bool;
}
(** Per-connection containment accounting — what the isolation-budget
    oracle row bounds for byzantine connections. *)

val conn_stats : t -> conn_id:int -> conn_stats option

val overlap_stats : t -> Labelling.Placement.overlap_stats
(** Overlap-conflict counters summed over every epoch of every
    connection, live and archived (see {!Labelling.Placement} for the
    first-verified-wins policy they account). *)

(** {1 Crash recovery} *)

val export : t -> Persist.conn_image list
(** Snapshot every connection — ledger, archived epochs, live epoch
    image — ascending by connection id.  Governor accounting is not
    exported; it is re-derived on restore. *)

val restore :
  Netsim.Engine.t ->
  config:Chunk_transport.config ->
  quota_elems:int ->
  max_conns:int ->
  ?bus:Busmodel.t ->
  ?persist:(Persist.event -> unit) ->
  ?fastpath_slots:int ->
  ?anomaly_budget:int ->
  send_ack:(bytes -> unit) ->
  Persist.conn_image list ->
  t
(** Rebuild a demultiplexer from a persisted image.  Conservative
    re-entry: restored ledgers keep verified TPDUs from being
    re-processed, restored parities never re-accept bytes already
    counted into them, and every restored connection re-accounts its
    slot (and its live epoch's soft state) against a fresh governor —
    the budget, not the image, decides what survives.  The flow caches
    are not part of the image: they start empty, sized by
    [?fastpath_slots] as in {!create}.  Does not send anything; call
    {!reannounce} to re-enter service. *)

val reannounce : t -> unit
(** Re-ACK every TPDU in every restored ledger (live or closed epoch),
    counted as re-ACKs — any ACK from the pre-crash life may have died
    with the crash, and a sender retransmitting into a silent restored
    endpoint would probe until give-up. *)

val teardown : t -> unit
(** Crash the endpoint: release all soft state and governor accounts at
    once (so a dead endpoint's sweep timer cannot keep the simulation
    alive) without archiving epochs or journalling lifecycle events — a
    crash is not a graceful close. *)
