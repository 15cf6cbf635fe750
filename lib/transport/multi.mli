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

    [?fastpath_slots] sizes the connection cache of the {!ingest} fast
    path (rounded up to a power of two; default derived from
    [max_conns]; [0] turns it off — see {!Flowcache.create}).
    Hostile or skewed workloads that overflow the cache degrade to
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
    straight to the live epoch's receiver.  Signals, C.ST carriers,
    cache misses and any anomaly take the slow path: signals through
    the connection table, data to the owning epoch's receiver,
    repopulating the cache.  Either way the receiver runs every chunk
    through its own gates ({!Chunk_transport.Receiver.on_scanned}).
    With [~fastpath_slots:0] every
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
  fp_tpdu : Flowcache.stats;
      (** always {!Flowcache.zero_stats}: the per-TPDU (L1) cache is
          gone; the field stays for readers of this record *)
}
(** Counters of the fast-path cache. *)

val fastpath_stats : t -> fastpath_stats
(** Connection-cache counters accumulated since creation.  An endpoint
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

val stats : t -> Chunk_transport.Rx_stats.t
(** Every receive-side counter of the endpoint, as a fresh record: its
    own counts (connection GC, displacement, unknown and late drops,
    closed-epoch re-ACKs, containment) plus every epoch receiver's of
    every connection, archived and live — NACKs, re-ACKs, evictions,
    aborts, sheds, refused sheds and overlap conflicts.  Archived
    epochs are summed into their connection when they close, so no
    count is lost to epoch turnover; counters never decrease.  A crash
    ({!teardown}) keeps them readable; a {!restore}d endpoint starts
    from zero. *)

(** {1 Containment} *)

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
