(** A reliable transport built on chunks: the paper's architecture
    assembled end to end.

    Sender: frame the application stream three ways at once
    ({!Labelling.Framer}), seal each TPDU with a WSC-2 ED chunk
    ({!Edc.Encoder}), pack chunks into MTU-sized envelopes
    ({!Labelling.Packet}), retransmit unacknowledged TPDUs with
    {e identical labels} (§3.3) under a fixed window and an RTO that is
    either fixed or estimated (Jacobson SRTT/RTTVAR under Karn's rule —
    mandatory here, since a retransmission is indistinguishable from the
    original on the wire).

    Receiver: process every chunk {e immediately on arrival} — no
    reordering, no reassembly buffer: place fresh elements straight into
    the application buffer by connection SN (spatial reordering,
    {!Labelling.Placement}), accumulate the error-detection parity
    incrementally ({!Edc.Verifier}), and acknowledge a TPDU the moment
    its virtual reassembly completes and its parity verifies.  Data
    crosses the bus once.  All per-TPDU soft state is accounted to a
    {!Governor} so a sender that vanishes (or floods) cannot leak or
    exhaust receiver memory. *)

type config = {
  conn_id : int;
  elem_size : int;  (** bytes per element; multiple of 4 *)
  tpdu_elems : int;  (** elements per TPDU *)
  frame_bytes : int;  (** external-PDU (ALF) size *)
  mtu : int;  (** outgoing packet capacity *)
  window : int;  (** TPDUs in flight *)
  rto : float;
      (** retransmission timeout, seconds; with [rto_adaptive] this is
          the ceiling and initial value of the estimator *)
  rto_adaptive : bool;
      (** estimate the RTO from ACK round-trips (Jacobson SRTT/RTTVAR);
          samples are taken only from TPDUs transmitted exactly once
          (Karn's rule — retransmissions reuse identical labels, §3.3,
          so their ACKs are inherently ambiguous) *)
  adaptive : bool;
      (** shrink the TPDU size on timeout and grow it on clean ACKs —
          the §3 response to Kent & Mogul's fragment-loss argument (the
          sender needs no knowledge of whether fragmentation occurs) *)
  sack : bool;
      (** selective retransmission: the receiver reports virtual
          reassembly's gap list in NACK chunks and the sender re-sends
          exactly those element runs (self-describing chunks make any
          sub-run a first-class retransmission unit); the full-TPDU RTO
          remains the fallback *)
  nack_delay : float;
      (** how long a TPDU may stay incomplete before the receiver
          NACKs its gaps (seconds) *)
  give_up_txs : int;
      (** transmissions of one TPDU before the sender abandons it and
          signals {!Labelling.Connection.Abort_tpdu} to the receiver *)
  state_budget : int;
      (** receiver soft-state budget in bytes ([<= 0]: unlimited); see
          {!Governor} *)
  state_ttl : float;
      (** idle deadline for receiver soft state, seconds (delta-t style:
          state not refreshed within the TTL is evicted) *)
  classify : int -> Labelling.Significance.t;
      (** significance class of each TPDU by T.ID (partial reliability).
          Both endpoints must use the same classifier — the class is
          part of the transfer contract, like the framing: the sender
          consults it before shedding, the receiver before {e honouring}
          a shed (a Shed_tpdu for a TPDU the receiver classifies as
          Critical/Normal is ignored, so a forged shed cannot truncate
          the stream), and the governor charges sheddable state at its
          rank so budget pressure displaces it first.  Default: every
          TPDU is [Normal] (fully reliable). *)
  shed_txs : int;
      (** congestion shed policy: after this many transmissions of a
          {e sheddable} TPDU the sender deliberately abandons it with a
          {!Labelling.Connection.Shed_tpdu} signal instead of
          retransmitting it to give-up — RTO backoff is the congestion
          signal.  [0] (default) disables shedding; must be
          [< give_up_txs] otherwise. *)
}

val default_config : config
(** 4-byte elements, 512-element TPDUs, 1500-byte MTU, window 8,
    fixed 50 ms RTO, SACK/adaptive off, state unlimited — the baseline
    every CLI flag and soak profile perturbs from. *)

val expected_elements : config -> data_len:int -> int
(** Elements the receiver will hold once a stream of [data_len] bytes is
    framed (only the final frame is padded to a whole element). *)

val ack_packet : conn_id:int -> t_id:int -> bytes
(** One encoded packet carrying the ACK control chunk for a TPDU (used
    by demultiplexers to re-acknowledge closed-epoch stragglers): a
    4-byte zero payload, C = [(conn_id, 0)], T = [(t_id, 0)], written in
    place ({!Labelling.Wire.control_packet}).
    @raise Invalid_argument if an ID is outside 32 bits. *)

val nack_packet :
  conn_id:int -> t_id:int -> need_ed:bool -> spans:(int * int) list -> bytes
(** One encoded packet carrying a NACK control chunk, labelled as
    {!ack_packet}: payload [u8 flags (bit 0 = resend the ED chunk)],
    [u16 count], then [count] pairs [(u32 t_sn, u32 len)] — the first 64
    of [spans].
    @raise Invalid_argument if an ID is outside 32 bits. *)

val m_reacks : Obs.Metrics.counter
(** [transport_reacks_total]: bumped with every re-ACK counted in
    [Rx_stats.reacks_sent], by whichever layer sends it — a receiver, or
    a demultiplexer re-acknowledging a closed epoch. *)

(** {1 Receive-side counters} *)

module Rx_stats : sig
  (** One counter record for the receive side: every outcome of
      handling a chunk that an endpoint counts, counted once, in one
      place.  A {!Receiver} counts the receiver fields ({!Receiver.stats}
      assembles them on read); {!Multi} counts the endpoint fields and
      sums its epoch receivers in; the conformance harness sums crash
      incarnations and soak runs with {!add}.  Fields a layer never
      counts stay zero there (a bare receiver has no [conn_gcs]).

      The fields are mutable so an endpoint bumps its own store in
      place — one integer increment, no allocation.  Every record a
      [stats] function or {!add} returns is a fresh copy: mutating it
      changes nothing else. *)
  type t = {
    mutable nacks_sent : int;  (** gap reports sent (0 unless [config.sack]) *)
    mutable reacks_sent : int;
        (** re-acknowledgements of already-verified TPDUs (their traffic
            kept arriving — the sender evidently missed the ACK),
            including the demultiplexer's re-ACKs of closed-epoch
            stragglers *)
    mutable evictions : int;
        (** per-TPDU soft-state evictions (deadline or budget) *)
    mutable aborts_received : int;
        (** TPDUs evicted because the sender signalled it abandoned
            them *)
    mutable sheds_received : int;
        (** shed signals honoured (the TPDU was sheddable and not yet
            verified); forged or duplicate sheds are not counted *)
    mutable shed_elems : int;
        (** elements covered by honoured sheds — bytes deliberately given
            up under the partial-reliability contract *)
    mutable sheds_refused : int;
        (** shed signals refused because the local classifier says the
            named TPDU is not sheddable: a forged (or misclassified) shed
            of Critical/Normal traffic.  Silent on the wire; the count
            feeds the demultiplexer's anomaly accounting *)
    overlap : Labelling.Placement.overlap_stats;
        (** placement conflict counters under the first-verified-wins
            policy; owned by the placement buffer, copied in when
            [stats] is read *)
    mutable conn_gcs : int;
        (** whole connections reclaimed by deadline (stale-connection
            GC) *)
    mutable displaced_conns : int;
        (** live connections displaced by admission pressure *)
    mutable unknown_drops : int;  (** chunks for never-admitted connections *)
    mutable late_drops : int;
        (** chunks for closed epochs that were not re-acknowledgeable *)
    mutable anomalies : int;
        (** protocol anomalies attributed to connections, scored and
            unscored alike *)
    mutable sig_damage : int;
        (** structurally valid signal chunks whose payload failed its
            WSC-2 parity or shape check *)
    mutable quarantines : int;  (** admissions revoked (penalty-box entries) *)
    mutable quarantine_drops : int;
        (** events refused because their source connection was boxed *)
    mutable conns_poisoned : int;
        (** connections permanently torn down by the exception
            bulkhead *)
  }

  val zero : unit -> t
  (** Fresh all-zero counters: an endpoint's store, or the seed of a
      sum. *)

  val add : t -> t -> t
  (** Field-wise sum, as a fresh record. *)
end

(** {1 Receiver} *)

module Receiver : sig
  type t

  val create :
    Netsim.Engine.t ->
    config ->
    ?bus:Busmodel.t ->
    ?governor:Governor.t ->
    ?acked:(int, unit) Hashtbl.t ->
    ?persist:(Persist.event -> unit) ->
    send_ack:(bytes -> unit) ->
    capacity:[ `Exact of int | `Quota of int ] ->
    unit ->
    t
  (** [capacity] sizes the placement buffer.  [`Exact n] declares the
      stream length up front (legacy single-transfer mode): completion
      is "buffer full".  [`Quota n] grants up to [n] elements without
      foreknowledge of the length: the stream's end is signalled in-band
      by the C.ST bit on the final element, believed once the TPDU
      carrying it verifies.

      Without [?governor] the receiver runs its own (budget and TTL from
      [config]); pass a shared one (plus a shared [?acked] table) when a
      demultiplexer owns several receivers — the demultiplexer then owns
      the eviction callback and routes per-TPDU evictions to
      {!evict}.

      [?persist] is the write-ahead journal hook: it receives one
      {!Persist.Acked} event per fresh acknowledgement, {e before} the
      ACK packet is handed to [send_ack], carrying exactly the placed
      bytes that ACK promises to keep. *)

  val ingest : t -> bytes -> unit
  (** Feed one packet from the network — the receiver's only packet
      entry point.  A single zero-allocation structural scan
      ({!Labelling.Wire.Scan}) validates the packet (a malformed one is
      dropped whole), then each chunk takes {!on_scanned}, and the
      packet is {!settle}d.  Chunks are processed in place: labels are
      read from the packet and the verifier and placement read the
      payload from it, so no [Chunk.t] is built except for a signal
      (whose payload is parsed), and a payload is copied only if its
      fresh data is still waiting in the corroboration stash when the
      packet is done.  The caller owns [b] again once the call returns:
      nothing retains it. *)

  val on_scanned : t -> bytes -> int -> unit
  (** [on_scanned rx b off] processes the single chunk starting at [off]
      in [b], where [off] came from a successful
      {!Labelling.Wire.Scan.packet} pass over [b] — the demultiplexer's
      bridge into the receiver (no bus accounting).  Its gates read TYPE
      and T.ID in the packet: the ACK ledger first, then one lookup in
      the receiver's per-TPDU table, so a re-offer of an acknowledged
      TPDU is re-ACKed and a straggler of a shed one dropped with
      nothing built for the chunk; a chunk past them has its labels
      read into the receiver's one {!Labelling.Wire.Scan.view}.  Fresh
      data that must wait for corroboration is stashed as a view of
      [b]: the caller must {!settle} [b] before it reuses or releases
      it. *)

  val holds_views : t -> bool
  (** Whether a chunk since the last {!settle} stashed a view of its
      packet. *)

  val settle : t -> bytes -> unit
  (** [settle rx b] copies out of [b] every stash entry that still
      views it, once per chunk, after which [rx] retains nothing of
      [b].  Called once a packet has been fed through {!on_scanned},
      including when a chunk of it threw. *)

  val contents : t -> bytes
  (** The application buffer (valid up to the placed elements). *)

  val delivered_elems : t -> int

  val complete : t -> bool
  (** [`Exact] mode: every element is covered by verified TPDUs or by
      honoured sheds — an element squatted by a TPDU that never verified
      cannot fake completeness, while a deliberately shed span counts as
      settled without its bytes (partial reliability).  [`Quota] mode: a
      verified TPDU carried the C.ST end-of-connection bit and every
      element up to it is covered by {e verified or shed} TPDUs — bytes
      placed by a TPDU that later failed parity do not count (its
      identical-label retransmission re-places them). *)

  val tracks_tpdu : t -> t_id:int -> bool
  (** Whether the receiver holds any soft state (verifier accumulator or
      corroboration record) for [t_id].  A TPDU whose only state is an
      armed gap timer is not tracked. *)

  val stream_end_elems : t -> int option
  (** Total stream length in elements, once a verified TPDU has carried
      the C.ST end-of-connection bit ([`Quota] mode). *)

  val abort_tpdu : t -> t_id:int -> unit
  (** Evict all partial state for [t_id] (the sender abandoned it);
      counted in [aborts_received] ({!stats}) if any state existed. *)

  val shed_tpdu : t -> t_id:int -> first_elem:int -> elems:int -> unit
  (** The sender deliberately abandoned a sheddable TPDU (partial
      reliability).  Honoured only if this receiver's own [classify]
      agrees the TPDU is sheddable — a forged shed of a Critical/Normal
      TPDU is ignored — and only if the TPDU is not already verified.
      On honour: partial state is dropped, the element span joins the
      shed cover (so {!complete} can be reached without those bytes),
      and the shed is acknowledged like a verified TPDU so the sender
      stops resending the signal.  Duplicates and shed-after-ACK races
      get a throttled re-ACK. *)

  val evict : t -> t_id:int -> unit
  (** Dispose of [t_id]'s soft state after the governor already dropped
      its account (demultiplexer eviction routing). *)

  val quiesce : t -> unit
  (** Release every piece of soft state (and its governor account) at
      once — connection close.  Not counted as evictions. *)

  val tpdu_latency : t -> Netsim.Stats.t
  (** Per-TPDU time from first fragment arrival to verification. *)

  val verifier_stats : t -> Edc.Verifier.stats

  val verifier_in_flight : t -> int
  (** TPDUs the verifier currently holds state for (leak probe: 0 once
      an undamaged transfer completes, and 0 after quiescence even for
      abandoned transfers — give-up signalling plus the governor's
      deadline sweep guarantee it). *)

  val stashed_tpdus : t -> int
  (** TPDUs with data held back awaiting label corroboration: placement
      at the connection offset waits until the C.SN - T.SN delta seen on
      data chunks is confirmed by the ED chunk's independent copy, so a
      corrupted label cannot overwrite a region another — already
      verified — TPDU owns.  0 once an undamaged transfer completes. *)

  val stats : t -> Rx_stats.t
  (** This receiver's counters, with its placement buffer's overlap
      counters (see {!Labelling.Placement}), as a fresh record built on
      each call; the endpoint fields are zero. *)

  val shed_spans : t -> (int * int) list
  (** The honoured shed cover as [(first_elem, elems)] runs in
      connection-SN space, ascending — the mask under which delivered
      bytes are exempt from byte-exactness. *)

  val governor_stats : t -> Governor.stats

  (** {2 Crash recovery} *)

  val epoch_passes : t -> int
  (** TPDUs verified over the epoch's whole life, {e including} those
      verified before a crash and carried over by {!restore} — the
      archive gate [Multi] uses (the raw {!verifier_stats} counter
      restarts at zero on restore). *)

  val acked_tids : t -> int list
  (** The ACK ledger, ascending. *)

  val ident_tid : t -> int option
  (** The lowest T.ID this epoch freshly acknowledged (verified or
      shed-honoured), [None] before the first.  Under the monotone-label
      discipline this equals the epoch's first C.SN once the stream head
      is acknowledged: the epoch's identity, recovered from the data
      labels alone.  {!Multi} falls back to it when the epoch's Open
      died in flight and the epoch was established implicitly — the
      labelling discipline makes explicit establishment an accelerator,
      not a prerequisite, for identifying the conversation. *)

  val export : t -> Persist.receiver_image
  (** Snapshot the receiver's recoverable state (placed bytes, verified
      cover, verifier parities and spans, corroboration records, re-ACK
      throttle clocks).  Governor accounting is not exported: it is
      re-derived on restore. *)

  val restore :
    Netsim.Engine.t ->
    config ->
    ?bus:Busmodel.t ->
    ?governor:Governor.t ->
    ?acked:(int, unit) Hashtbl.t ->
    ?persist:(Persist.event -> unit) ->
    send_ack:(bytes -> unit) ->
    capacity:[ `Exact of int | `Quota of int ] ->
    Persist.receiver_image ->
    acked_tids:int list ->
    t
  (** Rebuild a live receiver from a persisted image.  Conservative:
      data already counted into a restored parity is never re-accepted
      (the restored reassembly tracker absorbs it as duplicate), TPDUs
      in [acked_tids] are only ever re-acknowledged, and governor
      occupancy is recomputed from the restored state — the governor,
      not the image, decides whether it still fits the budget (restored
      state that does not fit is evicted like any other).  A partially
      corrupted image degrades to partial state that identical-label
      retransmission repairs; nothing here raises on image content. *)

  val reannounce : t -> unit
  (** Conservative re-entry into service after {!restore}: re-ACK every
      TPDU in the restored ledger (counted as re-ACKs), because any ACK
      sent before the crash may have died with it. *)
end

(** {1 Sender} *)

module Sender : sig
  type t

  val create :
    Netsim.Engine.t ->
    config ->
    ?first_tid:int ->
    ?announce_open:bool ->
    send:(bytes -> unit) ->
    data:bytes ->
    unit ->
    t
  (** Builds all TPDUs from [data] up front and starts transmitting
      within the window as soon as the engine runs.  [?first_tid] offsets
      the T.ID space (re-established connections must not reuse live
      T.IDs).  [?announce_open] piggybacks a {!Labelling.Connection.Open}
      signal on every transmission of the first TPDU, so a lost Open is
      re-announced by the retransmission machinery for free. *)

  val on_packet : t -> bytes -> unit
  (** Feed a packet from the reverse path (ACK/NACK chunks). *)

  val on_chunk : t -> Labelling.Chunk.t -> unit
  (** Feed one already-decoded reverse-path chunk (demultiplexer
      path). *)

  val start : t -> unit
  (** Schedule the initial window at the current simulated time. *)

  val finished : t -> bool

  val gave_up : t -> bool
  (** The sender abandoned at least one TPDU after repeated
      retransmission failures (a black-hole path); the transfer cannot
      report [ok]. *)

  val aborts_sent : t -> int
  (** [Abort_tpdu] signals put on the wire (one per abandoned TPDU). *)

  val retransmissions : t -> int

  val sack_retransmissions : t -> int
  (** Selective (gap-only) retransmissions triggered by NACKs. *)

  val tpdus_sent : t -> int
  val packets_sent : t -> int
  val bytes_sent : t -> int

  val current_tpdu_elems : t -> int
  (** instantaneous (adaptive) TPDU size *)

  val current_rto : t -> float
  (** The RTO currently governing retransmission timers (equals
      [config.rto] unless [rto_adaptive] has taken samples). *)

  val srtt : t -> float option
  (** Smoothed RTT estimate, if any sample has been taken. *)

  val rtt_samples : t -> int
  (** RTT samples accepted by Karn's rule. *)

  val max_txs_at_rtt_sample : t -> int
  (** The largest transmission count any sampled TPDU had at sampling
      time — Karn's rule holds iff this never exceeds 1. *)

  (** {2 Crash recovery} *)

  val export : t -> Persist.sender_image
  (** Snapshot the sender's recoverable state: the acknowledged-TPDU
      ledger and the RTT estimator.  Unacknowledged TPDUs are {e not}
      serialized — they are rebuilt from the re-offered data on restore
      and retransmitted with identical labels. *)

  val restore :
    Netsim.Engine.t ->
    config ->
    ?announce_open:bool ->
    send:(bytes -> unit) ->
    data:bytes ->
    Persist.sender_image ->
    t
  (** Rebuild a sender from its image around the re-offered [data].  The
      framer's label assignment is deterministic, so the rebuilt TPDUs
      carry their pre-crash T.IDs; those in the restored ledger are
      rebuilt but never (re)transmitted.
      @raise Invalid_argument if [config.adaptive] is set — adaptive
      sizing re-partitions the stream mid-flight, so a restored adaptive
      sender could assign different T.IDs to different bytes. *)

  val of_tpdus :
    Netsim.Engine.t ->
    config ->
    ?announce_open:bool ->
    send:(bytes -> unit) ->
    (int * Labelling.Chunk.t list) list ->
    t
  (** A sender over pre-cut, pre-sealed TPDUs (each [(t_id, chunks)]
      entry is the data chunks followed by their ED chunk), transmitted
      in list order — the hook for {!Interleave}: a priority scheduler
      decides the order across many X streams and this sender gives
      every TPDU the full retransmission/shed machinery without
      re-framing anything.  The first entry's [t_id] anchors the T.ID
      space (as [?first_tid] does for {!create}).
      @raise Invalid_argument on an empty list or an empty TPDU. *)

  val sheds_sent : t -> int
  (** TPDUs deliberately abandoned under the congestion shed policy
      ([config.shed_txs]); each is counted once, however many times its
      shed signal is retried. *)

  val bogus_acks : t -> int
  (** ACK or NACK traffic naming a T.ID this sender never transmitted
      (not in flight, never finished): fabricated acknowledgements,
      ignored on receipt but counted. *)
end

(** {1 One-call scenario driver} *)

type outcome = {
  ok : bool;
      (** delivered data equals sent data outside honoured shed spans
          (byte-exact everywhere when nothing was shed) *)
  sim_time : float;
  sent_bytes : int;  (** application payload bytes offered *)
  wire_bytes : int;  (** bytes put on the forward wire *)
  retransmissions : int;  (** full-TPDU timeout retransmissions *)
  sack_retransmissions : int;
      (** selective (gap-only) retransmissions triggered by NACKs *)
  element_delay : Netsim.Stats.summary option;
  tpdu_latency : Netsim.Stats.summary option;
  bus_crossings_per_byte : float;
  goodput_bps : float;
  final_tpdu_elems : int;  (** the sender's TPDU size at the end (differs
      from the configured one only for adaptive senders) *)
  verifier : Edc.Verifier.stats;
  final_rto : float;  (** the sender's RTO when the run ended *)
  rtt_samples : int;  (** RTT samples accepted by Karn's rule *)
  max_txs_at_rtt_sample : int;
      (** Karn's rule holds iff this never exceeds 1 *)
  receiver_evictions : int;
      (** governor evictions applied to the receiver *)
  sheds_sent : int;  (** TPDUs the sender deliberately abandoned *)
  sheds_received : int;  (** shed signals the receiver honoured *)
  shed_elems : int;  (** elements given up under honoured sheds *)
  shed_spans : (int * int) list;
      (** honoured shed cover, [(first_elem, elems)] runs ascending *)
  delivered : bytes;
      (** the receiver's application buffer, for shed-aware comparison *)
}

val equal_outside_sheds :
  elem_size:int ->
  spans:(int * int) list ->
  expected:bytes ->
  delivered:bytes ->
  bool
(** The partial-reliability delivery contract: [delivered] matches
    [expected] byte-for-byte everywhere except inside the shed [spans]
    (element runs of [elem_size]-byte elements). *)

val run :
  ?seed:int ->
  ?config:config ->
  ?loss:float ->
  ?corrupt:float ->
  ?duplicate:float ->
  ?paths:int ->
  ?skew:float ->
  ?rate_bps:float ->
  ?delay:float ->
  ?gateways:(Labelling.Repack.policy * int) list ->
  data:bytes ->
  unit ->
  outcome
(** Build a forward multipath (with impairments), an optional chain of
    in-network chunk gateways (each re-enveloping to its own MTU with
    its own Fig. 4 policy), and a clean reverse path; run a whole
    transfer to completion and report. *)
