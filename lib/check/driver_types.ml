(* The driver's types, written once.  [Driver] re-exports them; this
   module has no interface of its own, so neither the definitions nor
   their documentation are repeated. *)

(* Stack bugs injected at the receiver door to prove the oracle can see
   (and the shrinker can minimise) real misbehaviour.  The door is the
   one point every forward packet crosses, whatever the topology. *)
type mutation =
  | No_mutation
  | Flip_every of int
      (** XOR one byte of every [n]th packet at the receiver door — an
          injected stack bug the oracle must catch *)
  | Dup_every of int
  | Drop_every of int
  | Corrupt_restore
      (** flip one already-verified byte in the first snapshot restored
          after a crash — a corrupted persisted image the oracle must
          catch (its TPDU is in the ledger, so no retransmission can
          heal it) *)
  | Overlap_clobber
      (** forge a {e validly sealed} TPDU with divergent bytes over the
          first observed data chunk's range and inject it ahead — it
          verifies first, locks the range, and the first-verified-wins
          policy then rejects the sender's real bytes, so the delivered
          data diverges from the sent data: the overlap-consistency /
          data-mismatch checks must catch it.  (No honest network
          element can author a valid seal, which is why this is a
          mutation rather than an {!Netsim.Overlapper} mode.) *)
  | Shed_clobber
      (** mis-configure {e both} endpoints to treat TPDU 0 as expendable
          (classify it [Sheddable 1] and arm the sender's shed policy)
          and swallow every packet carrying TPDU-0 data at the receiver
          door, so the stack sheds a TPDU the schedule's shed contract
          declares Critical/Normal — the shed-safety check must catch
          the missing bytes.  Forced directly into the endpoint configs,
          so it survives the [shed=none] shrink. *)
  | Byz_clobber
      (** disable the anomaly-scoring quarantine ([anomaly_budget = 0]
          at creation {e and} at every restore) so the byzantine peer
          runs unboxed: its Open/Close flapping accumulates
          per-connection epochs without bound, the isolation-budget
          violation the oracle must catch.  Proves the containment is
          the defense's doing, not an accident of the schedule. *)

type epoch_obs = {
  e_conn : int;
  e_epoch : int;
  e_gave_up : bool;  (** the sender abandoned TPDUs in this epoch *)
  e_complete : bool;
  e_delivered : bytes option;
      (** the epoch's receiver buffer; [None] if the receiver never saw
          the epoch *)
}

type multi_obs = {
  mo_epochs : epoch_obs list;
  mo_live_conns : int;  (** connections still live at quiescence *)
}

(** Deltas of the process-wide [Obs] metric registry over exactly one
    run, feeding the oracle's metrics-driven checks.  All zeros when the
    observability layer is compiled out ([Obs.enabled = false]). *)
type metrics_probe = {
  mp_verified : int;  (** [edc_tpdus_passed_total] delta over the run *)
  mp_acked : int;  (** [transport_acks_total] delta over the run *)
  mp_governor_peak : int;
      (** high-water mark of [governor_occupancy_bytes] over the run *)
}

(** A counterfactual re-run of the schedule, changing exactly one
    thing: [Permuted] re-executes an overlap schedule with a different
    overlap-injection seed (the adversary's arrival order and mode mix
    are permuted over the identical legitimate transfer); [Byz_free]
    removes the byzantine peer (its RNG is its own and its packets
    bypass the shared links, so the honest wire is byte-identical);
    [Cache_off] runs a multi-connection fastpath schedule with
    [fastpath = false] over an identical wire.  The [overlap-determinism], [blast-radius] and
    [fastpath-coherence] oracle rows compare each with the primary
    run. *)
type rerun = Permuted | Byz_free | Cache_off

(** The endpoint-side containment view of one byzantine connection at
    quiescence (the quarantine ledger is persisted per connection, so
    this is the whole run's story even across crashes). *)
type byz_conn_obs = {
  bc_conn : int;
  bc_epochs : int;  (** epochs the peer ever started on this C.ID *)
  bc_hist_bytes : int;  (** archived-epoch bytes parked on the endpoint *)
}

(** What the byzantine adversary did and what it cost the endpoint —
    the [isolation-budget] oracle row bounds {!byz_conn_obs} and the
    [honest-immunity] row demands [bo_honest_quarantined = 0]. *)
type byz_obs = {
  bo_stats : Netsim.Byzantine.stats;
  bo_conns : byz_conn_obs list;
  bo_honest_quarantined : int;
      (** honest connections ever boxed or poisoned — must stay 0:
          only provably-authored anomalies are scored *)
}

type observation = {
  ok : bool;  (** delivered prefix equals sent data (every epoch) *)
  complete : bool;  (** connection placement buffer fully covered *)
  gave_up : bool;
  finished : bool;
  delivered : bytes;
  delivered_elems : int;
  retransmissions : int;
  sack_retransmissions : int;
  packets_sent : int;
  verifier : Edc.Verifier.stats;
      (** single-path only; zeroed in multi mode (archived epochs
          release their verifiers) *)
  verifier_in_flight : int;  (** leak probe *)
  stashed_tpdus : int;  (** leak probe *)
  engine_pending : int;  (** > 0 after the horizon means lockup *)
  sim_time : float;
  forward : Netsim.Link.stats;  (** aggregate over the multipath *)
  dropper : Netsim.Dropper.stats option;
  gateways_malformed : int;
  rx_stats : Transport.Chunk_transport.Rx_stats.t;
      (** every receive-side counter — NACKs, re-ACKs, evictions, aborts,
          sheds, overlap conflicts, connection GC/displacement/drops and
          containment — summed over every endpoint incarnation the run
          went through ({!Transport.Chunk_transport.Receiver.stats} or
          {!Transport.Multi.stats} at each crash and at the end).  The
          endpoint fields stay zero on single-path runs. *)
  aborts_sent : int;  (** sender give-ups signalled via [Abort_tpdu] *)
  sheds_sent : int;  (** sender shed decisions signalled via [Shed_tpdu] *)
  shed_spans : (int * int) list;
      (** the receiver's honoured shed spans [(first_elem, elems)],
          ascending; empty in multi mode (sheds are single-transfer
          only) *)
  state_high_water : int;  (** governor high-water mark, bytes *)
  state_accounted : int;  (** bytes still accounted at quiescence *)
  flood_injected : int;  (** adversary packets injected *)
  rtt_samples : int;  (** RTT samples taken (Karn-filtered) *)
  max_txs_at_rtt_sample : int;
      (** highest transmission count of any sampled TPDU; > 1 breaks
          Karn's rule *)
  final_rto : float;  (** sender's RTO at the end of the run *)
  crashes_injected : int;  (** scheduled crashes actually executed *)
  restores : int;  (** successful endpoint restores *)
  recovery_bad : int;
      (** recovery-safety probe failures: an unreadable snapshot, an
          image of the wrong endpoint shape, or a restored endpoint
          whose ledger and in-flight verifier state overlap *)
  restore_over_budget : int;
      (** restores whose re-derived governor occupancy exceeded the
          configured state budget *)
  roundtrip_failures : int;
      (** snapshot codec fixpoint or export/restore round-trip
          mismatches observed at restores *)
  snapshots_taken : int;  (** full snapshots written to the store *)
  journal_records : int;  (** journal records appended over the run *)
  multi : multi_obs option;  (** present iff the schedule is multi *)
  metrics : metrics_probe;
  overlap_injected : int;  (** overlap-adversary packets put on the wire *)
  fastpath_stats : Transport.Flowcache.stats;
      (** connection-cache counters ({!Transport.Multi.fastpath_stats}),
          accumulated across crash incarnations; all zero on slow-path
          and single-connection runs *)
  byz : byz_obs option;  (** present iff the schedule runs the adversary *)
  counterfactuals : counterfactual list;
      (** one per re-run the schedule calls for: [Permuted] for a
          single-path overlap schedule, [Byz_free] with a byzantine
          peer, [Cache_off] with the fast path on a multi-connection
          schedule *)
}

(** What a counterfactual re-run observed (its own [counterfactuals]
    are empty). *)
and counterfactual = { cf_rerun : rerun; cf_run : observation }
