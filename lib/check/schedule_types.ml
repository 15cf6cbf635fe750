(* The schedule's types, written once.  [Schedule] re-exports them;
   this module has no interface of its own, so neither the definitions
   nor their documentation are repeated. *)

type profile =
  | Clean  (** no faults: reordering and refragmentation only *)
  | Lossy  (** loss, duplication, jitter, congestion drops — no corruption *)
  | Hostile  (** lossy plus random bit corruption in flight *)
  | Hostile_flood
      (** hostile plus a demultiplexing receiver under attack: several
          concurrent connections (sometimes closed and re-opened with
          the same C.ID), a connection-flood adversary forging Opens and
          never-completing TPDUs, a byte budget on receiver state, and
          sometimes a permanently dead ACK path (the sender must give up
          cleanly, the receiver must evict) *)
  | Outage_recover
      (** a scheduled forward-path outage (packets dropped, or held and
          replayed at resume); the transfer must recover and complete —
          give-up is a violation *)
  | Crash_restart
      (** the receiver endpoint crashes mid-transfer (one to three
          times), losing all in-memory state and any traffic in its down
          window, then restarts from its journaled snapshot; the
          transfer must still complete with no double delivery and no
          papered-over hole *)
  | Crash_flood
      (** crash-restart layered on a demultiplexing receiver under
          connection-flood pressure with a state budget: restored state
          must re-fit the budget and restored connections must survive
          the flood's displacement churn *)
  | Overlap_hostile
      (** hostile (light loss, corruption, duplication) plus an overlap
          adversary synthesizing overlapping retransmissions with
          {e conflicting} bytes: divergent duplicates of observed
          chunks, forged corroborated TPDUs over observed connection
          ranges, and overlapping gateway-style re-split chains — the
          first-verified-wins overlap policy must keep delivery
          byte-exact and arrival-order deterministic *)
  | Degrade_hostile
      (** graceful degradation under sustained congestion: a shed
          contract marks every N-th TPDU sheddable, a significance-aware
          dropper congestion-drops only sheddable traffic at 10-30%, and
          the sender's shed policy deliberately abandons sheddable TPDUs
          after a few transmissions — the stream must still complete,
          every Critical/Normal byte must arrive byte-exact, and only
          declared-sheddable spans may be missing *)
  | Fastpath_hostile
      (** the flow-cache fast path under hostile fire: every packet is
          delivered through {!Transport.Multi.ingest} /
          {!Transport.Chunk_transport.Receiver.ingest} with the cache
          on while corruption, loss, duplication and congestion drops
          attack the cached label prefixes, with a mix of single- and
          multi-connection runs (sometimes with C.ID reuse) churning the
          connection cache —
          and the [fastpath-coherence] oracle row replays the whole
          schedule with the cache off, demanding identical delivery and
          identical verdicts *)
  | Byzantine_hostile
      (** a wire-conformant but protocol-violating peer alongside the
          honest population: Open/Close flapping that parks archived
          epochs, label-plausible garbage TPDUs sealed with
          self-consistent parities, ACKs for never-sent TPDUs and
          contradictory ACK/NACK pairs, forged [Shed_tpdu] naming honest
          Critical streams, and verbatim replays of archived-epoch
          signals — the receiver's anomaly scoring must quarantine the
          byzantine connections while the [blast-radius] oracle row
          re-runs the schedule without the attacker and demands
          identical honest outcomes *)

type spread = Round_robin | Random_path | Route_change of float

type gateway = {
  gw_policy : Labelling.Repack.policy;
  gw_mtu : int;
  gw_batch : int;  (** arriving packets held before re-enveloping *)
}

type dropper = { drop_mode : Netsim.Dropper.mode; drop_loss : float }

type outage = {
  out_hold : bool;  (** pause-and-replay instead of discard *)
  out_start : float;
  out_duration : float;
}

type flood = {
  flood_rate : float;  (** forged packets per simulated second *)
  flood_stop : float;
  flood_conns : int;  (** distinct bogus connection ids in play *)
}

type crash = {
  cr_time : float;  (** the receiver endpoint dies here (simulated s) *)
  cr_restart : float;
      (** downtime before it restarts from its persisted image *)
}

type overlap = {
  ov_rate : float;  (** injections per simulated second *)
  ov_stop : float;  (** injection ends here *)
  ov_dup : bool;  (** divergent duplicates of observed chunks *)
  ov_forge : bool;  (** forged corroborated TPDUs over observed ranges *)
  ov_resplit : bool;  (** overlapping gateway-style re-split chains *)
}

type shed = {
  sh_every : int;
      (** every [sh_every]-th TPDU is declared sheddable (the last TPDU
          never is — it carries the C.ST stream-end marker) *)
  sh_txs : int;
      (** the sender sheds a sheddable TPDU after this many
          transmissions (must be [< give_up_txs]) *)
}

type byz = {
  bz_rate : float;  (** hostile actions per simulated second *)
  bz_stop : float;  (** the byzantine peer goes quiet here *)
  bz_conns : int;  (** distinct byzantine connection ids in play *)
  bz_acks : bool;
      (** ACKs for never-sent TPDUs and contradictory ACK/NACK pairs on
          the reverse path *)
  bz_sheds : bool;  (** forged [Shed_tpdu] naming honest Critical TPDUs *)
  bz_replay : bool;  (** verbatim replays of signals from archived epochs *)
  bz_garbage : bool;
      (** extra label-plausible garbage TPDUs sealed with self-consistent
          WSC-2 parities (they verify; the labels are the only lie) *)
}

type t = {
  seed : int;
  profile : profile;
  data_len : int;
  elem_size : int;
  tpdu_elems : int;
  frame_bytes : int;
  mtu : int;
  window : int;
  rto : float;
  sack : bool;
  adaptive : bool;
  nack_delay : float;
  rto_adaptive : bool;  (** Jacobson/Karn RTO estimation on the sender *)
  give_up_txs : int;  (** transmissions before a TPDU is abandoned *)
  state_budget : int;  (** receiver soft-state budget, bytes; 0 = unlimited *)
  state_ttl : float;  (** receiver soft-state idle deadline, seconds *)
  connections : int;  (** concurrent legitimate connections *)
  reopen : bool;  (** close connection 1 and re-open it (C.ID reuse) *)
  paths : int;
  skew : float;
  jitter : float;
  spread : spread;
  rate_bps : float;
  delay : float;
  gateways : gateway list;
  loss : float;
  corrupt : float;
  duplicate : float;
  dropper : dropper option;
  ack_blackhole : (float * float) option;
      (** reverse-path dead window (start, duration; duration may be
          [infinity]) *)
  outage : outage option;  (** forward-path outage window *)
  flood : flood option;  (** connection-flood adversary *)
  overlap : overlap option;  (** overlap adversary ({!Netsim.Overlapper}) *)
  shed : shed option;
      (** partial-reliability contract (which TPDUs are sheddable and
          when the sender sheds them); requires [adaptive = false], the
          single-transfer path, and no crash events *)
  crashes : crash list;
      (** receiver crash-restart events, ordered, non-overlapping *)
  snap_period : float;
      (** full-snapshot interval, seconds; 0 = ACK journalling only *)
  fastpath : bool;
      (** run {!Transport.Multi}'s connection cache; without it,
          packets still go through [ingest], but over a capacity-0
          cache — the cache-off reference.  Only multi-connection
          schedules have a cache: on a single-connection schedule the
          flag changes nothing.  Any schedule may draw it; on a
          multi-connection one ({!Schedule.multi_mode}) the
          [fastpath-coherence] oracle row re-runs the schedule with the
          cache off and demands identical outcomes *)
  byz : byz option;
      (** byzantine peer ({!Netsim.Byzantine}): valid wire format,
          violated protocol; forces the multi path, and the
          [blast-radius] oracle row re-runs the schedule with the peer
          removed and demands identical honest outcomes *)
}
