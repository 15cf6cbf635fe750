(** Crash-recovery images of transport endpoints: versioned snapshot
    codec, append-only journal, and the replay rule that rebuilds an
    endpoint from both.

    The paper's compact-state receiver (WSC-2 parities + virtual
    reassembly spans + a small label table per in-flight TPDU) makes
    durability cheap: the whole recoverable state of an endpoint fits in
    a few kilobytes, and each acknowledgement appends one journal record
    carrying exactly the bytes that ACK promised to keep.  Recovery is
    therefore {e write-ahead}: the receiver journals the promise before
    the ACK leaves, so a restored endpoint never claims data it cannot
    produce.

    On-wire framing is {!Labelling.Wire.encode_record}: length-prefixed,
    WSC-2-checksummed records.  A snapshot is one record prefixed by the
    magic ["CSNP"] and a version number; a journal is a plain
    concatenation of event records.  Decoding never raises — corruption
    surfaces as [Error], and journal replay truncates at the first
    damaged record (torn-write tolerance). *)

(** {1 Images}

    Plain values mirroring the recoverable parts of the live endpoint
    state, with every list in canonical sorted order so that
    [export (restore image) = image] holds structurally. *)

type corrob_image = {
  pi_t_id : int;  (** the TPDU this corroboration state belongs to *)
  pi_delta_data : int option;  (** C.SN - T.SN claimed by data chunks *)
  pi_delta_ed : int option;  (** C.SN - T.SN claimed by the ED chunk *)
  pi_confirmed : bool;  (** the two deltas have agreed *)
  pi_stash : (bytes * int * int) list;
      (** unplaced chunks awaiting corroboration, oldest first, each as
          (encoded one-chunk packet, T.SN, element count) *)
  pi_placed_runs : (int * int) list;
      (** (C.SN, elements) runs this TPDU has already placed *)
}
(** Per-TPDU spatial-corroboration state
    (placement gating, see [Chunk_transport.Receiver]). *)

type receiver_image = {
  ri_conn : int;  (** connection id the receiver serves *)
  ri_placed : (int * bytes) list;
      (** placed destination bytes as (C.SN, bytes) runs, sorted and
          coalesced exactly as [Labelling.Placement.spans] reports *)
  ri_verified : (int * int) list;
      (** verified cover as (C.SN, elements) spans, sorted, coalesced:
          the receiver's maximal locked runs; on restore a span outside
          the placement window is dropped *)
  ri_end_confirmed : int option;  (** last element's C.SN, once ACKed *)
  ri_end_claims : (int * int) list;
      (** per-TPDU end-of-stream claims not yet verified, by T.ID *)
  ri_last_reack : (int * float) list;
      (** re-ACK throttle clocks, (T.ID, last re-ACK time) *)
  ri_passed : int;
      (** TPDUs verified over the whole epoch, across restarts — the
          archive gate ([Multi] keeps an epoch only if it delivered) *)
  ri_tpdus : Edc.Verifier.tpdu_image list;  (** in-flight verifier state *)
  ri_corrob : corrob_image list;  (** in-flight corroboration state *)
}
(** Everything a [Chunk_transport.Receiver] cannot re-derive after a
    crash.  Governor accounting is deliberately absent: occupancy is
    recomputed from the restored state on restore. *)

type sender_image = {
  si_first_tid : int;  (** T.ID of the transfer's first TPDU *)
  si_acked : int list;  (** T.IDs already acknowledged, ascending *)
  si_srtt : float option;  (** smoothed RTT, if any sample was taken *)
  si_rttvar : float;  (** RTT variance estimate *)
  si_rto_cur : float;  (** current retransmission timeout *)
  si_tpdu_elems : int;  (** TPDU size in force (adaptive sizing) *)
}
(** The sender state worth keeping: which TPDUs are done and the RTT
    estimator.  Unsent data is the application's to re-offer; unacked
    TPDUs are rebuilt from the data and retransmitted with identical
    labels, which the receiver absorbs as duplicates. *)

type single_image = {
  s_acked : int list;  (** the ACK ledger, ascending *)
  s_rx : receiver_image;  (** the receiver proper *)
}
(** A standalone (single-connection) receiver endpoint. *)

type conn_image = {
  ci_id : int;  (** connection id *)
  ci_acked : int list;  (** per-connection ACK ledger, ascending *)
  ci_hist : (bytes * bool * int option) list;
      (** archived epochs, oldest first, as (delivered bytes, complete,
          announced Open C.SN) — the C.SN is [None] for an epoch that
          was only ever established implicitly *)
  ci_live : receiver_image option;  (** the live epoch, if any *)
  ci_live_open : int option;
      (** the live epoch's announced Open C.SN, when one was seen *)
  ci_quar_until : float;
      (** the connection's quarantine deadline (simulated time); [0.]
          when it was never boxed — containment must survive a crash,
          or a boxed peer could earn a fresh admission by forcing a
          restart *)
  ci_quar_count : int;  (** admissions revoked so far (backoff input) *)
  ci_poisoned : bool;  (** torn down by an exception bulkhead: permanent *)
}
(** One connection of a [Multi] endpoint. *)

type endpoint_image =
  | Single of single_image
  | Multi of conn_image list  (** connections ascending by id *)

type event =
  | Acked of {
      conn : int;  (** connection id *)
      t_id : int;  (** the TPDU being acknowledged *)
      end_confirmed : int option;  (** end-of-stream C.SN, if confirmed *)
      runs : (int * bytes) list;
          (** the (C.SN, bytes) runs this ACK promises to keep *)
    }
      (** Written {e before} the ACK packet leaves: the durable record
          of what the receiver told the sender it may forget. *)
  | Opened of { conn : int; open_csn : int option }
      (** a fresh epoch started on this connection, with the Open
          chunk's announced first C.SN when the epoch was established
          explicitly *)
  | Archived of int  (** the live epoch was archived on this connection *)
  | Closed of int  (** the connection was closed *)

val empty_receiver : conn:int -> receiver_image
(** A blank receiver image for connection [conn] — the restore base when
    no snapshot exists yet. *)

val normalize_runs :
  elem_size:int -> (int * bytes) list -> (int * bytes) list
(** Sort (C.SN, bytes) runs and fuse overlapping or adjacent ones
    (later bytes win on overlap; identical-label retransmission makes
    overlaps byte-identical anyway) into the canonical coalesced form
    {!receiver_image.ri_placed} uses. *)

val apply_journal :
  elem_size:int ->
  quota_elems:int ->
  endpoint_image ->
  event list ->
  endpoint_image
(** Replay journal events over a snapshot image.  [quota_elems] sizes
    the delivered-bytes buffer when an [Archived]/[Closed] event folds a
    live epoch into history (mirroring [Multi]'s quota).  Conservative:
    events for unknown connections create them (acknowledged state is
    durable even when the matching [Opened] record was torn away), and
    replay never raises. *)

val verified_frontier : (int * int) list -> int
(** First element C.SN not covered by the contiguous verified prefix of
    the given sorted spans (0 when nothing is verified from the
    start). *)

(** {1 Codec} *)

val version : int
(** Snapshot format version (2).  The rule: any change to the field
    layout bumps this, and a decoder rejects images whose version it
    does not know — there is no cross-version repair. *)

val encode_endpoint : endpoint_image -> bytes
(** Serialize a snapshot: magic, version, one checksummed record. *)

val decode_endpoint : bytes -> (endpoint_image, string) result
(** Parse a snapshot.  [Error] — never an exception — on bad magic,
    unknown version, checksum mismatch, truncation, or trailing
    bytes. *)

val encode_sender : sender_image -> bytes
(** Serialize a sender image (same framing as {!encode_endpoint}). *)

val decode_sender : bytes -> (sender_image, string) result
(** Parse a sender image; [Error] on any corruption, never raises. *)

val encode_event : event -> bytes
(** Serialize one journal record (self-delimiting; records
    concatenate). *)

val decode_journal : bytes -> event list * bool
(** Parse a journal: the trusted prefix of events, and whether decoding
    stopped early at a torn or unparseable record ([true] = the tail
    was discarded). *)

(** {1 In-memory store}

    The simulator's stand-in for stable storage: holds the latest
    snapshot and the journal written since.  Taking a snapshot truncates
    the journal (the snapshot subsumes it). *)

module Store : sig
  type t

  val create : unit -> t
  (** An empty store: no snapshot, no journal. *)

  val snapshot : t -> endpoint_image -> unit
  (** Replace the stored snapshot with [image] and truncate the
      journal.  Records the encoded size in the
      [persist_snapshot_bytes] histogram. *)

  val append : t -> event -> unit
  (** Append one journal record ([persist_journal_records_total]). *)

  val recover :
    elem_size:int ->
    quota_elems:int ->
    empty:endpoint_image ->
    t ->
    (endpoint_image * bool, string) result
  (** Rebuild the endpoint image: decode the snapshot (or start from
      [empty] if none was ever taken), replay the journal, report
      whether the journal was torn.  Counts [persist_restores_total]
      and, on a torn journal, [persist_journal_truncations_total].
      [Error] only when the snapshot itself is unreadable. *)

  val corrupt_tail : t -> unit
  (** Flip one bit in the journal's last byte — the mutation hook the
      soak harness uses to prove a corrupted image is detected, not
      silently restored. *)

  val snapshots_taken : t -> int
  (** Snapshots stored so far. *)

  val journal_records : t -> int
  (** Journal records appended since creation (not reset by
      {!snapshot}). *)

  val snapshot_bytes : t -> int
  (** Encoded size of the current snapshot (0 if none). *)

  val journal_bytes : t -> int
  (** Bytes currently in the journal. *)
end

(** {1 Metrics} *)

val m_recovery : Obs.Metrics.histogram
(** [persist_recovery_wall_us] — wall-clock microseconds spent
    rebuilding a live endpoint from its persisted image; observed by
    the harness around each restore. *)
