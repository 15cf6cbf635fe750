(** Receiver side of end-to-end error detection (paper §4):
    incremental, order-independent verification of TPDUs as chunks
    arrive, with no physical reassembly.

    For each in-flight TPDU the verifier keeps a WSC-2 accumulator, a
    virtual-reassembly tracker and the two SN consistency deltas.  Every
    arriving chunk is folded in immediately; when virtual reassembly
    completes and the TPDU's ED chunk has arrived, a verdict is emitted.
    Duplicates (including differently-refragmented retransmissions) are
    absorbed exactly once via {!Labelling.Vreassembly.insert_new} — the
    protection the paper demands so the incremental checksum is not
    corrupted by duplicated data.

    Detection follows Table 1:
    - payload / C.ID / T.ID / C.ST / X.ID / X.ST corruption → parity
      mismatch;
    - C.SN / X.SN corruption → consistency-check failure
      ([C.SN - T.SN] resp. [C.SN - X.SN] not constant);
    - TYPE / LEN / SIZE / T.SN / T.ST corruption → virtual-reassembly
      failure (overlap, inconsistent end, size clash) or — when
      reassembly still completes, e.g. compensating LEN/T.SN changes —
      parity mismatch. *)

type verdict =
  | Passed
  | Parity_mismatch
  | Consistency_failure of string
      (** which invariant broke, e.g. ["C.SN - T.SN changed"] *)
  | Reassembly_error of string

val pp_verdict : Format.formatter -> verdict -> unit
val verdict_equal : verdict -> verdict -> bool

type event =
  | Tpdu_verified of { t_id : int; verdict : verdict }
      (** all pieces (and the ED chunk) arrived; state for this TPDU is
          released *)
  | Fresh_data of { t_id : int; t_sn : int; elems : int }
      (** newly received elements, suitable for immediate placement *)
  | Duplicate_dropped of { t_id : int }

type t

val create : ?now:(unit -> float) -> unit -> t
(** [now] is the clock used to timestamp per-TPDU state creation and
    verdicts for the [edc_verify_latency_us] histogram (see
    [Obs.Metrics]); it defaults to reading the global simulation clock
    [Obs.now], which [Netsim.Engine] keeps stamped.  Pass an explicit
    clock when running the verifier outside a simulation. *)

val on_view : t -> Labelling.Wire.Scan.view -> bytes -> int -> event list
(** [on_view v h buf off] feeds one arriving chunk whose labels are
    viewed in [h] and whose payload is the
    [Labelling.Wire.Scan.view_payload_bytes h] bytes of [buf] at [off] —
    typically the packet it arrived in, so neither labels nor payload
    are copied (the receive path's entry).  Data and ED control chunks
    are processed; other control types and terminators are ignored.
    Never raises on malformed labels or payload — damage is recorded and
    surfaces in the verdict.  Neither [h] nor [buf] is retained after
    the call returns.
    @raise Invalid_argument if the payload slice is outside [buf]. *)

val on_chunk : t -> Labelling.Chunk.t -> event list
(** {!on_view} of one materialised chunk: its header read into a view
    the verifier owns, its payload at offset 0. *)

val in_flight : t -> int
(** TPDUs with state held (arrived but not yet verified). *)

val in_flight_ids : t -> int list
(** T.IDs of the TPDUs currently held, ascending. *)

val missing : t -> t_id:int -> (int * int) list option
(** The element runs still unreceived for an in-flight TPDU, as
    [(t_sn, len)] pairs (virtual reassembly's gap report, the basis of
    selective retransmission).  [None] if no state is held for [t_id];
    an unbounded tail (end not yet known) is not reported. *)

val ed_seen : t -> t_id:int -> bool
(** Whether the TPDU's ED chunk has arrived. *)

val abort : t -> t_id:int -> verdict option
(** Give up on an in-flight TPDU (e.g. timer expiry): returns the
    verdict it would fail with now, and releases its state. *)

val abandon : t -> t_id:int -> verdict option
(** Alias of {!abort} — the name the receiver's state governor uses for
    deadline/budget eviction. *)

val footprint_bytes : t -> t_id:int -> int
(** Approximate bytes of soft state held for an in-flight TPDU (WSC-2
    accumulator, virtual-reassembly spans, label tables); 0 when no
    state is held.  The receiver's state governor charges this against
    its budget. *)

(** {1 Statistics} *)

type stats = {
  tpdus_passed : int;
  tpdus_failed : int;
  duplicates : int;
  chunks_seen : int;
}

val stats : t -> stats

val zero_stats : stats
(** All-zero {!type:stats}, the identity of {!add_stats}. *)

val add_stats : stats -> stats -> stats
(** Field-wise sum — used to aggregate across crash incarnations. *)

(** {1 Persistence}

    The paper's compact-state argument made durable: an in-flight TPDU
    is fully described by its WSC-2 parity, its virtual-reassembly
    spans, and a handful of label cells — small enough to snapshot on
    every acknowledgement.  Restoring an image and replaying the
    remaining chunks is indistinguishable from never having crashed,
    because WSC-2 accumulation is order-independent XOR. *)

type tpdu_image = {
  ti_t_id : int;
  ti_parity : Wsc2.parity;  (** accumulator state, as its parity *)
  ti_spans : (int * int) list;  (** received [(t_sn, len)] runs *)
  ti_total : int option;  (** TPDU extent, once known *)
  ti_pairs : int list;  (** boundary T.SNs already paired *)
  ti_x_deltas : (int * int) list;  (** X.ID → C.SN - X.SN *)
  ti_delta_ct : int option;  (** C.SN - T.SN *)
  ti_c_id : int option;
  ti_size : int option;
  ti_labels_done : bool;
  ti_expected : Wsc2.parity option;  (** ED chunk's parity, if seen *)
  ti_damage : string option;
  ti_x_spans : (int * int * int * int) list;
      (** fresh [(t_sn, len, x_id, x_sn)] runs for X-framing checks *)
}
(** Everything about one in-flight TPDU that cannot be re-derived, with
    all lists in canonical sorted order (export/import round-trips
    compare structurally equal). *)

val export : t -> tpdu_image list
(** Images of every in-flight TPDU, ascending by T.ID. *)

val import : t -> tpdu_image -> unit
(** Recreate one TPDU's state from its image (re-born at the current
    clock reading).  A T.ID already held is left untouched; a corrupted
    image degrades to partial state that identical-label retransmission
    repairs — never an exception. *)
