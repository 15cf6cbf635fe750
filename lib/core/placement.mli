(** Spatial reordering (paper §1, footnote 2): placing disordered data
    directly where it belongs in the application's address space instead
    of temporally reordering it in protocol buffers.

    A bulk transfer can place each chunk at offset [C.SN * size] of the
    destination buffer regardless of arrival order; a video receiver can
    place each chunk at offset [X.SN * size] of the current frame
    buffer.  Either way the data crosses the memory system exactly once
    — the core performance argument for chunks.

    {2 Overlap policy: first-verified-wins}

    Byte-offset reassembly is notoriously ambiguous under overlapping
    segments with conflicting content (the classic OS/NIDS divergence);
    chunks resolve it deterministically.  Per element:

    - {e unplaced}: the newcomer's bytes are written.
    - {e placed, identical bytes}: benign duplicate, nothing happens.
    - {e placed, different bytes, resident verified (locked)}: the
      newcomer is counted, traced ({!Obs.Trace.Overlap}) and discarded —
      whichever TPDU passed WSC-2 verification first owns the bytes
      forever.
    - {e placed, different bytes, resident unverified}: the resident
      bytes are left alone and the conflict is reported to the caller
      ({!report.rp_conflicts} with {!Fresh_conflict}), who quarantines
      the newcomer until one side's parity settles the dispute; a
      {!place_verified} write then reclaims the bytes from the
      unverified squatter.

    The result is arrival-order {e determinism}: delivered bytes always
    come from the first TPDU to pass verification over that region, for
    every interleaving of an overlap set. *)

type level = Conn | Tpdu | External
(** Which framing level's SN addresses the destination. *)

type kind =
  | Verified_conflict
      (** the resident bytes are verified-locked; the newcomer was
          discarded *)
  | Fresh_conflict
      (** neither side is verified; the resident bytes were kept and the
          newcomer's run is reported for quarantine *)

type report = {
  rp_fresh : (int * int) list;
      (** element runs (relative to [base_sn]) freshly written by this
          call — including squatter bytes a {!place_verified} write
          reclaimed *)
  rp_benign : (int * int) list;
      (** runs whose resident bytes already equalled the newcomer's *)
  rp_conflicts : (int * int * kind) list;
      (** conflicting runs, in ascending order *)
}

type overlap_stats = {
  os_conflicts_seen : int;  (** conflicting elements encountered, total *)
  os_conflicts_rejected : int;
      (** elements discarded because the resident bytes were verified *)
  os_quarantined : int;
      (** fresh-vs-fresh conflict elements deferred to parity *)
  os_verified_overwrites : int;
      (** {!place_verified} writes that met locked-different bytes — two
          WSC-2-verified TPDUs disagreeing about one element.  Impossible
          without a forged parity; the conformance oracle asserts this
          stays zero in every profile. *)
}

type t

val create : level:level -> base_sn:int -> capacity_elems:int -> elem_size:int -> t
(** A destination buffer of [capacity_elems * elem_size] bytes; element
    [base_sn] of the chosen level lands at offset 0. *)

val place : t -> Chunk.t -> (unit, string) result
(** Copy a data chunk's payload to its home offset under the
    first-verified-wins policy (conflict outcomes are discarded; use
    {!place_checked} to see them).  Fails on control chunks,
    element-size mismatch, or out-of-window SNs.  Idempotent under
    duplicates; conflicting bytes never clobber a verified region. *)

val place_checked : t -> Chunk.t -> (report, string) result
(** Like {!place}, returning the per-element outcome so the caller can
    quarantine {!Fresh_conflict} runs.  Same failure cases. *)

val place_verified : t -> Chunk.t -> (report, string) result
(** Write on behalf of a TPDU whose parity has {e passed}: overwrites
    unverified squatters, never locked-different bytes (those increment
    [os_verified_overwrites] and are reported as {!Verified_conflict}).
    The caller should then {!lock_span} the runs it now owns
    ([rp_fresh @ rp_benign]). *)

val place_slice :
  t ->
  verified:bool ->
  sn:int ->
  size:int ->
  conn:int ->
  tpdu:int ->
  bytes ->
  off:int ->
  len:int ->
  (report, string) result
(** [place_slice p ~verified ~sn ~size ~conn ~tpdu src ~off ~len] places
    the [len] elements of [size] bytes that start at byte [off] of
    [src], labelled [sn] at [p]'s level, straight from [src]: the entry
    point {!place_checked} ([~verified:false]) and {!place_verified}
    ([~verified:true]) wrap, for a caller that holds a run of a larger
    payload and should not copy it out first.  [conn] and [tpdu] only
    label {!Obs.Trace.Overlap} events.  Fails on element-size mismatch,
    an out-of-window run, or a slice that overruns [src].  [src] is only
    read during the call; nothing keeps a reference to it. *)

type tally = {
  mutable runs : (int * int) list;
      (** written and benign runs, newest first: each {!place_tally} call
          conses its own onto what it finds here *)
  mutable held : bool;
      (** the last call held a run for quarantine ({!Fresh_conflict}) *)
}
(** What {!place_tally} reports in place of a {!report}. *)

val place_tally :
  t ->
  tally ->
  verified:bool ->
  sn:int ->
  size:int ->
  conn:int ->
  tpdu:int ->
  bytes ->
  off:int ->
  len:int ->
  bool
(** {!place_slice} for the receive path, which needs to know only which
    runs the write covers and whether one waits in quarantine: the
    call's {!report.rp_fresh} and {!report.rp_benign} runs (one per
    maximal run, as there) are consed onto [tally.runs] and
    [tally.held] says whether [rp_conflicts] would hold a
    {!Fresh_conflict}.  Returns [false], leaving [tally] as it was,
    where {!place_slice} returns [Error].  Allocates only the run
    cells. *)

val lock_span : t -> sn:int -> len:int -> unit
(** Mark an element run (relative to [base_sn]) as verified: its bytes
    can never again be overwritten by conflicting data.  Out-of-window
    runs are ignored.  Locking also makes the run occupied, so the
    policy treats its bytes as content; an element that no placed or
    restored run covers still stays out of {!spans} and
    {!placed_elems} until one does. *)

val locked_spans : t -> (int * int) list
(** Maximal locked element runs, ascending: the verified coverage (the
    union of every run {!lock_span} accepted).  Computed on demand, in
    time linear in the capacity. *)

val locked_frontier : t -> from:int -> int
(** [locked_frontier p ~from] is the first element at or after [from]
    that is not locked: the capacity if every element from [from] on is
    locked, [from] itself if [from] is past the last element.  The end
    of the locked prefix is kept as runs are locked, so the walk starts
    there when [from] is inside the prefix. *)

val overlap_stats : t -> overlap_stats

val zero_overlap_stats : overlap_stats
(** All-zero {!type:overlap_stats}, the identity of {!add_overlap_stats}. *)

val add_overlap_stats : overlap_stats -> overlap_stats -> overlap_stats
(** Field-wise sum — used to aggregate across buffers (epochs, crash
    incarnations). *)

val placed_elems : t -> int
(** Distinct elements covered by a placed or restored run so far;
    constant time. *)

val spans : t -> (int * int) list
(** Placed element runs as [(sn, len)] relative to [base_sn], ascending
    and coalesced: the union of every run placed (whatever its
    per-element outcome) or restored.  With {!contents} this is the
    whole recoverable placement state (crash-recovery snapshots
    serialise exactly these runs and their bytes).  Computed on demand,
    in time linear in the capacity. *)

val restore_span : t -> sn:int -> bytes -> (unit, string) result
(** [restore_span p ~sn data] re-places a previously placed run from a
    persisted snapshot: [data] must be a whole number of elements, which
    land at element [sn] (relative to [base_sn]).  Fails — never raises
    — on ragged lengths or out-of-window SNs, so a corrupted snapshot
    degrades to missing data that retransmission repairs.  Restored
    runs are unlocked; the caller re-locks the verified spans it
    restored ({!lock_span}). *)

val is_full : t -> bool
val contents : t -> bytes
(** The destination buffer (not a copy). *)

val holes : t -> (int * int) list
(** Element runs outside {!spans}, as [(sn, len)] relative to
    [base_sn], ascending; computed on demand. *)
