(** Receiver state governor: a byte-accounted budget with delta-t-style
    deadlines over every piece of soft state the receiver holds
    (verifier accumulators, corroboration stashes, virtual-reassembly
    trackers, per-connection tables).

    Each piece of state is an entry keyed by (connection, TPDU); its
    byte cost is re-asserted and its expiry deadline refreshed on every
    activity ({!touch}).  Two eviction paths keep the account bounded:

    - {e deadline}: an entry idle past its TTL is evicted the next time
      the sweep timer fires ({!arm}) — delta-t's "all state has a
      timer" lifecycle, the cure for a sender that silently went away;
    - {e budget}: the instant a {!touch} would push the accounted total
      past the budget, oldest-deadline entries are evicted synchronously
      until it fits again, so a hostile flood of never-completing state
      can exhaust nothing.  The invariant "accounted state <= budget"
      holds after every event, which is what the conformance oracle
      checks.

    The governor only does the accounting; disposing of the real state
    is the owner's job via the [on_evict] callback.  Callbacks must not
    call {!touch} re-entrantly (removals are fine). *)

type key = { conn : int; tpdu : int }
(** [tpdu = -1] denotes connection-level state (placement buffer,
    connection-table entry); [tpdu >= 0] is per-TPDU soft state. *)

type stats = {
  accounted_bytes : int;  (** current total *)
  high_water : int;  (** peak accounted total, sampled after eviction *)
  entries : int;
  evictions_deadline : int;
  evictions_budget : int;
}

type t
(** One shared soft-state account: per-key byte charges, deadlines, and
    the eviction machinery (paper §3.2's bounded-receiver-state
    discipline, delta-t style). *)

val create :
  ?on_evict:(key -> unit) -> budget_bytes:int -> ttl:float -> unit -> t
(** [budget_bytes <= 0] means unlimited (accounting and deadlines still
    run). *)

val set_on_evict : t -> (key -> unit) -> unit
(** Install the disposal callback (the owner is usually created after
    the governor). *)

val touch : ?cls:int -> t -> key:key -> bytes:int -> now:float -> unit
(** Assert that [key]'s state currently costs [bytes] and refresh its
    deadline to [now + ttl]; creates the entry if missing, then enforces
    the budget.  Budget eviction picks the highest [cls] first
    (sheddable significance rank, see {!Labelling.Significance.rank};
    default [0] = fully reliable, evicted last) and the oldest deadline
    within a class — so under pressure sheddable state is displaced
    before Critical state, and with every entry at class 0 the policy is
    exactly the old oldest-deadline one.  The freshly touched entry goes
    last within its class, and only if it alone exceeds the budget. *)

val touch_class : t -> cls:int -> key:key -> bytes:int -> now:float -> unit
(** {!touch} with the class given: the receive path's form, which
    builds no option for it. *)

val remove : t -> key:key -> unit
(** Forget an entry without counting an eviction (normal completion). *)

val remove_conn : t -> conn:int -> unit
(** Forget every entry of one connection (close / connection GC), in
    time proportional to that connection's entries, not the table's. *)

val mem : t -> key:key -> bool

val arm : t -> Netsim.Engine.t -> unit
(** Ensure a deadline-sweep timer is pending whenever entries exist.
    Idempotent; call after every {!touch}.  The sweep evicts every
    expired entry, then re-arms itself only while entries remain, so a
    drained receiver lets the simulation terminate. *)

val sweep : t -> now:float -> unit
(** Evict every entry whose deadline has passed (the sweep timer's body;
    exposed for direct-drive tests). *)

val total : t -> int
(** Bytes currently accounted across all entries. *)

val high_water : t -> int
(** Peak of {!total}, sampled after every accounting step — what the
    conformance oracle bounds against the budget. *)

val stats : t -> stats
(** The full tally: current/peak bytes, entry count and eviction
    counts by cause. *)
