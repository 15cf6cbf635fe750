(** Adversarial run descriptions for the conformance harness.

    A schedule is everything a {!Driver} run depends on: the transfer
    parameters, the control-plane policy (RTO estimation, give-up,
    receiver state budget/TTL, number of connections), the network
    topology (multipath spread/skew/jitter, a chain of repacking
    gateways), and the fault mix.  Together with its [seed] it
    determines a run {e completely} — the same (seed, schedule) pair
    replays the same packet-by-packet execution, which is what makes
    shrunk counterexamples replayable. *)

include module type of struct
  include Schedule_types
end

val profile_name : profile -> string
val profile_of_name : string -> profile option

val all_profiles : profile list
(** Every profile, in presentation order. *)

val generate : profile:profile -> seed:int -> t
(** Draw a random schedule for the profile; all dimension constraints
    (element alignment, invariant-region TPDU bound, MTUs that hold a
    header, TTLs beyond the longest legitimate quiet period, budgets
    above the legitimate working set) hold by construction, and {!t.rto}
    is an overestimate of the worst-case round trip so a fault-free run
    never retransmits. *)

val faultless : t -> bool
(** No fault of any kind is enabled (so the oracle may demand total
    silence: no retransmission, no NACK, no duplicate, no failure). *)

val multi_mode : t -> bool
(** The schedule exercises the demultiplexing receiver (more than one
    connection, connection reuse, a flood adversary, or a byzantine
    peer) and runs through the driver's multi-connection path. *)

val horizon : float
(** Simulated-time bound on a run (1000 s); far beyond the slowest
    legitimate completion or give-up. *)

val config_of : t -> Transport.Chunk_transport.config
(** Includes the shed contract: [classify] marks {!sheddable_tid} T.IDs
    [Sheddable 1] and [shed_txs] arms the sender's shed policy, so both
    endpoints (and the oracle) derive the same contract from the
    schedule alone. *)

val n_elems : t -> int
(** Elements of the single-transfer stream after framing (mirrors the
    framer's padding rules; what {!Model} calls [elems]). *)

val n_tpdus : t -> int
(** TPDUs of the single-transfer stream under the fixed partition. *)

val sheddable_tid : t -> t_id:int -> bool
(** Whether the shed contract declares [t_id] sheddable: every
    [sh_every]-th TPDU except the last (the C.ST carrier).  Always false
    without a shed spec. *)

val data_of : t -> bytes
(** The transfer payload, derived deterministically from the seed
    (connection 1, epoch 0). *)

val data_of_conn : t -> conn:int -> epoch:int -> bytes
(** The payload of one (connection, epoch) stream. *)

val to_string : t -> string
(** One-line [key=value] form; floats are printed with enough digits to
    round-trip bit-exactly. *)

val of_string : string -> t option
(** Inverse of {!to_string}; [None] on any malformed, unknown, missing
    or repeated token. *)

val unknown_fields : string -> string list
(** The tokens of a replay spec that name no known schedule field
    (including bare tokens with no [=]) — what made {!of_string} return
    [None] on an otherwise well-formed line, for a readable CLI
    diagnostic. *)

val neutral : string -> t -> t option
(** [neutral name s] is [s] with the field named [name] reset to its
    neutral value — the setting that switches the fault off or collapses
    the dimension (no crashes, one path, loss 0, ...) — or [None] when
    the field already holds it.  What the shrinker's resets are made
    of.  Raises [Invalid_argument] for a field without a neutral
    value. *)

val validate : t -> (unit, string) result
(** Semantic gate over a parsed schedule: every dimension constraint
    the driver and transport rely on (element alignment, the
    invariant-region TPDU bound, MTUs that hold a header, positive
    timers, probabilities in [0, 1], ordered non-overlapping crashes
    that restart before the {!horizon}, overlap only on the
    single-transfer path, no NaN in any field).
    [generate] satisfies it by construction; hand-edited replay specs
    get one readable line instead of an exception from deep inside the
    transport. *)
