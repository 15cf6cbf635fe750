(** A bounded, allocation-cheap event recorder for driver runs.

    Runs are already replayable from (seed, schedule), so the trace's
    job is not capture-everything fidelity but a human-readable tail of
    what the network did, for inspecting a shrunk counterexample.  A
    ring buffer keeps the last [capacity] events; earlier ones are
    counted, not stored. *)

type t

val create : ?capacity:int -> unit -> t
(** Default capacity 2048 events. *)

val add : t -> time:float -> string -> unit

val pp : Format.formatter -> t -> unit
