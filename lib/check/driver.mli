(** Runs the real stack — Framer → packing → multipath wire → gateway
    refragmentation chain → congestion dropper → Receiver (virtual
    reassembly, WSC-2 verification, immediate placement) — under one
    {!Schedule}, and reports everything the {!Oracle} observes.

    Multi-connection schedules ({!Schedule.multi_mode}) run one
    {!Transport.Multi} receiver demultiplexing per-connection senders
    (with optional close-and-reopen of connection 1 and a
    {!Adversary} flood at the receiver door); single-connection
    schedules run the classic point-to-point pair.  The scheduled
    forward outage and ACK black hole wrap the respective directions in
    both modes.

    Deterministic: the same (seed, schedule, mutation) triple replays
    the same execution event for event. *)

include module type of struct
  include Driver_types
end

val mutation_names : (string * string) list
(** Every mutation as it is written on the command line ([flip:N] for a
    periodic one), with what it injects. *)

val mutation_to_string : mutation -> string
val mutation_of_string : string -> mutation option

val horizon : float
(** {!Schedule.horizon}. *)

val run : ?mutation:mutation -> ?trace:Trace.t -> Schedule.t -> observation
