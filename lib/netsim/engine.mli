(** Discrete-event simulation engine.

    Components schedule closures at absolute simulated times; [run]
    drains the queue in time order.  One engine per experiment; times
    are seconds of simulated time. *)

type t

val create : ?seed:int -> unit -> t
(** A fresh engine at time 0 with a seeded root {!Rng} (default seed
    0x5EED). *)

val now : t -> float
val rng : t -> Rng.t

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** Run a closure [delay] seconds from now ([delay >= 0]). *)

val schedule_at : t -> time:float -> (unit -> unit) -> unit
(** Run a closure at an absolute time (not before [now]). *)

val every :
  t -> rng:Rng.t -> rate:float -> stop:float -> (unit -> unit) -> unit
(** [every e ~rng ~rate ~stop fire] runs [fire] about [rate] times per
    simulated second until [stop]: each interval is [1/rate] scaled by a
    uniform draw from \[0.5, 1.5) taken from [rng] when the interval is
    scheduled, and an interval ending at or after [stop] fires nothing
    and ends the loop.  The injection loop of every adversary. *)

val run : ?until:float -> t -> unit
(** Process events in time order until the queue empties or simulated
    time would pass [until]. *)

val step : t -> bool
(** Process a single event; [false] if the queue was empty. *)

val pending : t -> int
