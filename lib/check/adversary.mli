(** Connection-flood adversary: injects forged traffic at the receiver
    door at a fixed average rate until a stop time.

    The mix models an attacker who can spoof chunks but not observe the
    legitimate streams: forged [Open] signals for bogus connection ids,
    data for never-established connections, never-completing partial
    TPDUs on {e legitimate} connections (the state-exhaustion attack the
    receiver's governor must absorb), and forged [Abort_tpdu] signals.
    Spoofed [Close]/[Open] of a live legitimate connection is out of
    scope — indistinguishable without authentication, which the paper's
    labelling layer does not provide.

    Injection is scheduled on the simulation engine and is fully
    deterministic under ([seed], schedule). *)

type t

val create :
  Netsim.Engine.t ->
  seed:int ->
  rate:float ->
  stop:float ->
  legit_conns:int list ->
  bogus_conns:int ->
  elem_size:int ->
  inject:(bytes -> unit) ->
  unit ->
  t
(** Arms itself immediately; fires roughly every [1/rate] seconds
    (jittered deterministically) until [stop]. *)

val injected : t -> int
(** Forged packets put on the wire so far. *)
