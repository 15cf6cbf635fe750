(** Soak loop: generate schedules for a profile, drive the real stack,
    diff against the model, shrink whatever violates.  One call powers
    the tier-1 qcheck-sized budget, the CLI, and the CI nightly run. *)

type finding = {
  schedule : Schedule.t;  (** as generated *)
  violations : Oracle.violation list;
  shrunk : Shrink.result;  (** minimised replayable counterexample *)
}

type report = {
  profile : Schedule.profile;
  mutation : Driver.mutation;
  schedules_run : int;
  findings : finding list;
  detect_trials : int;
      (** Table 1 fault-injection samples interleaved with the soak *)
  detect_undetected : int;  (** trials where wrong data got through *)
  rx : Transport.Chunk_transport.Rx_stats.t;
      (** every run's [rx_stats] ({!Driver.observation}), summed — overlap
          conflicts, honoured sheds, containment and the rest *)
  ov_injected : int;  (** overlap-adversary packets injected, all runs *)
  sheds_signalled : int;  (** sender shed decisions, all runs *)
  fp_runs : int;  (** schedules that ran the flow-cache fast path *)
  fp : Transport.Flowcache.stats;  (** connection-cache counters, all runs *)
  bz_injected : int;  (** byzantine-adversary packets injected, all runs *)
  bz_flaps : int;  (** byzantine Open/garbage/Close cycles, all runs *)
  bz_honest_quarantined : int;
      (** honest connections ever boxed under byzantine fire — the
          [honest-immunity] row demands this stays 0 *)
  wall_seconds : float;
}

val clean : report -> bool
(** No oracle violation and no undetected injection. *)

val run_profile :
  ?mutation:Driver.mutation ->
  ?schedules:int ->
  ?seconds:float ->
  ?detect_every:int ->
  ?progress:(int -> unit) ->
  seed:int ->
  Schedule.profile ->
  report
(** Run up to [schedules] (default 1000) schedules, stopping early when
    the optional wall-clock budget [seconds] runs out.  Deterministic
    for a given [seed] (modulo which schedules fit in the budget).  The
    first few findings are shrunk; later ones are recorded as-is. *)

val json_of_reports : report list -> string
