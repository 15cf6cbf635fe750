type violation = { code : string; detail : string }

let violation_to_string v = Printf.sprintf "[%s] %s" v.code v.detail

(* Zero-fill the element runs of [spans] so byte comparison ignores
   exactly the shed spans and nothing else. *)
let mask_sheds ~elem_size ~spans b =
  let b = Bytes.copy b in
  List.iter
    (fun (first, len) ->
      let off = first * elem_size and n = len * elem_size in
      if off >= 0 && n >= 0 && off + n <= Bytes.length b then
        Bytes.fill b off n '\000')
    spans;
  b

(* Where the first delivered byte differs from the model, for diagnosis. *)
let first_diff a b =
  let n = min (Bytes.length a) (Bytes.length b) in
  let rec go i =
    if i >= n then n
    else if Bytes.get a i <> Bytes.get b i then i
    else go (i + 1)
  in
  go 0

(* Faults that can legitimately exhaust a bounded sender: a dead reverse
   path (no ACK ever returns), or a whole-TPDU congestion dropper, which
   taints a TPDU at a random packet each round so a no-SACK sender only
   lands the tail (and the ED chunk) on a drop-free round. *)
let starvable (s : Schedule.t) =
  s.Schedule.ack_blackhole <> None
  ||
  match s.Schedule.dropper with
  | Some { Schedule.drop_mode = Netsim.Dropper.Whole_tpdu; _ } -> true
  | Some _ | None -> false

(* The one per-epoch join every counterfactual comparison uses: each
   epoch of the primary run [o] meets the re-run [c]'s epoch of the same
   (connection, epoch), or [missing] when the re-run has none. *)
let join_epochs (o : Driver.observation) (c : Driver.observation) ~missing f =
  let epochs (r : Driver.observation) =
    Option.fold ~none:[] ~some:(fun mo -> mo.Driver.mo_epochs) r.multi
  in
  List.iter
    (fun (e : Driver.epoch_obs) ->
      match
        List.find_opt
          (fun (e' : Driver.epoch_obs) ->
            e'.e_conn = e.e_conn && e'.e_epoch = e.e_epoch)
          (epochs c)
      with
      | Some e' -> f e e'
      | None -> missing e)
    (epochs o)

let divergence (o : Driver.observation) (cf : Driver.counterfactual) =
  let c = cf.Driver.cf_run in
  let vs = ref [] in
  let fail code fmt =
    Printf.ksprintf (fun detail -> vs := { code; detail } :: !vs) fmt
  in
  (match cf.Driver.cf_rerun with
  | Driver.Permuted ->
      (* when both runs complete, the permuted injection order must not
         change a byte of delivery *)
      if
        o.complete && (not o.gave_up) && c.complete && (not c.gave_up)
        && not (Bytes.equal o.delivered c.delivered)
      then
        fail "overlap-determinism"
          "permuting overlap arrival order changed delivery at byte %d"
          (first_diff o.delivered c.delivered)
  | Driver.Cache_off -> (
      (* The driver re-ran the identical (seed, schedule) with the cache
         off, so the wire is the same packet for packet and any
         divergence is the cache's doing: completion flags must match,
         and delivery must be byte-identical — the single buffer on
         point-to-point runs, every (connection, epoch) pair on
         demultiplexed runs.  Crash-restart schedules run through here
         too, so a cache surviving a restore it should not survive shows
         up as a divergent epoch. *)
      if c.complete <> o.complete || c.gave_up <> o.gave_up then
        fail "fastpath-coherence"
          "cache-off re-run diverged: complete %b vs %b, gave-up %b vs %b \
           (cache on vs off)"
          o.complete c.complete o.gave_up c.gave_up;
      match (o.multi, c.multi) with
      | None, _ ->
          if not (Bytes.equal o.delivered c.delivered) then
            fail "fastpath-coherence"
              "cache on/off deliveries diverge at byte %d"
              (first_diff o.delivered c.delivered)
      | Some _, Some _ ->
          join_epochs o c
            ~missing:(fun e ->
              fail "fastpath-coherence"
                "connection %d epoch %d missing from the cache-off re-run"
                e.e_conn e.e_epoch)
            (fun e e' ->
              if e'.e_complete <> e.e_complete then
                fail "fastpath-coherence"
                  "connection %d epoch %d: complete %b with the cache, %b \
                   without"
                  e.e_conn e.e_epoch e.e_complete e'.e_complete;
              match (e.e_delivered, e'.e_delivered) with
              | Some a, Some b when not (Bytes.equal a b) ->
                  fail "fastpath-coherence"
                    "connection %d epoch %d: cache on/off deliveries diverge \
                     at byte %d"
                    e.e_conn e.e_epoch (first_diff a b)
              | (Some _ | None), (Some _ | None) -> ())
      | Some _, None ->
          fail "fastpath-coherence"
            "demultiplexed run but the cache-off re-run reported no epochs")
  | Driver.Byz_free -> (
      (* The byz-free re-run (same seed, schedule and mutation; the
         adversary's RNG and wire paths are disjoint from every honest
         draw) must report identical honest per-epoch outcomes.  Any
         divergence means byzantine traffic leaked into honest delivery
         — containment failed. *)
      match o.multi with
      | None ->
          fail "blast-radius" "byzantine schedule ran outside the multi path"
      | Some _ ->
          join_epochs o c
            ~missing:(fun e ->
              fail "blast-radius"
                "conn %d epoch %d missing from the byz-free re-run" e.e_conn
                e.e_epoch)
            (fun e e' ->
              if e'.e_complete <> e.e_complete || e'.e_gave_up <> e.e_gave_up
              then
                fail "blast-radius"
                  "conn %d epoch %d: complete %b / gave-up %b under byzantine \
                   fire, %b / %b without"
                  e.e_conn e.e_epoch e.e_complete e.e_gave_up e'.e_complete
                  e'.e_gave_up;
              match (e.e_delivered, e'.e_delivered) with
              | Some a, Some b when not (Bytes.equal a b) ->
                  fail "blast-radius"
                    "conn %d epoch %d: delivery under byzantine fire diverges \
                     from the byz-free run at byte %d"
                    e.e_conn e.e_epoch (first_diff a b)
              | Some _, None | None, Some _ ->
                  fail "blast-radius"
                    "conn %d epoch %d: delivered on one side of the byz-free \
                     comparison only"
                    e.e_conn e.e_epoch
              | (Some _ | None), _ -> ())));
  List.rev !vs

let check ~(schedule : Schedule.t) ~(model : Model.t)
    ~(observation : Driver.observation) =
  let s = schedule and m = model and o = observation in
  let r = o.Driver.rx_stats in
  let vs = ref [] in
  let fail code fmt =
    Printf.ksprintf (fun detail -> vs := { code; detail } :: !vs) fmt
  in
  let counterfactual rerun =
    List.find_opt
      (fun (cf : Driver.counterfactual) -> cf.Driver.cf_rerun = rerun)
      o.counterfactuals
  in
  let compare_with cf = vs := List.rev_append (divergence o cf) !vs in
  (* Liveness: every schedule must terminate — either the transfer
     completes or the sender gives up, and all timers wind down.  A
     give-up is legitimate only under a starvation fault (ACK black
     hole, whole-TPDU dropper); every other generated fault is
     recoverable by retransmission. *)
  if o.engine_pending > 0 then
    fail "lockup" "%d events still pending at the %.0fs horizon"
      o.engine_pending Driver.horizon;
  if o.gave_up && not (starvable s) then
    fail "gave-up"
      "sender abandoned a TPDU with no starvation fault in the schedule";
  if (not o.gave_up) && not o.finished then
    fail "unfinished" "sender neither completed nor gave up";
  (* Karn's rule: an RTT sample taken from a retransmitted TPDU is
     ambiguous (the ACK may answer any earlier copy) and must never be
     folded into SRTT. *)
  if o.max_txs_at_rtt_sample > 1 then
    fail "karn" "RTT sampled from a TPDU transmitted %d times"
      o.max_txs_at_rtt_sample;
  if s.Schedule.rto_adaptive && o.rtt_samples > 0 then begin
    if o.final_rto > s.Schedule.rto +. 1e-9 then
      fail "rto-range" "adaptive RTO %.6f exceeds configured ceiling %.6f"
        o.final_rto s.Schedule.rto;
    if o.final_rto < 2e-3 -. 1e-12 then
      fail "rto-range" "adaptive RTO %.6f below floor" o.final_rto
  end;
  (* The receiver state governor's contract: accounted state never
     exceeds the budget at any event (the high-water mark is sampled
     after every accounting step), and quiescence leaves nothing
     accounted. *)
  if s.Schedule.state_budget > 0 && o.state_high_water > s.Schedule.state_budget
  then
    fail "state-budget" "governor high water %d exceeds budget %d"
      o.state_high_water s.Schedule.state_budget;
  if o.state_accounted > 0 then
    fail "state-residue" "%d bytes still accounted after quiescence"
      o.state_accounted;
  (* Leaks: at quiescence the verifier and the placement stash must be
     empty unconditionally — completed TPDUs release their state,
     abandoned and corrupt-residue TPDUs are reclaimed by the governor's
     deadline sweep, including on give-up runs. *)
  if o.verifier_in_flight > 0 then
    fail "leak-verifier" "%d TPDUs still in flight after quiescence"
      o.verifier_in_flight;
  if o.stashed_tpdus > 0 then
    fail "leak-stash" "%d TPDU stashes retained after quiescence"
      o.stashed_tpdus;
  (* SACK plumbing only runs when asked for. *)
  if not s.Schedule.sack then begin
    if r.nacks_sent > 0 then
      fail "sack-off" "%d NACKs sent with SACK disabled" r.nacks_sent;
    if o.sack_retransmissions > 0 then
      fail "sack-off" "%d selective retransmissions with SACK disabled"
        o.sack_retransmissions
  end;
  (* Quiet wire: with no fault enabled the protocol must be silent —
     no retransmission (the RTO is an overestimate by construction, and
     the adaptive RTO never drops below 2×SRTT), no gap report, no
     duplicate, no re-acknowledgement.  Single-path only: a faultless
     multi-connection run can still retransmit legitimately (an epoch's
     first packets racing their own Open across jittered paths). *)
  if Schedule.faultless s && o.multi = None then begin
    if o.retransmissions > 0 then
      fail "quiet-retrans" "%d RTO retransmissions on a faultless run"
        o.retransmissions;
    if o.sack_retransmissions > 0 then
      fail "quiet-sack" "%d selective retransmissions on a faultless run"
        o.sack_retransmissions;
    if r.nacks_sent > 0 then
      fail "quiet-nack" "%d NACKs on a faultless run" r.nacks_sent;
    if o.verifier.Edc.Verifier.duplicates > 0 then
      fail "quiet-dup" "%d duplicate chunks seen on a faultless run"
        o.verifier.Edc.Verifier.duplicates;
    if r.reacks_sent > 0 then
      fail "quiet-reack" "%d re-ACKs on a faultless run" r.reacks_sent
  end;
  (* Metrics-driven checks, fed by the driver's per-run deltas of the
     [Obs] registry (all zeros when the layer is compiled out, so both
     checks degrade to trivially true).
     1. Verify/ACK agreement: every TPDU the verifier passes is freshly
        acknowledged exactly once — a passed-but-unACKed (or
        ACKed-but-unpassed) TPDU means the transport and the error
        detection layer disagree about what was delivered.
     2. Occupancy bound: the governor's occupancy gauge, sampled after
        every accounting step, must never have exceeded the configured
        budget during the run. *)
  if o.metrics.Driver.mp_verified <> o.metrics.Driver.mp_acked then
    fail "metrics-verify-count"
      "%d TPDUs passed verification but %d fresh ACKs were sent"
      o.metrics.Driver.mp_verified o.metrics.Driver.mp_acked;
  if
    s.Schedule.state_budget > 0
    && o.metrics.Driver.mp_governor_peak > s.Schedule.state_budget
  then
    fail "metrics-occupancy"
      "governor occupancy gauge peaked at %d bytes, budget is %d"
      o.metrics.Driver.mp_governor_peak s.Schedule.state_budget;
  (* Crash recovery.  Every scheduled crash must be executed and
     answered by exactly one successful restore; a restore that fails,
     rebuilds the wrong endpoint shape, or leaves a T.ID both in the
     ledger and in the in-flight verifier state is a recovery-safety
     violation (the last one is double delivery waiting to happen).
     Restored state must re-fit the governor budget, and the snapshot
     codec must round-trip every image it produced itself. *)
  if List.length s.Schedule.crashes <> o.crashes_injected then
    fail "recovery-safety" "%d crashes scheduled but %d executed"
      (List.length s.Schedule.crashes)
      o.crashes_injected;
  if o.crashes_injected <> o.restores then
    fail "recovery-safety" "%d crashes executed but %d restores succeeded"
      o.crashes_injected o.restores;
  if o.recovery_bad > 0 then
    fail "recovery-safety"
      "%d recovery-safety probe failures (unreadable image, wrong endpoint \
       shape, or ledger/in-flight overlap)"
      o.recovery_bad;
  if o.restore_over_budget > 0 then
    fail "recovery-budget"
      "%d restores left the governor over the configured state budget"
      o.restore_over_budget;
  if o.roundtrip_failures > 0 then
    fail "snapshot-roundtrip"
      "%d snapshot round-trip mismatches observed at restore"
      o.roundtrip_failures;
  (* Overlap policy.  Two checks run in {e every} profile:
     1. Consistency — once a byte range is WSC-2-verified it is
        immutable: a conflicting write that replaces verified bytes
        (even with other verified bytes) means delivery can depend on
        arrival order, so [verified_overwrites] must be exactly zero.
     2. Determinism — for overlap schedules the driver re-runs the
        same (seed, schedule) with a permuted overlap-injection order;
        when both runs complete, they must deliver byte-identical
        data.  Either the adversary's bytes never reach delivery, or
        the policy is order-sensitive — and then this catches it. *)
  if r.overlap.os_verified_overwrites > 0 then
    fail "overlap-consistency"
      "%d verified bytes were overwritten by conflicting data \
       (first-verified-wins violated; %d conflicts seen, %d rejected)"
      r.overlap.os_verified_overwrites r.overlap.os_conflicts_seen
      r.overlap.os_conflicts_rejected;
  Option.iter compare_with (counterfactual Driver.Permuted);
  (* Flow-cache coherence: the fast path must be pure acceleration
     (the [Cache_off] comparison in [divergence]). *)
  Option.iter compare_with (counterfactual Driver.Cache_off);
  (* Partial reliability, part one: sheds are legal only under a shed
     contract.  A receiver that honours a shed with no contract in the
     schedule has thrown away bytes the model calls mandatory — the
     shed-clobber mutation trips exactly this. *)
  if s.Schedule.shed = None && (r.sheds_received > 0 || o.sheds_sent > 0) then
    fail "shed-safety" "%d sheds honoured (%d signalled) with no shed contract"
      r.sheds_received o.sheds_sent;
  (match o.multi with
  | None ->
      (* Partial reliability, part two: every span the receiver honoured
         as shed must be one the contract declares sheddable (a shed of
         Critical/Normal elements is data loss whatever the wire did),
         and sheds must agree with their own bookkeeping. *)
      let sheddable = Model.sheddable_spans m s in
      List.iter
        (fun (first, len) ->
          if not (List.mem (first, len) sheddable) then
            fail "shed-safety"
              "receiver shed span (%d+%d) outside the shed contract" first
              len)
        o.shed_spans;
      if List.length o.shed_spans <> r.sheds_received then
        fail "shed-safety" "%d shed spans recorded but %d sheds honoured"
          (List.length o.shed_spans)
          r.sheds_received;
      (* Delivery: the delivered buffer must equal the model's
         expectation byte for byte — placement by label, across any
         amount of refragmentation and disorder, reconstructs the stream
         exactly.  Under a shed contract the comparison is masked over
         exactly the honoured shed spans (shed-liveness itself is the
         [incomplete]/[gave-up] pair: a shed schedule is never
         starvable, so the stream must still complete). *)
      if not o.gave_up then begin
        if not o.complete then
          fail "incomplete" "placement holds %d of %d elements"
            o.delivered_elems m.Model.elems;
        (* Immediate placement means elements of a shed TPDU that landed
           before the shed are already in the buffer, so the count may
           sit anywhere between all-shed-elements-missing and none. *)
        if
          o.delivered_elems < m.Model.elems - r.shed_elems
          || o.delivered_elems > m.Model.elems
        then
          fail "element-count"
            "delivered %d elements, model expects %d less at most %d shed"
            o.delivered_elems m.Model.elems r.shed_elems;
        if Bytes.length o.delivered <> Bytes.length m.Model.expected then
          fail "data-mismatch" "delivered %d bytes, model expects %d"
            (Bytes.length o.delivered)
            (Bytes.length m.Model.expected)
        else begin
          let elem_size = m.Model.elem_size and spans = o.shed_spans in
          let want = mask_sheds ~elem_size ~spans m.Model.expected in
          let got = mask_sheds ~elem_size ~spans o.delivered in
          if not (Bytes.equal got want) then
            fail "data-mismatch"
              "delivered buffer differs at byte %d (outside shed spans)"
              (first_diff got want)
        end
      end;
      if o.delivered_elems > m.Model.elems then
        fail "conservation" "placed %d elements, only %d exist"
          o.delivered_elems m.Model.elems;
      (* Without corruption, a TPDU may fail verification only because
         the governor evicted it or the sender aborted it — never
         because intact data looked damaged.  The overlap adversary is
         a third legitimate source of failures (its forged TPDUs and
         poisoned parities are {e built} to fail), so the check only
         applies when it is absent.  Honoured sheds abandon in-flight
         verifier state exactly like aborts and join the allowance. *)
      if s.Schedule.corrupt = 0.0 && s.Schedule.overlap = None then begin
        if
          o.verifier.Edc.Verifier.tpdus_failed
          > r.evictions + r.aborts_received + r.sheds_received
        then
          fail "clean-fail"
            "%d TPDUs failed verification with corruption off (%d \
             evictions + %d aborts + %d sheds)"
            o.verifier.Edc.Verifier.tpdus_failed r.evictions
            r.aborts_received r.sheds_received;
        if o.gateways_malformed > 0 then
          fail "clean-malformed"
            "%d packets unparseable at gateways with corruption off"
            o.gateways_malformed
      end;
      (* TPDU accounting: a fixed-size framer cuts a known number of
         TPDUs, and each is either verified exactly once or (under a
         shed contract) honoured as shed — never both, never neither. *)
      if not o.gave_up then begin
        if
          (not s.Schedule.adaptive)
          && o.verifier.Edc.Verifier.tpdus_passed
             <> m.Model.n_tpdus - r.sheds_received
        then
          fail "tpdu-count"
            "%d TPDUs passed, model expects exactly %d (%d shed)"
            o.verifier.Edc.Verifier.tpdus_passed m.Model.n_tpdus
            r.sheds_received;
        if
          s.Schedule.adaptive
          && o.verifier.Edc.Verifier.tpdus_passed < m.Model.n_tpdus
        then
          fail "tpdu-count" "%d TPDUs passed, adaptive floor is %d"
            o.verifier.Edc.Verifier.tpdus_passed m.Model.n_tpdus
      end
  | Some mo ->
      (* Multi-connection delivery: every planned (connection, epoch)
         stream must arrive complete and byte-exact unless its sender
         legitimately gave up.  Flood traffic, displacement and GC must
         never corrupt a legitimate stream — only delay it. *)
      List.iter
        (fun (e : Driver.epoch_obs) ->
          let expected =
            match List.assoc_opt e.Driver.e_conn m.Model.streams with
            | Some epochs -> List.nth_opt epochs e.Driver.e_epoch
            | None -> None
          in
          match expected with
          | None ->
              fail "epoch-plan" "no model stream for conn %d epoch %d"
                e.Driver.e_conn e.Driver.e_epoch
          | Some want ->
              if e.Driver.e_gave_up then begin
                if not (starvable s) then
                  fail "gave-up"
                    "conn %d epoch %d abandoned with no starvation fault"
                    e.Driver.e_conn e.Driver.e_epoch
              end
              else begin
                if not e.Driver.e_complete then
                  fail "epoch-incomplete" "conn %d epoch %d not complete"
                    e.Driver.e_conn e.Driver.e_epoch;
                match e.Driver.e_delivered with
                | None ->
                    fail "epoch-missing"
                      "conn %d epoch %d never reached the receiver"
                      e.Driver.e_conn e.Driver.e_epoch
                | Some got ->
                    let n = Bytes.length want in
                    if
                      Bytes.length got < n
                      || not (Bytes.equal (Bytes.sub got 0 n) want)
                    then
                      fail "epoch-mismatch"
                        "conn %d epoch %d differs at byte %d" e.Driver.e_conn
                        e.Driver.e_epoch
                        (first_diff got want)
              end)
        mo.Driver.mo_epochs;
      (* Lifecycle hygiene: explicit Close (legitimate connections) and
         the deadline GC (flood connections) must leave nothing live. *)
      if mo.Driver.mo_live_conns > 0 then
        fail "multi-live" "%d connections still live after quiescence"
          mo.Driver.mo_live_conns);
  (* Byzantine containment (DESIGN §10).  The exception bulkhead must
     never have fired in any profile: a poisoned connection means some
     input made the endpoint throw, which the bulkhead contained — but
     the throw itself is the bug to surface. *)
  if r.conns_poisoned > 0 then
    fail "bulkhead-poisoned"
      "%d connections poisoned by exception bulkheads (the endpoint threw \
       while processing their traffic)"
      r.conns_poisoned;
  (match o.byz with
  | None -> ()
  | Some b ->
      (* Honest immunity: only provably-authored anomalies are scored,
         so no byzantine input may ever talk an honest connection into
         the penalty box. *)
      if b.Driver.bo_honest_quarantined > 0 then
        fail "honest-immunity"
          "%d honest connections were quarantined under byzantine fire"
          b.Driver.bo_honest_quarantined;
      (* Isolation budget, part one — hard state caps per byzantine
         connection.  Quarantine bounds an attacker to ~8 epochs per
         admission and the re-admission backoff bounds admissions within
         the attack window, with a wide margin below 64; each archived
         flap epoch parks at most one quota-sized placement buffer. *)
      let epoch_buf_cap = s.Schedule.data_len + (s.Schedule.tpdu_elems * s.Schedule.elem_size) in
      List.iter
        (fun (bc : Driver.byz_conn_obs) ->
          if bc.Driver.bc_epochs > 64 then
            fail "isolation-budget"
              "byzantine conn %d started %d epochs (cap 64)"
              bc.Driver.bc_conn bc.Driver.bc_epochs;
          if bc.Driver.bc_hist_bytes > 64 * epoch_buf_cap then
            fail "isolation-budget"
              "byzantine conn %d parked %d archived bytes (cap %d)"
              bc.Driver.bc_conn bc.Driver.bc_hist_bytes
              (64 * epoch_buf_cap))
        b.Driver.bo_conns;
      (* Isolation budget, part two — the defense actually fired.  A
         connection accumulates at most 8 epochs per scoring life (the
         9th scored Open trips the box first), and a restore resets the
         score at most once per crash; epochs beyond that bound are
         only reachable through a quarantine-and-readmit cycle, so at
         least one revocation must have been counted.  This is the row
         that catches the byz-clobber mutation: with the budget
         disabled the peer flaps far past the bound and the revocation
         count stays zero. *)
      List.iter
        (fun (bc : Driver.byz_conn_obs) ->
          if
            bc.Driver.bc_epochs > 8 * (1 + o.restores)
            && r.quarantines = 0
          then
            fail "isolation-budget"
              "byzantine conn %d started %d epochs (> %d) yet no admission \
               was ever revoked — the quarantine never fired"
              bc.Driver.bc_conn bc.Driver.bc_epochs
              (8 * (1 + o.restores)))
        b.Driver.bo_conns;
      (* Blast radius: the byz-free re-run must exist, and agree (the
         [Byz_free] comparison in [divergence]). *)
      match counterfactual Driver.Byz_free with
      | None ->
          fail "blast-radius"
            "byzantine schedule ran without its byz-free counterfactual"
      | Some cf -> compare_with cf);
  List.rev !vs
