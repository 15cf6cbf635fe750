open Labelling

type verdict =
  | Passed
  | Parity_mismatch
  | Consistency_failure of string
  | Reassembly_error of string

let pp_verdict fmt = function
  | Passed -> Format.pp_print_string fmt "passed"
  | Parity_mismatch -> Format.pp_print_string fmt "parity-mismatch"
  | Consistency_failure s -> Format.fprintf fmt "consistency-failure(%s)" s
  | Reassembly_error s -> Format.fprintf fmt "reassembly-error(%s)" s

let verdict_equal a b =
  match (a, b) with
  | Passed, Passed | Parity_mismatch, Parity_mismatch -> true
  | Consistency_failure x, Consistency_failure y -> String.equal x y
  | Reassembly_error x, Reassembly_error y -> String.equal x y
  | (Passed | Parity_mismatch | Consistency_failure _ | Reassembly_error _), _
    ->
      false

type event =
  | Tpdu_verified of { t_id : int; verdict : verdict }
  | Fresh_data of { t_id : int; t_sn : int; elems : int }
  | Duplicate_dropped of { t_id : int }

(* One in-flight TPDU, in one flat record (plus its accumulator and
   tracker): label cells are plain ints, unset until the first chunk
   sets them, and the X.ID -> C.SN - X.SN table holds its first pair
   inline, since a TPDU rarely spans more than one external PDU. *)
type tpdu_state = {
  born : float;  (* clock reading when this state was opened *)
  acc : Wsc2.acc;
  tracker : Vreassembly.t;
  mutable pairs_done : int list;  (* boundary T.SNs already paired *)
  mutable x_id0 : int;  (* first X.ID seen ([unset]: none) ... *)
  mutable x_delta0 : int;  (* ... and its C.SN - X.SN *)
  mutable x_more : (int * int) list;  (* further X.ID -> C.SN - X.SN *)
  mutable delta_ct : int;  (* C.SN - T.SN, or [unset] *)
  mutable c_id : int;  (* or [unset] *)
  mutable size : int;  (* or [unset] *)
  mutable labels_done : bool;
  mutable expected : Wsc2.parity;  (* ED chunk's parity, or [no_parity] *)
  mutable damage : string option;  (* failure note carried by an image *)
  mutable x_spans : (int * int * int * int) list;
      (* (t_sn, len, x_id, x_sn) fresh runs *)
}

(* The "not yet known" value of the int cells: no wire ID, SIZE or SN
   difference can take it (IDs and SIZE are unsigned; SNs are
   non-negative 63-bit ints, so their difference is above [min_int]). *)
let unset = min_int

(* Stands for "no ED chunk yet"; compared physically, and a parity read
   from a packet or an image is always a fresh record. *)
let no_parity = { Wsc2.p0 = Gf232.zero; p1 = Gf232.zero }

(* The labels of the chunk being processed, read where they sit. *)
type view = Wire.Scan.view

type t = {
  tpdus : (int, tpdu_state) Hashtbl.t;
  now : unit -> float;
  scratch : view;  (* [on_chunk]'s view of a materialised header *)
  mutable passed : int;
  mutable failed : int;
  mutable dups : int;
  mutable seen : int;
}

type stats = {
  tpdus_passed : int;
  tpdus_failed : int;
  duplicates : int;
  chunks_seen : int;
}

(* Pipeline-wide accounting; [m_latency] measures first-chunk-seen to
   verdict, in simulated microseconds. *)
let m_chunks = Obs.Metrics.counter "edc_chunks_total"
let m_passed = Obs.Metrics.counter "edc_tpdus_passed_total"
let m_failed = Obs.Metrics.counter "edc_tpdus_failed_total"
let m_dups = Obs.Metrics.counter "edc_duplicates_total"
let m_latency = Obs.Metrics.histogram "edc_verify_latency_us"
let m_payload = Obs.Metrics.histogram "edc_chunk_payload_bytes"

let verdict_tag = function
  | Passed -> "passed"
  | Parity_mismatch -> "parity-mismatch"
  | Consistency_failure _ -> "consistency-failure"
  | Reassembly_error _ -> "reassembly-error"

(* Shared bookkeeping for every path that emits a verdict and releases
   the TPDU's state. *)
let note_verdict v s t_id verdict =
  if Obs.enabled then begin
    (match verdict with
    | Passed -> Obs.Metrics.incr m_passed
    | Parity_mismatch | Consistency_failure _ | Reassembly_error _ ->
        Obs.Metrics.incr m_failed);
    Obs.Metrics.observe_s m_latency (v.now () -. s.born);
    if Obs.Trace.active () then
      Obs.Trace.record
        (Obs.Trace.Verify_done
           {
             conn = (if s.c_id = unset then -1 else s.c_id);
             tpdu = t_id;
             verdict = verdict_tag verdict;
           })
  end

let create ?now () =
  let now = match now with Some f -> f | None -> fun () -> !Obs.now in
  { tpdus = Hashtbl.create 32; now; scratch = Wire.Scan.view (); passed = 0;
    failed = 0; dups = 0; seen = 0 }

(* The state held for [t_id]; [Not_found] if none.  Lookups go through
   [Hashtbl.find] so that the per-chunk path builds no option. *)
let find v t_id = Hashtbl.find v.tpdus t_id

let state v t_id =
  match find v t_id with
  | s -> s
  | exception Not_found ->
      if Obs.enabled && Obs.Trace.active () then
        Obs.Trace.record (Obs.Trace.Verify_start { conn = -1; tpdu = t_id });
      let s =
        {
          born = v.now ();
          acc = Wsc2.create ();
          tracker = Vreassembly.create ();
          pairs_done = [];
          x_id0 = unset;
          x_delta0 = 0;
          x_more = [];
          delta_ct = unset;
          c_id = unset;
          size = unset;
          labels_done = false;
          expected = no_parity;
          damage = None;
          x_spans = [];
        }
      in
      Hashtbl.add v.tpdus t_id s;
      s

let rec mem_int (x : int) = function [] -> false | y :: r -> y = x || mem_int x r

(* Whether X.ID [id] has a recorded C.SN - X.SN other than [xd]. *)
let rec x_delta_differs id xd = function
  | [] -> false
  | (k, d) :: rest -> if k = id then d <> xd else x_delta_differs id xd rest

let x_delta_conflict s id xd =
  if s.x_id0 = id then s.x_delta0 <> xd else x_delta_differs id xd s.x_more

let has_x_delta s id = s.x_id0 = id || List.mem_assoc id s.x_more

(* Record X.ID [id]'s delta, replacing any held for it (an image's
   table semantics). *)
let set_x_delta s id xd =
  if s.x_id0 = unset || s.x_id0 = id then begin
    s.x_id0 <- id;
    s.x_delta0 <- xd
  end
  else s.x_more <- (id, xd) :: List.remove_assoc id s.x_more

let x_delta_count s =
  if s.x_id0 = unset then 0 else 1 + List.length s.x_more

(* A damaged chunk dooms its TPDU: report at once and release state, so
   a retransmission (with identical, correct labels) starts clean.  The
   offending chunk is discarded without being processed — "the error
   detection system will detect the incorrect sequence numbers and allow
   any incorrect chunks to be discarded" (Appendix A). *)
let fail_now v t_id verdict =
  (match find v t_id with
  | s -> note_verdict v s t_id verdict
  | exception Not_found -> ());
  Hashtbl.remove v.tpdus t_id;
  v.failed <- v.failed + 1;
  [ Tpdu_verified { t_id; verdict } ]

(* Completion-time X-framing contiguity: sort the fresh element runs by
   T.SN; along the TPDU the X.ID may change only across an element that
   some chunk declared as a boundary (an X.ST or T.ST position), and an
   X.ID must not recur after a different one.  This catches a corrupted
   X.ID on a {e non-boundary} chunk, which neither the parity (pairs
   come from boundary chunks only) nor the per-X.ID delta check sees. *)
let rec x_walk s seen = function
  | [] | [ _ ] -> true
  | (sn_a, len_a, xa, _) :: ((sn_b, _, xb, xsn_b) :: _ as rest) ->
      if xa = xb then x_walk s seen rest
      else begin
        let boundary = sn_a + len_a - 1 in
        (* the new external PDU starts just after the boundary, so its
           element at T.SN [sn_b] has X.SN [sn_b - boundary - 1] *)
        mem_int boundary s.pairs_done
        && xsn_b = sn_b - boundary - 1
        && (not (mem_int xb seen))
        && x_walk s (xa :: seen) rest
      end

(* Runs that all carry one X.ID pass the walk whatever their order. *)
let rec one_x_id xa = function
  | [] -> true
  | (_, _, x, _) :: rest -> x = xa && one_x_id xa rest

let x_framing_ok s =
  match s.x_spans with
  | [] -> true
  | (_, _, xa, _) :: rest when one_x_id xa rest -> true
  | spans ->
      x_walk s []
        (List.sort (fun (a, _, _, _) (b, _, _, _) -> Int.compare a b) spans)

let verdict_of s =
  match s.damage with
  | Some msg -> Reassembly_error msg
  | None ->
      if s.expected == no_parity then Reassembly_error "ED chunk never arrived"
      else if not (Wsc2.verify ~expected:s.expected s.acc) then Parity_mismatch
      else if not (x_framing_ok s) then
        Consistency_failure "X framing not contiguous"
      else Passed

let try_finish v t_id s =
  if Vreassembly.complete s.tracker && s.expected != no_parity then begin
    let verdict = verdict_of s in
    note_verdict v s t_id verdict;
    Hashtbl.remove v.tpdus t_id;
    (match verdict with
    | Passed -> v.passed <- v.passed + 1
    | Parity_mismatch | Consistency_failure _ | Reassembly_error _ ->
        v.failed <- v.failed + 1);
    [ Tpdu_verified { t_id; verdict } ]
  end
  else []

(* Returns the first on-arrival problem with this chunk, if any. *)
let arrival_check s (h : view) =
  let size = h.size in
  match Invariant.size_error ~size with
  | Some msg -> Some (Reassembly_error msg)
  | None ->
      let spw = size / 4 in
      if
        h.t_sn > Invariant.data_limit_symbols
        || (h.t_sn + h.len) * spw > Invariant.data_limit_symbols
      then
        (* a (possibly corrupted) T.SN/LEN that escapes the invariant's
           data region can never virtually reassemble *)
        Some (Reassembly_error "TPDU data outside the invariant region")
      else if s.size <> unset && s.size <> size then
        Some (Reassembly_error "SIZE changed between chunks")
      else if h.c_st && not h.t_st then
        (* The C.ST bit can be set only on a TPDU boundary (§4). *)
        Some (Consistency_failure "C.ST set off a TPDU boundary")
      else if s.c_id <> unset && s.c_id <> h.c_id then
        Some (Consistency_failure "C.ID changed between chunks")
      else if s.delta_ct <> unset && s.delta_ct <> h.c_sn - h.t_sn then
        Some (Consistency_failure "C.SN - T.SN changed")
      else if x_delta_conflict s h.x_id (h.c_sn - h.x_sn) then
        Some (Consistency_failure "C.SN - X.SN changed")
      else None

let commit_arrival s (h : view) =
  if s.size = unset then s.size <- h.size;
  if s.c_id = unset then s.c_id <- h.c_id;
  if s.delta_ct = unset then s.delta_ct <- h.c_sn - h.t_sn;
  if not (has_x_delta s h.x_id) then set_x_delta s h.x_id (h.c_sn - h.x_sn)

(* Accumulate exactly the fresh element sub-runs of a chunk's payload;
   [origin] is where element T.SN 0 would sit in the chunk's buffer.
   The unchecked fast path is safe here: [fresh] runs are sub-ranges of
   the chunk's own [sn, sn + len) with [sn >= 0] (so the byte slice is
   inside the payload, which [on_view] checked lies inside [buf]), and
   [arrival_check] already rejected any chunk whose element span
   escapes the invariant's data region, so every position is in range.
   Each fresh run is also recorded for the X-framing check. *)
let rec accumulate_fresh s (h : view) ~spw buf origin = function
  | [] -> ()
  | (sn, len) :: rest ->
      Wsc2.add_subbytes_exn s.acc ~pos:(sn * spw) buf (origin + (sn * h.size))
        (len * h.size);
      s.x_spans <- (sn, len, h.x_id, h.x_sn + (sn - h.t_sn)) :: s.x_spans;
      accumulate_fresh s h ~spw buf origin rest

let rec fresh_events t_id tail = function
  | [] -> tail
  | (sn, len) :: rest ->
      Fresh_data { t_id; t_sn = sn; elems = len } :: fresh_events t_id tail rest

(* The WSC-2 contributions of a chunk's labels: the X pair of a
   boundary chunk (deduplicated independently of payload freshness: a
   refragmented retransmission can re-deliver a boundary on an
   all-duplicate chunk), and the T.ID, C.ID and C.ST symbols once, from
   the first T.ST chunk. *)
let accumulate_labels s (h : view) =
  if h.t_st || h.x_st then begin
    let boundary = h.t_sn + h.len - 1 in
    if not (mem_int boundary s.pairs_done) then begin
      s.pairs_done <- boundary :: s.pairs_done;
      let pos = Invariant.xpair_position ~boundary_t_sn:boundary in
      Wsc2.add_symbol s.acc ~pos (h.x_id land 0xFFFF_FFFF);
      Wsc2.add_symbol s.acc ~pos:(pos + 1)
        (Encoder.xpair_second_symbol ~boundary_t_sn:boundary ~x_st:h.x_st)
    end
  end;
  if h.t_st && not s.labels_done then begin
    s.labels_done <- true;
    Wsc2.add_symbol s.acc ~pos:Invariant.tid_position (h.t_id land 0xFFFF_FFFF);
    Wsc2.add_symbol s.acc ~pos:Invariant.cid_position (h.c_id land 0xFFFF_FFFF);
    Wsc2.add_symbol s.acc ~pos:Invariant.cst_position
      (if h.c_st then Gf232.one else Gf232.zero)
  end

let on_data v (h : view) buf off =
  let t_id = h.t_id in
  let s = state v t_id in
  match arrival_check s h with
  | Some verdict -> fail_now v t_id verdict
  | None -> (
      commit_arrival s h;
      match Vreassembly.insert_new s.tracker ~sn:h.t_sn ~len:h.len ~st:h.t_st with
      | Error `Inconsistent ->
          fail_now v t_id
            (Reassembly_error "fragment beyond or contradicting the TPDU end")
      | Ok [] ->
          v.dups <- v.dups + 1;
          if Obs.enabled then Obs.Metrics.incr m_dups;
          accumulate_labels s h;
          Duplicate_dropped { t_id } :: try_finish v t_id s
      | Ok fresh ->
          accumulate_fresh s h ~spw:(h.size / 4) buf (off - (h.t_sn * h.size))
            fresh;
          accumulate_labels s h;
          fresh_events t_id (try_finish v t_id s) fresh)

let on_ed v (h : view) buf off =
  let t_id = h.t_id in
  let s = state v t_id in
  if Wire.Scan.view_payload_bytes h <> 12 then
    fail_now v t_id (Reassembly_error "malformed ED chunk payload")
  else if s.c_id <> unset && s.c_id <> h.c_id then
    fail_now v t_id (Consistency_failure "ED chunk C.ID mismatch")
  else begin
    let parity = Wsc2.parity_of_bytes buf off in
    let total = Int32.to_int (Bytes.get_int32_be buf (off + 8)) land 0xFFFF_FFFF in
    if s.expected != no_parity && not (Wsc2.parity_equal s.expected parity)
    then fail_now v t_id (Reassembly_error "conflicting ED chunks")
    else begin
      (* The ED chunk also pins the C.SN - T.SN delta (its T.SN is 0,
         its C.SN the TPDU's first element) and the TPDU's extent.  A
         delta already established by data chunks must agree: with a
         single data chunk the delta check in [arrival_check] never
         fires, so this comparison is the only consistency coverage the
         connection label gets. *)
      let delta = h.c_sn - h.t_sn in
      if s.delta_ct <> unset && s.delta_ct <> delta then
        fail_now v t_id (Consistency_failure "ED chunk C.SN mismatch")
      else begin
        s.expected <- parity;
        if s.delta_ct = unset then s.delta_ct <- delta;
        if total < 1 then
          fail_now v t_id (Reassembly_error "ED chunk announces no data")
        else
          match Vreassembly.set_total s.tracker total with
          | Error `Inconsistent ->
              fail_now v t_id
                (Reassembly_error "ED extent contradicts received data")
          | Ok () -> try_finish v t_id s
      end
    end
  end

let ed_code = Ctype.code Ctype.ed

let on_view v (h : view) buf off =
  let nbytes = Wire.Scan.view_payload_bytes h in
  if off < 0 || off > Bytes.length buf - nbytes then
    invalid_arg "Verifier.on_view: payload outside the buffer";
  v.seen <- v.seen + 1;
  if Obs.enabled then begin
    Obs.Metrics.incr m_chunks;
    Obs.Metrics.observe m_payload nbytes
  end;
  if h.len = 0 then []
  else if h.code = 0 then on_data v h buf off
  else if h.code = ed_code then on_ed v h buf off
  else []

let on_chunk v chunk =
  Wire.Scan.read_header v.scratch chunk.Chunk.header;
  on_view v v.scratch chunk.Chunk.payload 0

let in_flight v = Hashtbl.length v.tpdus

let in_flight_ids v =
  Hashtbl.fold (fun id _ acc -> id :: acc) v.tpdus [] |> List.sort Int.compare

let missing v ~t_id =
  match find v t_id with
  | s -> Some (Vreassembly.missing s.tracker)
  | exception Not_found -> None

let ed_seen v ~t_id =
  match find v t_id with
  | s -> s.expected != no_parity
  | exception Not_found -> false

let abort v ~t_id =
  match find v t_id with
  | exception Not_found -> None
  | s ->
      let verdict =
        if not (Vreassembly.complete s.tracker) then
          Reassembly_error "virtual reassembly never completed"
        else
          match verdict_of s with
          | Passed -> Reassembly_error "aborted while incomplete"
          | other -> other
      in
      note_verdict v s t_id verdict;
      Hashtbl.remove v.tpdus t_id;
      v.failed <- v.failed + 1;
      Some verdict

let abandon = abort

(* Conservative per-TPDU accounting: a fixed overhead for the WSC-2
   accumulator and the mutable cells, plus the per-span costs of the
   virtual-reassembly tracker and the X-framing record, and 16 bytes per
   paired boundary and per X.ID delta.  Exact heap words do not matter
   (the figure predates the flat layout and is kept, because the
   governor's eviction choices read it); what matters is that it grows
   with the state an adversary can force us to hold. *)
let footprint_bytes v ~t_id =
  match find v t_id with
  | exception Not_found -> 0
  | s ->
      128
      + (24 * List.length (Vreassembly.spans s.tracker))
      + (40 * List.length s.x_spans)
      + (16 * List.length s.pairs_done)
      + (16 * x_delta_count s)

let stats v =
  {
    tpdus_passed = v.passed;
    tpdus_failed = v.failed;
    duplicates = v.dups;
    chunks_seen = v.seen;
  }

let zero_stats =
  { tpdus_passed = 0; tpdus_failed = 0; duplicates = 0; chunks_seen = 0 }

let add_stats a b =
  {
    tpdus_passed = a.tpdus_passed + b.tpdus_passed;
    tpdus_failed = a.tpdus_failed + b.tpdus_failed;
    duplicates = a.duplicates + b.duplicates;
    chunks_seen = a.chunks_seen + b.chunks_seen;
  }

(* Persisted image of one in-flight TPDU: every field of [tpdu_state]
   that cannot be re-derived, in canonical (sorted) order so that
   export/import round-trips are comparable structurally.  [born] is
   deliberately absent — a restored TPDU is re-born at restore time, so
   its latency figures restart rather than counting the outage. *)
type tpdu_image = {
  ti_t_id : int;
  ti_parity : Wsc2.parity;
  ti_spans : (int * int) list;
  ti_total : int option;
  ti_pairs : int list;
  ti_x_deltas : (int * int) list;
  ti_delta_ct : int option;
  ti_c_id : int option;
  ti_size : int option;
  ti_labels_done : bool;
  ti_expected : Wsc2.parity option;
  ti_damage : string option;
  ti_x_spans : (int * int * int * int) list;
}

let export v =
  Hashtbl.fold
    (fun t_id s acc ->
      {
        ti_t_id = t_id;
        ti_parity = Wsc2.snapshot s.acc;
        ti_spans = Vreassembly.spans s.tracker;
        ti_total = Vreassembly.total s.tracker;
        ti_pairs = List.sort Int.compare s.pairs_done;
        ti_x_deltas =
          (if s.x_id0 = unset then []
           else List.sort compare ((s.x_id0, s.x_delta0) :: s.x_more));
        ti_delta_ct = (if s.delta_ct = unset then None else Some s.delta_ct);
        ti_c_id = (if s.c_id = unset then None else Some s.c_id);
        ti_size = (if s.size = unset then None else Some s.size);
        ti_labels_done = s.labels_done;
        ti_expected =
          (if s.expected == no_parity then None else Some s.expected);
        ti_damage = s.damage;
        ti_x_spans = List.sort compare s.x_spans;
      }
      :: acc)
    v.tpdus []
  |> List.sort (fun a b -> Int.compare a.ti_t_id b.ti_t_id)

let import v img =
  if not (Hashtbl.mem v.tpdus img.ti_t_id) then begin
    let s = state v img.ti_t_id in
    (* rebuild the accumulator from its parity: XOR accumulation makes
       resume-from-snapshot indistinguishable from never stopping *)
    Wsc2.combine s.acc (Wsc2.of_parity img.ti_parity);
    List.iter
      (fun (sn, len) ->
        match Vreassembly.insert_new s.tracker ~sn ~len ~st:false with
        | Ok _ | Error `Inconsistent -> ())
      img.ti_spans;
    (match img.ti_total with
    | Some total -> (
        match Vreassembly.set_total s.tracker total with
        | Ok () | Error `Inconsistent -> ())
    | None -> ());
    List.iter
      (fun k -> if not (mem_int k s.pairs_done) then s.pairs_done <- k :: s.pairs_done)
      img.ti_pairs;
    List.iter (fun (k, d) -> set_x_delta s k d) img.ti_x_deltas;
    let cell = function Some x -> x | None -> unset in
    s.delta_ct <- cell img.ti_delta_ct;
    s.c_id <- cell img.ti_c_id;
    s.size <- cell img.ti_size;
    s.labels_done <- img.ti_labels_done;
    s.expected <- Option.value img.ti_expected ~default:no_parity;
    s.damage <- img.ti_damage;
    s.x_spans <- img.ti_x_spans
  end
