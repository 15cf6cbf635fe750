(* The per-TPDU verifier as it was before its state went flat (one
   record of int cells with an inline first X.ID delta), kept as a
   test-only reference: a tpdu_state of two Hashtbls, options and a
   separate tracker, with the same checks in the same order.  Metrics
   and tracing are left out; events, verdicts, statistics, footprints
   and images are [Edc.Verifier]'s own types, so the two compare
   structurally. *)

open Labelling
module V = Edc.Verifier
open V
module Invariant = Edc.Invariant
module Encoder = Edc.Encoder

type tpdu_state = {
  acc : Wsc2.acc;
  tracker : Vreassembly.t;
  pairs_done : (int, unit) Hashtbl.t;  (* boundary T.SNs already paired *)
  x_deltas : (int, int) Hashtbl.t;     (* X.ID -> C.SN - X.SN *)
  mutable delta_ct : int option;       (* C.SN - T.SN *)
  mutable c_id : int option;
  mutable size : int option;
  mutable labels_done : bool;
  mutable expected : Wsc2.parity option;
  mutable damage : string option;      (* completion-time failure note *)
  mutable x_spans : (int * int * int * int) list;
      (* (t_sn, len, x_id, x_sn) fresh runs *)
}

type t = {
  tpdus : (int, tpdu_state) Hashtbl.t;
  mutable passed : int;
  mutable failed : int;
  mutable dups : int;
  mutable seen : int;
}


let create () =
  { tpdus = Hashtbl.create 32; passed = 0; failed = 0; dups = 0; seen = 0 }

let state v t_id =
  match Hashtbl.find_opt v.tpdus t_id with
  | Some s -> s
  | None ->
      let s =
        {
          acc = Wsc2.create ();
          tracker = Vreassembly.create ();
          pairs_done = Hashtbl.create 4;
          x_deltas = Hashtbl.create 4;
          delta_ct = None;
          c_id = None;
          size = None;
          labels_done = false;
          expected = None;
          damage = None;
          x_spans = [];
        }
      in
      Hashtbl.add v.tpdus t_id s;
      s

(* A damaged chunk dooms its TPDU: report at once and release state, so
   a retransmission (with identical, correct labels) starts clean.  The
   offending chunk is discarded without being processed — "the error
   detection system will detect the incorrect sequence numbers and allow
   any incorrect chunks to be discarded" (Appendix A). *)
let fail_now v t_id verdict =
  Hashtbl.remove v.tpdus t_id;
  v.failed <- v.failed + 1;
  [ Tpdu_verified { t_id; verdict } ]

(* Completion-time X-framing contiguity: sort the fresh element runs by
   T.SN; along the TPDU the X.ID may change only across an element that
   some chunk declared as a boundary (an X.ST or T.ST position), and an
   X.ID must not recur after a different one.  This catches a corrupted
   X.ID on a {e non-boundary} chunk, which neither the parity (pairs
   come from boundary chunks only) nor the per-X.ID delta check sees. *)
let x_framing_ok s =
  let spans =
    List.sort (fun (a, _, _, _) (b, _, _, _) -> Int.compare a b) s.x_spans
  in
  let rec walk seen = function
    | [] | [ _ ] -> true
    | (sn_a, len_a, xa, _) :: ((sn_b, _, xb, xsn_b) :: _ as rest) ->
        if xa = xb then walk seen rest
        else begin
          let boundary = sn_a + len_a - 1 in
          (* the new external PDU starts just after the boundary, so its
             element at T.SN [sn_b] has X.SN [sn_b - boundary - 1] *)
          Hashtbl.mem s.pairs_done boundary
          && xsn_b = sn_b - boundary - 1
          && (not (List.mem xb seen))
          && walk (xa :: seen) rest
        end
  in
  walk [] spans

let verdict_of s =
  match (s.damage, s.expected) with
  | Some msg, _ -> Reassembly_error msg
  | None, Some expected ->
      if not (Wsc2.verify ~expected s.acc) then Parity_mismatch
      else if not (x_framing_ok s) then
        Consistency_failure "X framing not contiguous"
      else Passed
  | None, None -> Reassembly_error "ED chunk never arrived"

let try_finish v t_id s =
  if Vreassembly.complete s.tracker && s.expected <> None then begin
    let verdict = verdict_of s in
    Hashtbl.remove v.tpdus t_id;
    (match verdict with
    | Passed -> v.passed <- v.passed + 1
    | Parity_mismatch | Consistency_failure _ | Reassembly_error _ ->
        v.failed <- v.failed + 1);
    [ Tpdu_verified { t_id; verdict } ]
  end
  else []

(* Returns the first on-arrival problem with this chunk, if any. *)
let arrival_check s (h : Header.t) =
  let size_problem =
    match Invariant.check_size ~size:h.Header.size with
    | Error msg -> Some (Reassembly_error msg)
    | Ok spw
      when h.Header.t.Ftuple.sn > Invariant.data_limit_symbols
           || (h.Header.t.Ftuple.sn + h.Header.len) * spw
              > Invariant.data_limit_symbols ->
        (* a (possibly corrupted) T.SN/LEN that escapes the invariant's
           data region can never virtually reassemble *)
        Some (Reassembly_error "TPDU data outside the invariant region")
    | Ok _ -> (
        match s.size with
        | Some sz when sz <> h.Header.size ->
            Some (Reassembly_error "SIZE changed between chunks")
        | Some _ | None -> None)
  in
  match size_problem with
  | Some _ as p -> p
  | None ->
      if h.Header.c.Ftuple.st && not h.Header.t.Ftuple.st then
        (* The C.ST bit can be set only on a TPDU boundary (§4). *)
        Some (Consistency_failure "C.ST set off a TPDU boundary")
      else (
        match s.c_id with
        | Some id when id <> h.Header.c.Ftuple.id ->
            Some (Consistency_failure "C.ID changed between chunks")
        | Some _ | None -> (
            let delta = h.Header.c.Ftuple.sn - h.Header.t.Ftuple.sn in
            match s.delta_ct with
            | Some d when d <> delta ->
                Some (Consistency_failure "C.SN - T.SN changed")
            | Some _ | None -> (
                let xd = h.Header.c.Ftuple.sn - h.Header.x.Ftuple.sn in
                match Hashtbl.find_opt s.x_deltas h.Header.x.Ftuple.id with
                | Some d when d <> xd ->
                    Some (Consistency_failure "C.SN - X.SN changed")
                | Some _ | None -> None)))

let commit_arrival s (h : Header.t) =
  if s.size = None then s.size <- Some h.Header.size;
  if s.c_id = None then s.c_id <- Some h.Header.c.Ftuple.id;
  if s.delta_ct = None then
    s.delta_ct <- Some (h.Header.c.Ftuple.sn - h.Header.t.Ftuple.sn);
  let xd = h.Header.c.Ftuple.sn - h.Header.x.Ftuple.sn in
  if not (Hashtbl.mem s.x_deltas h.Header.x.Ftuple.id) then
    Hashtbl.add s.x_deltas h.Header.x.Ftuple.id xd

(* Accumulate exactly the fresh element sub-runs of a chunk's payload,
   which sits in [buf] at [off].  The unchecked fast path is safe here:
   [fresh] runs are sub-ranges of the chunk's own [sn, sn + len) (so the
   byte slice is inside the payload, which [on_view] checked lies inside
   [buf]), and [arrival_check] already rejected any chunk whose element
   span escapes the invariant's data region, so every position is in
   range. *)
let accumulate_fresh s (h : Header.t) buf off fresh =
  let size = h.Header.size in
  (* where element T.SN 0 would sit in [buf] *)
  let origin = off - (h.Header.t.Ftuple.sn * size) in
  List.iter
    (fun (sn, len) ->
      match Invariant.data_position ~size ~t_sn:sn with
      | Error msg -> if s.damage = None then s.damage <- Some msg
      | Ok pos ->
          Wsc2.add_subbytes_exn s.acc ~pos buf (origin + (sn * size))
            (len * size))
    fresh

let on_data v (h : Header.t) buf off =
  let t_id = h.Header.t.Ftuple.id in
  let s = state v t_id in
  match arrival_check s h with
  | Some verdict -> fail_now v t_id verdict
  | None -> (
      commit_arrival s h;
      match
        Vreassembly.insert_new s.tracker ~sn:h.Header.t.Ftuple.sn
          ~len:h.Header.len ~st:h.Header.t.Ftuple.st
      with
      | Error `Inconsistent ->
          fail_now v t_id
            (Reassembly_error "fragment beyond or contradicting the TPDU end")
      | Ok fresh ->
          let events = ref [] in
          (match fresh with
          | [] ->
              v.dups <- v.dups + 1;
              events := [ Duplicate_dropped { t_id } ]
          | _ :: _ ->
              accumulate_fresh s h buf off fresh;
              List.iter
                (fun (sn, len) ->
                  let xsn =
                    h.Header.x.Ftuple.sn + (sn - h.Header.t.Ftuple.sn)
                  in
                  s.x_spans <- (sn, len, h.Header.x.Ftuple.id, xsn) :: s.x_spans)
                fresh;
              events :=
                List.map
                  (fun (sn, len) ->
                    Fresh_data { t_id; t_sn = sn; elems = len })
                  fresh);
          (* Boundary contributions are deduplicated independently of
             payload freshness: a refragmented retransmission can
             re-deliver a boundary on an all-duplicate chunk. *)
          if h.Header.t.Ftuple.st || h.Header.x.Ftuple.st then begin
            let boundary = h.Header.t.Ftuple.sn + h.Header.len - 1 in
            if not (Hashtbl.mem s.pairs_done boundary) then begin
              Hashtbl.add s.pairs_done boundary ();
              let pos = Invariant.xpair_position ~boundary_t_sn:boundary in
              Wsc2.add_symbol s.acc ~pos
                (h.Header.x.Ftuple.id land 0xFFFF_FFFF);
              Wsc2.add_symbol s.acc ~pos:(pos + 1)
                (Encoder.xpair_second_symbol ~boundary_t_sn:boundary
                   ~x_st:h.Header.x.Ftuple.st)
            end
          end;
          if h.Header.t.Ftuple.st && not s.labels_done then begin
            s.labels_done <- true;
            Wsc2.add_symbol s.acc ~pos:Invariant.tid_position
              (h.Header.t.Ftuple.id land 0xFFFF_FFFF);
            Wsc2.add_symbol s.acc ~pos:Invariant.cid_position
              (h.Header.c.Ftuple.id land 0xFFFF_FFFF);
            Wsc2.add_symbol s.acc ~pos:Invariant.cst_position
              (if h.Header.c.Ftuple.st then Gf232.one else Gf232.zero)
          end;
          !events @ try_finish v t_id s)

let on_ed v (h : Header.t) buf off =
  let t_id = h.Header.t.Ftuple.id in
  let s = state v t_id in
  if Header.payload_bytes h <> 12 then
    fail_now v t_id (Reassembly_error "malformed ED chunk payload")
  else
    match s.c_id with
    | Some id when id <> h.Header.c.Ftuple.id ->
        fail_now v t_id (Consistency_failure "ED chunk C.ID mismatch")
    | Some _ | None ->
  begin
    let parity = Wsc2.parity_of_bytes buf off in
    let total = Int32.to_int (Bytes.get_int32_be buf (off + 8)) land 0xFFFF_FFFF in
    match s.expected with
    | Some p when not (Wsc2.parity_equal p parity) ->
        fail_now v t_id (Reassembly_error "conflicting ED chunks")
    | Some _ | None -> (
        (* The ED chunk also pins the C.SN - T.SN delta (its T.SN is 0,
           its C.SN the TPDU's first element) and the TPDU's extent.  A
           delta already established by data chunks must agree: with a
           single data chunk the delta check in [arrival_check] never
           fires, so this comparison is the only consistency coverage
           the connection label gets. *)
        let delta = h.Header.c.Ftuple.sn - h.Header.t.Ftuple.sn in
        match s.delta_ct with
        | Some d when d <> delta ->
            fail_now v t_id (Consistency_failure "ED chunk C.SN mismatch")
        | Some _ | None -> (
            s.expected <- Some parity;
            if s.delta_ct = None then s.delta_ct <- Some delta;
            if total < 1 then
              fail_now v t_id (Reassembly_error "ED chunk announces no data")
            else
              match Vreassembly.set_total s.tracker total with
              | Error `Inconsistent ->
                  fail_now v t_id
                    (Reassembly_error "ED extent contradicts received data")
              | Ok () -> try_finish v t_id s))
  end

let stats v =
  {
    V.tpdus_passed = v.passed;
    tpdus_failed = v.failed;
    duplicates = v.dups;
    chunks_seen = v.seen;
  }

let on_view v (h : Header.t) buf off =
  let nbytes = Header.payload_bytes h in
  if off < 0 || off > Bytes.length buf - nbytes then
    invalid_arg "Verifier.on_view: payload outside the buffer";
  v.seen <- v.seen + 1;
  if Header.is_terminator h then []
  else if Ctype.is_data h.Header.ctype then on_data v h buf off
  else if Ctype.equal h.Header.ctype Ctype.ed then on_ed v h buf off
  else []

let on_chunk v chunk = on_view v chunk.Chunk.header chunk.Chunk.payload 0

let in_flight_ids v =
  Hashtbl.fold (fun id _ acc -> id :: acc) v.tpdus [] |> List.sort Int.compare

let missing v ~t_id =
  Option.map
    (fun s -> Vreassembly.missing s.tracker)
    (Hashtbl.find_opt v.tpdus t_id)

let ed_seen v ~t_id =
  match Hashtbl.find_opt v.tpdus t_id with
  | Some s -> s.expected <> None
  | None -> false

let abort v ~t_id =
  match Hashtbl.find_opt v.tpdus t_id with
  | None -> None
  | Some s ->
      let verdict =
        if not (Vreassembly.complete s.tracker) then
          Reassembly_error "virtual reassembly never completed"
        else
          match verdict_of s with
          | Passed -> Reassembly_error "aborted while incomplete"
          | other -> other
      in
        Hashtbl.remove v.tpdus t_id;
      v.failed <- v.failed + 1;
      Some verdict

(* Conservative per-TPDU accounting: a fixed overhead for the WSC-2
   accumulator and the mutable cells, plus the per-span costs of the
   virtual-reassembly tracker and the X-framing record.  Exact heap
   words do not matter; what matters is that the figure grows with the
   state an adversary can force us to hold. *)
let footprint_bytes v ~t_id =
  match Hashtbl.find_opt v.tpdus t_id with
  | None -> 0
  | Some s ->
      128
      + (24 * List.length (Vreassembly.spans s.tracker))
      + (40 * List.length s.x_spans)
      + (16 * Hashtbl.length s.pairs_done)
      + (16 * Hashtbl.length s.x_deltas)

let export v =
  Hashtbl.fold
    (fun t_id s acc ->
      {
        V.ti_t_id = t_id;
        ti_parity = Wsc2.snapshot s.acc;
        ti_spans = Vreassembly.spans s.tracker;
        ti_total = Vreassembly.total s.tracker;
        ti_pairs =
          Hashtbl.fold (fun k () l -> k :: l) s.pairs_done []
          |> List.sort Int.compare;
        ti_x_deltas =
          Hashtbl.fold (fun k d l -> (k, d) :: l) s.x_deltas []
          |> List.sort compare;
        ti_delta_ct = s.delta_ct;
        ti_c_id = s.c_id;
        ti_size = s.size;
        ti_labels_done = s.labels_done;
        ti_expected = s.expected;
        ti_damage = s.damage;
        ti_x_spans = List.sort compare s.x_spans;
      }
      :: acc)
    v.tpdus []
  |> List.sort (fun a b -> Int.compare a.V.ti_t_id b.V.ti_t_id)

let import v (img : V.tpdu_image) =
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
    List.iter (fun k -> Hashtbl.replace s.pairs_done k ()) img.ti_pairs;
    List.iter (fun (k, d) -> Hashtbl.replace s.x_deltas k d) img.ti_x_deltas;
    s.delta_ct <- img.ti_delta_ct;
    s.c_id <- img.ti_c_id;
    s.size <- img.ti_size;
    s.labels_done <- img.ti_labels_done;
    s.expected <- img.ti_expected;
    s.damage <- img.ti_damage;
    s.x_spans <- img.ti_x_spans
  end
