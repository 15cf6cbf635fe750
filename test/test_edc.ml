(* §4 end-to-end error detection: the Fig 5 invariant, the encoder's
   fragmentation invariance, and the verifier's behaviour. *)

open Labelling

(* --- Invariant --- *)

let test_positions () =
  Alcotest.(check int) "data limit" 16384 Edc.Invariant.data_limit_symbols;
  Alcotest.(check int) "T.ID" 16384 Edc.Invariant.tid_position;
  Alcotest.(check int) "C.ID" 16385 Edc.Invariant.cid_position;
  Alcotest.(check int) "C.ST" 16386 Edc.Invariant.cst_position;
  Alcotest.(check int) "first X pair" 16387
    (Edc.Invariant.xpair_position ~boundary_t_sn:0);
  Alcotest.(check int) "X pairs stride 2" 16389
    (Edc.Invariant.xpair_position ~boundary_t_sn:1);
  (* pair positions never collide with each other or the fixed slots *)
  let max_pair = Edc.Invariant.xpair_position ~boundary_t_sn:16383 + 1 in
  Alcotest.(check bool) "within WSC-2 space" true (max_pair <= Wsc2.max_position)

let test_size_checks () =
  (match Edc.Invariant.check_size ~size:4 with
  | Ok 1 -> ()
  | _ -> Alcotest.fail "size 4 = 1 symbol");
  (match Edc.Invariant.check_size ~size:16 with
  | Ok 4 -> ()
  | _ -> Alcotest.fail "size 16 = 4 symbols");
  (match Edc.Invariant.check_size ~size:6 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "size 6 rejected");
  (match Edc.Invariant.check_size ~size:2 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "size 2 rejected");
  Alcotest.(check int) "max elems for size 4" 16384
    (Edc.Invariant.max_tpdu_elems ~size:4);
  Alcotest.(check int) "max elems for size 64" 1024
    (Edc.Invariant.max_tpdu_elems ~size:64)

let test_data_positions () =
  (match Edc.Invariant.data_position ~size:8 ~t_sn:5 with
  | Ok p -> Alcotest.(check int) "size 8, sn 5" 10 p
  | Error e -> Alcotest.fail e);
  match Edc.Invariant.data_position ~size:4 ~t_sn:16384 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "beyond the data region"

(* --- Encoder: fragmentation invariance --- *)

let tpdu_fixture ?(tpdu_elems = 24) () =
  let f = Framer.create ~elem_size:4 ~tpdu_elems ~conn_id:3 () in
  let c1 = Util.ok_or_fail (Framer.push_frame f (Util.deterministic_bytes 40)) in
  let c2 = Util.ok_or_fail (Framer.push_frame f (Util.deterministic_bytes 36)) in
  let c3 = Util.ok_or_fail (Framer.push_frame f (Util.deterministic_bytes 20)) in
  (* exactly one TPDU: 24 elements = 96 bytes = 40+36+20 *)
  c1 @ c2 @ c3

let test_parity_invariant_under_fragmentation () =
  let chunks = tpdu_fixture () in
  let p0 = Util.ok_or_fail (Edc.Encoder.parity_of_tpdu chunks) in
  for seed = 1 to 20 do
    let frag = Util.fragment_randomly ~seed chunks in
    let shuffled = Util.shuffle ~seed:(seed * 3) frag in
    let p = Util.ok_or_fail (Edc.Encoder.parity_of_tpdu shuffled) in
    Alcotest.(check bool)
      (Printf.sprintf "parity invariant (seed %d)" seed)
      true (Wsc2.parity_equal p0 p)
  done

let test_parity_after_gateway_reassembly () =
  let chunks = tpdu_fixture () in
  let p0 = Util.ok_or_fail (Edc.Encoder.parity_of_tpdu chunks) in
  let frag = Util.fragment_randomly ~seed:5 chunks in
  let merged = Reassemble.coalesce (Util.shuffle ~seed:8 frag) in
  let p = Util.ok_or_fail (Edc.Encoder.parity_of_tpdu merged) in
  Alcotest.(check bool) "reassembled parity equal" true (Wsc2.parity_equal p0 p)

let test_seal_validation () =
  let chunks = tpdu_fixture () in
  (match Edc.Encoder.seal chunks with
  | Ok ed ->
      Alcotest.(check bool) "ED is control" true (Chunk.is_control ed);
      Alcotest.(check int) "12-byte ED payload (parity + extent)" 12 (Chunk.payload_bytes ed)
  | Error e -> Alcotest.fail e);
  (match Edc.Encoder.seal [] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty TPDU");
  (* strip T.ST: incomplete *)
  let headless =
    List.filter (fun c -> not c.Chunk.header.Header.t.Ftuple.st) chunks
  in
  match Edc.Encoder.seal headless with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "TPDU without T.ST cannot be sealed"

let test_seal_tpdus_interleaves () =
  let f = Framer.create ~elem_size:4 ~tpdu_elems:8 ~conn_id:3 () in
  let cs =
    Util.ok_or_fail (Framer.push_frame ~last:true f (Util.deterministic_bytes 96))
  in
  let sealed = Util.ok_or_fail (Edc.Encoder.seal_tpdus cs) in
  let eds = List.filter Chunk.is_control sealed in
  Alcotest.(check int) "one ED per TPDU" 3 (List.length eds);
  (* each ED chunk directly follows the data of its TPDU *)
  let rec check_order = function
    | [] -> ()
    | ed :: rest when Chunk.is_control ed -> check_order rest
    | d :: rest ->
        let tid = d.Chunk.header.Header.t.Ftuple.id in
        (* the ED for tid appears later in the list *)
        Alcotest.(check bool) "ED follows data" true
          (List.exists
             (fun c ->
               Chunk.is_control c
               && c.Chunk.header.Header.t.Ftuple.id = tid)
             rest);
        check_order rest
  in
  check_order sealed

(* --- Verifier --- *)

let feed verifier chunks =
  let verdicts = ref [] in
  List.iter
    (fun chunk ->
      List.iter
        (fun ev ->
          match ev with
          | Edc.Verifier.Tpdu_verified { t_id; verdict } ->
              verdicts := (t_id, verdict) :: !verdicts
          | Edc.Verifier.Fresh_data _ | Edc.Verifier.Duplicate_dropped _ -> ())
        (Edc.Verifier.on_chunk verifier chunk))
    chunks;
  List.rev !verdicts

let test_verifier_passes_disorder () =
  let chunks = tpdu_fixture () in
  let ed = Util.ok_or_fail (Edc.Encoder.seal chunks) in
  for seed = 1 to 10 do
    let v = Edc.Verifier.create () in
    let arrived =
      Util.shuffle ~seed (ed :: Util.fragment_randomly ~seed chunks)
    in
    match feed v arrived with
    | [ (0, Edc.Verifier.Passed) ] -> ()
    | other ->
        Alcotest.failf "seed %d: expected pass, got %d verdicts" seed
          (List.length other)
  done

let test_verifier_duplicates () =
  let chunks = tpdu_fixture () in
  let ed = Util.ok_or_fail (Edc.Encoder.seal chunks) in
  let v = Edc.Verifier.create () in
  (* every data chunk delivered twice, ED last *)
  let doubled = List.concat_map (fun c -> [ c; c ]) chunks in
  (match feed v (doubled @ [ ed ]) with
  | [ (0, Edc.Verifier.Passed) ] -> ()
  | _ -> Alcotest.fail "duplicates must not corrupt the parity");
  let s = Edc.Verifier.stats v in
  Alcotest.(check bool) "duplicates counted" true
    (s.Edc.Verifier.duplicates >= List.length chunks)

let test_verifier_refragmented_retransmission () =
  let chunks = tpdu_fixture () in
  let ed = Util.ok_or_fail (Edc.Encoder.seal chunks) in
  let first = Util.fragment_randomly ~seed:3 chunks in
  (* lose a third of the first transmission *)
  let survived = List.filteri (fun i _ -> i mod 3 <> 0) first in
  let retrans = Util.fragment_randomly ~seed:44 chunks in
  let v = Edc.Verifier.create () in
  match feed v (survived @ [ ed ] @ retrans) with
  | [ (0, Edc.Verifier.Passed) ] -> ()
  | [] -> Alcotest.fail "never completed"
  | (_, verdict) :: _ ->
      Alcotest.failf "expected pass, got %s"
        (Format.asprintf "%a" Edc.Verifier.pp_verdict verdict)

let test_verifier_payload_corruption () =
  let chunks = tpdu_fixture () in
  let ed = Util.ok_or_fail (Edc.Encoder.seal chunks) in
  let corrupt =
    List.mapi
      (fun i c ->
        if i = 1 then begin
          let p = Bytes.copy c.Chunk.payload in
          Bytes.set p 3 (Char.chr (Char.code (Bytes.get p 3) lxor 0x40));
          Chunk.make_exn c.Chunk.header p
        end
        else c)
      chunks
  in
  let v = Edc.Verifier.create () in
  match feed v (corrupt @ [ ed ]) with
  | [ (0, Edc.Verifier.Parity_mismatch) ] -> ()
  | _ -> Alcotest.fail "payload corruption must be a parity mismatch"

let test_verifier_csn_corruption () =
  let chunks = tpdu_fixture () in
  let ed = Util.ok_or_fail (Edc.Encoder.seal chunks) in
  let corrupt =
    List.mapi
      (fun i c ->
        if i = 1 then begin
          let h = c.Chunk.header in
          let bad = { h with Header.c = Ftuple.advance h.Header.c 13 } in
          Chunk.make_exn { bad with Header.c = Ftuple.with_st bad.Header.c h.Header.c.Ftuple.st } c.Chunk.payload
        end
        else c)
      chunks
  in
  let v = Edc.Verifier.create () in
  match feed v (corrupt @ [ ed ]) with
  | (0, Edc.Verifier.Consistency_failure _) :: _ -> ()
  | _ -> Alcotest.fail "C.SN corruption must fail the consistency check"

let test_verifier_missing_ed_abort () =
  let chunks = tpdu_fixture () in
  let v = Edc.Verifier.create () in
  ignore (feed v chunks);
  Alcotest.(check int) "in flight" 1 (Edc.Verifier.in_flight v);
  (match Edc.Verifier.abort v ~t_id:0 with
  | Some (Edc.Verifier.Reassembly_error _) -> ()
  | _ -> Alcotest.fail "abort should report a reassembly error");
  Alcotest.(check int) "released" 0 (Edc.Verifier.in_flight v)

let test_verifier_early_failure_then_recovery () =
  (* a poisoned chunk fails the TPDU immediately; a full clean
     retransmission must then pass *)
  let chunks = tpdu_fixture () in
  let ed = Util.ok_or_fail (Edc.Encoder.seal chunks) in
  let poisoned =
    match chunks with
    | first :: rest ->
        let h = first.Chunk.header in
        Chunk.make_exn
          { h with Header.c = Ftuple.advance h.Header.c 99 }
          first.Chunk.payload
        :: rest
    | [] -> assert false
  in
  let v = Edc.Verifier.create () in
  let verdicts = feed v (poisoned @ [ ed ] @ chunks @ [ ed ]) in
  Alcotest.(check bool) "a failure was reported" true
    (List.exists
       (fun (_, vd) -> not (Edc.Verifier.verdict_equal vd Edc.Verifier.Passed))
       verdicts);
  Alcotest.(check bool) "recovered to a pass" true
    (List.exists
       (fun (_, vd) -> Edc.Verifier.verdict_equal vd Edc.Verifier.Passed)
       verdicts)

let test_verifier_tst_corruption () =
  let chunks = tpdu_fixture () in
  let ed = Util.ok_or_fail (Edc.Encoder.seal chunks) in
  (* clear the final T.ST: reassembly can never complete *)
  let stripped =
    List.map
      (fun c ->
        let h = c.Chunk.header in
        if h.Header.t.Ftuple.st then
          Chunk.make_exn
            { h with
              Header.t = Ftuple.with_st h.Header.t false;
              c = Ftuple.with_st h.Header.c false;
              x = h.Header.x }
            c.Chunk.payload
        else c)
      chunks
  in
  let v = Edc.Verifier.create () in
  (* the ED chunk announces the TPDU's extent, so the verifier need not
     wait for a timeout: reassembly completes via the extent and the
     missing label contributions fail the parity immediately *)
  match feed v (stripped @ [ ed ]) with
  | [ (0, Edc.Verifier.Parity_mismatch) ] -> ()
  | [] -> Alcotest.fail "extent should complete the TPDU"
  | _ -> Alcotest.fail "T.ST corruption must fail verification"

let test_arrival_sn_overflow () =
  (* regression: (T.SN + LEN) * symbols-per-word once overflowed for a
     corrupted near-max_int T.SN, letting the chunk past the
     invariant-region check and into the position computation *)
  let huge =
    Util.ok_or_fail
      (Chunk.data ~size:4
         ~c:(Ftuple.v ~id:1 ~sn:0 ())
         ~t:(Ftuple.v ~id:0 ~sn:(max_int - 2) ())
         ~x:(Ftuple.v ~id:0 ~sn:0 ())
         (Bytes.create 4))
  in
  let v = Edc.Verifier.create () in
  match feed v [ huge ] with
  | [ (0, Edc.Verifier.Reassembly_error _) ] -> ()
  | [] -> Alcotest.fail "huge T.SN must fail the TPDU immediately"
  | _ -> Alcotest.fail "huge T.SN must fail as a reassembly error"

let test_ed_csn_mismatch () =
  (* regression: the ED chunk's own C.SN - T.SN delta was recorded but
     never cross-checked against the delta seen on data chunks, so a
     corrupted data-chunk label could steer placement with no
     independent witness *)
  let chunks = tpdu_fixture () in
  let ed = Util.ok_or_fail (Edc.Encoder.seal chunks) in
  let h = ed.Chunk.header in
  let bad_ed =
    Util.ok_or_fail
      (Chunk.control ~kind:Ctype.ed
         ~c:
           (Ftuple.v ~st:h.Header.c.Ftuple.st ~id:h.Header.c.Ftuple.id
              ~sn:(h.Header.c.Ftuple.sn + 4) ())
         ~t:h.Header.t ~x:h.Header.x ed.Chunk.payload)
  in
  let v = Edc.Verifier.create () in
  match feed v (chunks @ [ bad_ed ]) with
  | [ (0, Edc.Verifier.Consistency_failure _) ] -> ()
  | [] -> Alcotest.fail "shifted ED C.SN went unnoticed"
  | _ -> Alcotest.fail "shifted ED C.SN must be a consistency failure"

(* --- on_view: the payload read in place --------------------------- *)

(* An arrival sequence over a framed stream's sealed TPDUs: refragmented,
   with duplicates, shuffled, and with some chunks damaged in a label or
   a payload byte. *)
let gen_arrivals =
  QCheck2.Gen.(
    let* _, chunks = Util.gen_framed_stream in
    let* frag_seed = int_range 0 0xFFFF in
    let* dup_seeds = list_size (int_range 0 4) nat in
    let* order_seed = int_range 0 0xFFFF in
    let* damage = list_size (int_range 0 3) (pair nat (int_range 0 5)) in
    let* pad_seed = int_range 0 0xFFFF in
    let sealed = Util.ok_or_fail (Edc.Encoder.seal_tpdus chunks) in
    let frags = Array.of_list (Util.fragment_randomly ~seed:frag_seed sealed) in
    let n = Array.length frags in
    let dups = List.map (fun k -> frags.(k mod n)) dup_seeds in
    let arr =
      Array.of_list (Util.shuffle ~seed:order_seed (Array.to_list frags @ dups))
    in
    let bump (u : Ftuple.t) = { u with Ftuple.sn = u.Ftuple.sn + 1 } in
    List.iter
      (fun (k, kind) ->
        let i = k mod Array.length arr in
        let c = arr.(i) in
        let h = c.Chunk.header in
        let p = Bytes.copy c.Chunk.payload in
        let h =
          match kind with
          | 0 ->
              let j = k mod Bytes.length p in
              Bytes.set p j (Char.chr (Char.code (Bytes.get p j) lxor 0x5A));
              h
          | 1 -> { h with Header.c = bump h.Header.c }
          | 2 -> { h with Header.t = bump h.Header.t }
          | 3 -> { h with Header.x = { h.Header.x with Ftuple.id = 1 + h.Header.x.Ftuple.id } }
          | 4 -> { h with Header.t = { h.Header.t with Ftuple.st = not h.Header.t.Ftuple.st } }
          | _ -> { h with Header.c = { h.Header.c with Ftuple.id = 1 + h.Header.c.Ftuple.id } }
        in
        arr.(i) <- Chunk.make_exn h p)
      damage;
    return (Array.to_list arr, pad_seed))

(* Feeding each chunk in place — its wire image at a random offset
   inside a larger buffer of random bytes, the labels read into a view
   and the payload left where it is — is indistinguishable from feeding
   the chunk: the same events, counters and persisted images. *)
let prop_view_matches_chunk (arrivals, pad_seed) =
  let rand = Random.State.make [| pad_seed |] in
  let by_chunk = Edc.Verifier.create ~now:(fun () -> 0.0) () in
  let by_view = Edc.Verifier.create ~now:(fun () -> 0.0) () in
  let view = Wire.Scan.view () in
  List.for_all
    (fun c ->
      let n = Bytes.length c.Chunk.payload in
      let lead = Random.State.int rand 64 in
      let buf =
        Bytes.init
          (lead + Wire.header_size + n + Random.State.int rand 64)
          (fun _ -> Char.chr (Random.State.int rand 256))
      in
      Wire.write_header buf lead c.Chunk.header;
      Bytes.blit c.Chunk.payload 0 buf (lead + Wire.header_size) n;
      Wire.Scan.read view buf lead;
      Edc.Verifier.on_chunk by_chunk c
      = Edc.Verifier.on_view by_view view buf (lead + Wire.header_size))
    arrivals
  && Edc.Verifier.stats by_chunk = Edc.Verifier.stats by_view
  && Edc.Verifier.export by_chunk = Edc.Verifier.export by_view

let test_view_outside_buffer () =
  let c = List.hd (tpdu_fixture ()) in
  let n = Bytes.length c.Chunk.payload in
  let v = Edc.Verifier.create () in
  Alcotest.check_raises "payload past the end"
    (Invalid_argument "Verifier.on_view: payload outside the buffer")
    (fun () ->
      let view = Wire.Scan.view () in
      Wire.Scan.read_header view c.Chunk.header;
      ignore (Edc.Verifier.on_view v view (Bytes.create (n + 3)) 4));
  Alcotest.(check int) "nothing was counted" 0
    (Edc.Verifier.stats v).Edc.Verifier.chunks_seen

let suite =
  [
    Alcotest.test_case "invariant positions" `Quick test_positions;
    Alcotest.test_case "invariant size checks" `Quick test_size_checks;
    Alcotest.test_case "invariant data positions" `Quick test_data_positions;
    Alcotest.test_case "parity invariant under fragmentation (Fig 5)" `Quick
      test_parity_invariant_under_fragmentation;
    Alcotest.test_case "parity after gateway reassembly" `Quick
      test_parity_after_gateway_reassembly;
    Alcotest.test_case "seal validation" `Quick test_seal_validation;
    Alcotest.test_case "seal_tpdus interleaving" `Quick
      test_seal_tpdus_interleaves;
    Alcotest.test_case "verifier passes any disorder" `Quick
      test_verifier_passes_disorder;
    Alcotest.test_case "verifier ignores duplicates" `Quick
      test_verifier_duplicates;
    Alcotest.test_case "refragmented retransmission" `Quick
      test_verifier_refragmented_retransmission;
    Alcotest.test_case "payload corruption -> parity" `Quick
      test_verifier_payload_corruption;
    Alcotest.test_case "C.SN corruption -> consistency" `Quick
      test_verifier_csn_corruption;
    Alcotest.test_case "missing ED -> abort" `Quick
      test_verifier_missing_ed_abort;
    Alcotest.test_case "early failure then recovery" `Quick
      test_verifier_early_failure_then_recovery;
    Alcotest.test_case "T.ST corruption -> reassembly error" `Quick
      test_verifier_tst_corruption;
    Alcotest.test_case "huge T.SN fails without overflow" `Quick
      test_arrival_sn_overflow;
    Alcotest.test_case "ED C.SN mismatch -> consistency" `Quick
      test_ed_csn_mismatch;
    Util.qtest ~count:200 "on_view in place agrees with on_chunk" gen_arrivals
      prop_view_matches_chunk;
    Alcotest.test_case "on_view rejects a slice outside its buffer" `Quick
      test_view_outside_buffer;
    Util.qtest ~count:40 "parity invariance (property)"
      QCheck2.Gen.(tup2 (int_range 0 10000) (int_range 0 10000))
      (fun (s1, s2) ->
        let chunks = tpdu_fixture () in
        let p0 = Util.ok_or_fail (Edc.Encoder.parity_of_tpdu chunks) in
        let frag = Util.fragment_randomly ~seed:s1 chunks in
        let shuffled = Util.shuffle ~seed:s2 frag in
        let p = Util.ok_or_fail (Edc.Encoder.parity_of_tpdu shuffled) in
        Wsc2.parity_equal p0 p);
  ]
