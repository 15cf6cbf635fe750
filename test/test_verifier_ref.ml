(* Differential: [Edc.Verifier] against [Ref_verifier], the verifier as
   it was before its per-TPDU state went flat.  Random chunk streams over
   a few TPDUs (refragmented and duplicated retransmissions, disorder,
   corrupted C/T/X labels, conflicting ED chunks, aborts, and
   export -> import into fresh verifiers mid-stream) must give equal
   events after every step, and equal statistics, in-flight T.IDs,
   footprints, gap reports, ED flags and export images. *)

open Labelling
module V = Edc.Verifier
module R = Ref_verifier

type op =
  | Feed of Chunk.t
  | Abort of int
  | Reimage of bool  (* [true]: also perturb the images' lists *)

let pick rand l = List.nth l (Random.State.int rand (List.length l))

(* A sealed stream of a few TPDUs, as data chunks followed by each
   TPDU's ED chunk. *)
let sealed_stream rand =
  let elem_size = pick rand [ 4; 8 ] in
  let tpdu_elems = 2 + Random.State.int rand 30 in
  let framer =
    Framer.create ~elem_size ~tpdu_elems
      ~first_tid:(Random.State.int rand 5)
      ~conn_id:(Random.State.int rand 0x1_0000) ()
  in
  let nframes = 1 + Random.State.int rand 4 in
  let chunks =
    List.concat
      (List.init nframes (fun i ->
           let elems = 1 + Random.State.int rand 40 in
           let frame =
             Bytes.init (elems * elem_size) (fun j ->
                 Char.chr (Random.State.int rand 256 lxor j land 0xFF))
           in
           Result.get_ok
             (Framer.push_frame ~last:(i = nframes - 1) framer frame)))
  in
  Result.get_ok (Edc.Encoder.seal_tpdus chunks)

let with_header c (h : Header.t) = Chunk.make_exn h c.Chunk.payload

(* One corrupted label (or, on an ED chunk, a corrupted parity or
   extent), as damage in flight would leave it; every value stays
   representable on the wire. *)
let corrupt rand c =
  let h = c.Chunk.header in
  let bump n = Int.max 0 (n + pick rand [ -3; -1; 1; 2; 17 ]) in
  let id () = pick rand [ 0; 1; 2; Random.State.int rand 0x1_0000; 0xFFFF_FFFF ] in
  let tuple (u : Ftuple.t) k =
    match k with
    | 0 -> { u with Ftuple.id = id () }
    | 1 -> { u with Ftuple.sn = bump u.Ftuple.sn }
    | _ -> { u with Ftuple.st = not u.Ftuple.st }
  in
  let is_ed = Ctype.equal h.Header.ctype Ctype.ed in
  match Random.State.int rand 8 with
  | 0 | 1 when is_ed ->
      (* a conflicting ED chunk: damaged parity or extent *)
      let p = Bytes.copy c.Chunk.payload in
      let i = Random.State.int rand 12 in
      Bytes.set p i
        (Char.chr (Char.code (Bytes.get p i) lxor (1 + Random.State.int rand 255)));
      Chunk.make_exn h p
  | 2 when is_ed ->
      (* an extent of zero, or a payload of the wrong length *)
      if Random.State.bool rand then begin
        let p = Bytes.copy c.Chunk.payload in
        Bytes.set_int32_be p 8 0l;
        Chunk.make_exn h p
      end
      else
        Chunk.make_exn { h with Header.len = 8 } (Bytes.sub c.Chunk.payload 0 8)
  | 3 when h.Header.size mod 8 = 0 ->
      (* the same bytes relabelled as twice as many half-size elements *)
      with_header c
        { h with Header.size = h.Header.size / 2; len = h.Header.len * 2 }
  | 4 when not is_ed ->
      (* a T.SN far outside the invariant's data region *)
      with_header c
        { h with Header.t = { h.Header.t with Ftuple.sn = h.Header.t.Ftuple.sn + 20_000 } }
  | _ ->
      let k = Random.State.int rand 3 in
      with_header c
        (match Random.State.int rand 3 with
        | 0 -> { h with Header.c = tuple h.Header.c k }
        | 1 -> { h with Header.t = tuple h.Header.t k }
        | _ -> { h with Header.x = tuple h.Header.x k })

let gen_ops =
  QCheck2.Gen.(
    let* seed = int_range 0 0x3FFF_FFFF in
    return
      (let rand = Random.State.make [| seed |] in
       let sealed = sealed_stream rand in
       let t_ids =
         List.sort_uniq Int.compare
           (List.map (fun c -> c.Chunk.header.Header.t.Ftuple.id) sealed)
       in
       (* the first transmission, refragmented, plus retransmissions:
          some whole, refragmented differently, some as duplicates of
          single chunks *)
       let first = Util.fragment_randomly ~seed sealed in
       let retx =
         List.init (Random.State.int rand 3) (fun k ->
             Util.fragment_randomly ~seed:(seed + k + 1) sealed)
         |> List.concat
         |> List.filter (fun _ -> Random.State.int rand 3 > 0)
       in
       let dups = List.filter (fun _ -> Random.State.int rand 10 = 0) first in
       let chunks = Util.shuffle ~seed (first @ dups) @ Util.shuffle ~seed:(seed + 7) retx in
       let damage = Random.State.int rand 4 in
       List.concat_map
         (fun c ->
           let c = if Random.State.int rand 12 < damage then corrupt rand c else c in
           Feed c
           ::
           (match Random.State.int rand 40 with
           | 0 -> [ Abort (pick rand t_ids) ]
           | 1 -> [ Reimage false ]
           | 2 -> [ Reimage true ]
           | _ -> []))
         chunks))

let print_ops ops =
  String.concat "\n"
    (List.map
       (function
         | Feed c -> Format.asprintf "feed %a" Chunk.pp c
         | Abort t -> Printf.sprintf "abort %d" t
         | Reimage p -> Printf.sprintf "reimage%s" (if p then " (perturbed)" else ""))
       ops)

(* Duplicate entries an image's tables can hold after a damaged
   persist: both verifiers must read them the same way. *)
let perturb (img : V.tpdu_image) =
  {
    img with
    V.ti_pairs = img.V.ti_pairs @ List.rev img.V.ti_pairs;
    ti_x_deltas =
      img.V.ti_x_deltas @ List.map (fun (k, d) -> (k, d + 1)) img.V.ti_x_deltas;
  }

let observed_equal r v =
  let ids = V.in_flight_ids v in
  let probe = List.sort_uniq Int.compare (0 :: 1 :: 2 :: 5 :: ids) in
  R.stats r = V.stats v
  && R.in_flight_ids r = ids
  && List.for_all
       (fun t_id ->
         R.footprint_bytes r ~t_id = V.footprint_bytes v ~t_id
         && R.missing r ~t_id = V.missing v ~t_id
         && R.ed_seen r ~t_id = V.ed_seen v ~t_id)
       probe
  && R.export r = V.export v

let prop_same_as_reference ops =
  let r = ref (R.create ()) and v = ref (V.create ~now:(fun () -> 0.0) ()) in
  let step = function
    | Feed c -> R.on_chunk !r c = V.on_chunk !v c
    | Abort t_id -> R.abort !r ~t_id = V.abort !v ~t_id
    | Reimage perturbed ->
        let images = V.export !v in
        let images = if perturbed then List.map perturb images else images in
        r := R.create ();
        v := V.create ~now:(fun () -> 0.0) ();
        List.iter (R.import !r) images;
        List.iter (V.import !v) images;
        true
  in
  List.for_all (fun op -> step op && observed_equal !r !v) ops

let suite =
  [
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| Lazy.force Util.qcheck_seed |])
      (QCheck2.Test.make ~count:400 ~print:print_ops
         ~name:"flat verifier state = reference verifier" gen_ops
         prop_same_as_reference);
  ]
