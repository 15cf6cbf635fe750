(* Workload inputs, made from the command-line seed.

   Every byte the benchmark feeds the program is drawn here with the
   standard library's PRNG: the program under test never sees the seed,
   so a change to its own random streams cannot change the inputs.  The
   same seed gives the same packets, which [digest] pins down. *)

open Labelling
module Ct = Transport.Chunk_transport

let ok = function Ok x -> x | Error e -> failwith e

let rand_bytes rng n =
  let b = Bytes.create n in
  let i = ref 0 in
  while !i + 8 <= n do
    Bytes.set_int64_le b !i (Random.State.bits64 rng);
    i := !i + 8
  done;
  while !i < n do
    Bytes.set b !i (Char.chr (Random.State.int rng 256));
    incr i
  done;
  b

(* Shuffle each consecutive block of [window] entries: disorder whose
   displacement is bounded by the window, as a multipath network with
   that much skew produces. *)
let block_shuffle rng window a =
  let n = Array.length a in
  let lo = ref 0 in
  while !lo < n do
    let hi = min n (!lo + window) in
    for i = hi - 1 downto !lo + 1 do
      let j = !lo + Random.State.int rng (i - !lo + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    lo := hi
  done

let open_packet conn =
  ok
    (Wire.encode_packet
       [ Connection.signal_chunk ~conn_id:conn (Open { first_csn = 0 }) ])

(* {1 Multi workloads} *)

type multi = {
  config : Ct.config;
  quota_elems : int;
  max_conns : int;
  opens : bytes array;
  packets : bytes array;  (** arrival order *)
  data : bytes array;  (** indexed by C.ID: the bytes the connection sends *)
  regions : (int * int * int) array;
      (** one per expected TPDU: (C.ID, byte offset, bytes) *)
  whole : bool;
      (** every connection ends its stream with C.ST, so each epoch must
          complete and the endpoint must hold no soft state at the end *)
}

let batch = 32

let batches packets =
  let n = Array.length packets in
  Array.init ((n + batch - 1) / batch) (fun i ->
      Array.sub packets (i * batch) (min batch (n - (i * batch))))

(* [conns] connections, each one epoch of [tpdus] 2 KiB TPDUs (512
   four-byte elements, one application frame per TPDU), interleaved
   round-robin, optionally fragmented to [frag]-byte chunks (one chunk
   per packet), with [dup] of the packets duplicated, then shuffled
   within [window] packets. *)
let bulk ~seed ~conns ~tpdus ~frag ~dup ~window =
  let rng = Random.State.make [| seed; 0xB01C |] in
  let elem_size = 4 and tpdu_elems = 512 in
  let tb = elem_size * tpdu_elems in
  let data = Array.make (conns + 1) Bytes.empty in
  let per_tpdu = Array.make_matrix tpdus (conns + 1) [||] in
  for c = 1 to conns do
    let d = rand_bytes rng (tpdus * tb) in
    data.(c) <- d;
    let fr = Framer.create ~elem_size ~tpdu_elems ~conn_id:c () in
    for k = 0 to tpdus - 1 do
        let f = Bytes.sub d (k * tb) tb in
        let chunks = ok (Framer.push_frame ~last:(k = tpdus - 1) fr f) in
        let ed = ok (Edc.Encoder.seal chunks) in
        per_tpdu.(k).(c) <-
          (match frag with
          | None -> [| ok (Wire.encode_packet (chunks @ [ ed ])) |]
          | Some max_payload ->
              let pieces =
                List.concat_map
                  (fun ch -> ok (Fragment.split_to_payload ch ~max_payload))
                  chunks
              in
              Array.of_list
                (List.map (fun ch -> ok (Wire.encode_packet [ ch ])) (pieces @ [ ed ])))
    done
  done;
  let out = ref [] in
  for k = 0 to tpdus - 1 do
    for c = 1 to conns do
      Array.iter
        (fun p ->
          out := p :: !out;
          if Random.State.float rng 1.0 < dup then out := p :: !out)
        per_tpdu.(k).(c)
    done
  done;
  let packets = Array.of_list (List.rev !out) in
  block_shuffle rng window packets;
  let regions =
    Array.init (conns * tpdus) (fun i -> ((i / tpdus) + 1, i mod tpdus * tb, tb))
  in
  {
    config = { Ct.default_config with Ct.elem_size; tpdu_elems };
    quota_elems = tpdus * tpdu_elems;
    max_conns = conns;
    opens = Array.init conns (fun i -> open_packet (i + 1));
    packets;
    data;
    regions;
    whole = true;
  }

let fresh_bulk ~seed =
  bulk ~seed ~conns:16 ~tpdus:256 ~frag:None ~dup:0.0 ~window:64

(* The smallest chunk payload of the benchmark. *)
let frag_payload = 256

let frag_disorder ~seed =
  bulk ~seed ~conns:16 ~tpdus:128 ~frag:(Some frag_payload) ~dup:0.02 ~window:8192

(* ROB-FLOW's re-offer mix: Zipf(1.3) draws over a million C.IDs.  The
   8,192 hottest are open and each walks a ring of four 512-byte TPDUs
   (16 elements of 32 bytes), so every draw past the fourth re-offers a
   verified TPDU; colder IDs were never opened and offer their first
   TPDU to an endpoint that must drop it. *)
let id_space = 1_000_000
let hot = 8192
let ring = 4
let draws = 300_000

let reoffer_zipf ~seed =
  let rng = Random.State.make [| seed; 0x21FF |] in
  let elem_size = 32 and tpdu_elems = 16 in
  let tb = elem_size * tpdu_elems in
  let cum = Array.make id_space 0.0 in
  let total = ref 0.0 in
  for i = 0 to id_space - 1 do
    total := !total +. (1.0 /. Float.pow (float_of_int (i + 1)) 1.3);
    cum.(i) <- !total
  done;
  let draw () =
    let u = Random.State.float rng !total in
    let lo = ref 0 and hi = ref (id_space - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cum.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo + 1
  in
  let data = Array.make (hot + 1) Bytes.empty in
  let ring_of conn ~tpdus =
    let d = rand_bytes rng (tpdus * tb) in
    let fr = Framer.create ~elem_size ~tpdu_elems ~conn_id:conn () in
    let pkts =
      Array.init tpdus (fun k ->
          let chunks = ok (Framer.push_frame fr (Bytes.sub d (k * tb) tb)) in
          ok (Wire.encode_packet (chunks @ [ ok (Edc.Encoder.seal chunks) ])))
    in
    (d, pkts)
  in
  let rings = Hashtbl.create hot and cold = Hashtbl.create 4096 in
  let drawn = Array.make (hot + 1) 0 in
  let packets =
    Array.init draws (fun _ ->
        let conn = draw () in
        if conn <= hot then begin
          let pkts =
            match Hashtbl.find_opt rings conn with
            | Some p -> p
            | None ->
                let d, p = ring_of conn ~tpdus:ring in
                data.(conn) <- d;
                Hashtbl.add rings conn p;
                p
          in
          let k = drawn.(conn) in
          drawn.(conn) <- k + 1;
          pkts.(k mod ring)
        end
        else
          match Hashtbl.find_opt cold conn with
          | Some p -> p
          | None ->
              let _, p = ring_of conn ~tpdus:1 in
              Hashtbl.add cold conn p.(0);
              p.(0))
  in
  let regions =
    List.concat
      (List.init hot (fun i ->
           let c = i + 1 in
           List.init (min ring drawn.(c)) (fun k -> (c, k * tb, tb))))
  in
  {
    config = { Ct.default_config with Ct.elem_size; tpdu_elems };
    quota_elems = ring * tpdu_elems;
    max_conns = hot;
    opens = Array.init hot (fun i -> open_packet (i + 1));
    packets;
    data;
    regions = Array.of_list regions;
    whole = false;
  }

(* {1 The lossy transfer} *)

type transfer = {
  t_config : Ct.config;
  runs : (int * bytes) array;
      (** one cycle of transfers: (simulator seed, application data) *)
}

let transfer_bytes = 32 * 1024
let cycle = 256

(* 2% loss, 1% duplication, 3 skewed paths, one Combine gateway at MTU
   576; SACK and the adaptive RTO on. *)
let loss = 0.02
let duplicate = 0.01
let paths = 3
let skew = 0.5e-3
let gateway_mtu = 576

let transfer_lossy ~seed =
  let rng = Random.State.make [| seed; 0x7AA5 |] in
  {
    t_config = { Ct.default_config with Ct.sack = true; rto_adaptive = true };
    runs =
      Array.init cycle (fun _ ->
          let s = Random.State.bits rng in
          (s, rand_bytes rng transfer_bytes));
  }

let run_transfer t (sim_seed, data) =
  Ct.run ~seed:sim_seed ~config:t.t_config ~loss ~duplicate ~paths ~skew
    ~gateways:[ (Repack.Combine, gateway_mtu) ] ~data ()

(* {1 Reproducibility} *)

let digest_multi m =
  let parts = Array.map Digest.bytes (Array.append m.opens m.packets) in
  Digest.to_hex (Digest.string (String.concat "" (Array.to_list parts)))

let digest_transfer t =
  Digest.to_hex
    (Digest.string
       (String.concat ""
          (Array.to_list
             (Array.map
                (fun (s, d) -> string_of_int s ^ Digest.bytes d)
                t.runs))))
