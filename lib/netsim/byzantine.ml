open Labelling

type stats = {
  injected : int;
  flaps : int;
  garbage_tpdus : int;
  bogus_acks : int;
  forged_sheds : int;
  replayed : int;
}

type t = {
  rng : Rng.t;
  conns : int;
  legit_conns : int list;
  elem_size : int;
  acks : bool;
  sheds : bool;
  replay : bool;
  garbage : bool;
  inject : bytes -> unit;  (* forward path, into the receiver's door *)
  inject_ack : bytes -> unit;  (* reverse path, into the sender demux *)
  epoch_seq : int array;  (* next epoch ordinal per own connection *)
  recent : Chunk.t option array;  (* ring of observed replayable signals *)
  mutable next : int;
  mutable seen : int;
  mutable garbage_seq : int;
  mutable injected : int;
  mutable flaps : int;
  mutable garbage_tpdus : int;
  mutable bogus_acks : int;
  mutable forged_sheds : int;
  mutable replayed : int;
}

(* Byzantine connection ids live in their own range, distinct from the
   flood adversary's 100_000 and far above any legitimate C.ID, so the
   blast-radius oracle (and a trace reader) can attribute every byte.
   The same goes for T.IDs: distinct from the flood's 500_000, the
   overlapper's 700_000 and the driver's clobber range 900_000. *)
let conn_base = 300_000
let tid_base = 800_000
let ack_tid_base = 820_000

(* Consecutive flap epochs announce strictly increasing C.SNs: the
   receiver's monotone open-watermark admits each re-establishment as a
   {e protocol-legal} new epoch — the violation is the churn itself,
   which is exactly what anomaly scoring has to notice. *)
let csn_stride = 1 lsl 20

let ring_capacity = 32

let send_via sink b chunk =
  match Wire.encode_packet [ chunk ] with
  | Error _ -> ()
  | Ok p ->
      b.injected <- b.injected + 1;
      sink p

let send b chunk = send_via b.inject b chunk

let pick_legit b =
  match b.legit_conns with
  | [] -> 1
  | l -> List.nth l (Rng.int b.rng (List.length l))

(* A label-plausible garbage TPDU that {e verifies}: random bytes
   sealed with their own self-consistent WSC-2 parity.  Nothing in the
   wire format is wrong — the lie is purely semantic (the stream the
   labels describe never existed), so only connection-level containment
   can bound what it costs the receiver. *)
let send_garbage b ~conn_id ~first_csn ~k =
  let t_id = tid_base + b.garbage_seq in
  b.garbage_seq <- b.garbage_seq + 1;
  let payload =
    Bytes.init b.elem_size (fun _ -> Char.chr (Rng.int b.rng 256))
  in
  match
    Chunk.data ~size:b.elem_size
      ~c:(Ftuple.v ~id:conn_id ~sn:(first_csn + k) ())
      ~t:(Ftuple.v ~st:true ~id:t_id ~sn:0 ())
      ~x:(Ftuple.v ~id:t_id ~sn:0 ())
      payload
  with
  | Error _ -> ()
  | Ok d -> (
      match Edc.Encoder.seal [ d ] with
      | Error _ -> ()
      | Ok ed ->
          b.garbage_tpdus <- b.garbage_tpdus + 1;
          send b d;
          send b ed)

(* One Open/garbage/Close cycle on an own connection.  Each cycle that
   verifies a TPDU parks one archived epoch in the receiver's history —
   unbounded state growth unless the quarantine cuts the peer off. *)
let flap b =
  let i = Rng.int b.rng b.conns in
  let conn_id = conn_base + i in
  let ep = b.epoch_seq.(i) in
  b.epoch_seq.(i) <- ep + 1;
  let first_csn = ep * csn_stride in
  b.flaps <- b.flaps + 1;
  send b (Connection.signal_chunk ~conn_id (Open { first_csn }));
  send_garbage b ~conn_id ~first_csn ~k:0;
  send b (Connection.signal_chunk ~conn_id Close)

(* ACK for a T.ID nobody ever sent, immediately contradicted by a NACK
   for the same T.ID.  Wire format mirrors [Chunk_transport]'s
   ack/nack builders; the sender must ignore both. *)
let fire_acks b =
  let conn_id =
    if Rng.bool b.rng 0.5 then pick_legit b
    else conn_base + Rng.int b.rng b.conns
  in
  let t_id = ack_tid_base + Rng.int b.rng 4096 in
  let c = Ftuple.v ~id:conn_id ~sn:0 () in
  let t = Ftuple.v ~id:t_id ~sn:0 () in
  let ack = Chunk.control ~kind:Ctype.ack ~c ~t ~x:Ftuple.zero (Bytes.make 4 '\000') in
  let nack_payload = Bytes.make 3 '\000' in
  Bytes.set_uint8 nack_payload 0 1;
  let nack = Chunk.control ~kind:Ctype.nack ~c ~t ~x:Ftuple.zero nack_payload in
  match (ack, nack) with
  | Ok a, Ok n ->
      b.bogus_acks <- b.bogus_acks + 1;
      send_via b.inject_ack b a;
      send_via b.inject_ack b n
  | _ -> ()

(* Forged shed naming an honest (hence Critical or Normal, never
   Sheddable) TPDU: the receiver's classifier must refuse to honour
   it — shedding is a contract, not a request. *)
let fire_shed b =
  let conn_id = pick_legit b in
  let t_id = Rng.int b.rng 8 in
  b.forged_sheds <- b.forged_sheds + 1;
  send b
    (Connection.signal_chunk ~conn_id
       (Shed_tpdu { t_id; first_elem = 0; elems = 1 + Rng.int b.rng 8 }))

(* Verbatim replay of an observed signal from an earlier (by now
   usually archived) epoch: stale Opens must bounce off the open
   watermark.  Close is excluded — an unauthenticated replayed Close
   against a re-opened C.ID is indistinguishable from a fresh one (the
   wire Close carries no epoch label), so replaying it would attack a
   guard that cannot exist; DESIGN records the limitation. *)
let observe b p =
  match Wire.decode_packet p with
  | Error _ -> ()
  | Ok chunks ->
      List.iter
        (fun c ->
          match Connection.parse_signal c with
          | Ok (_, Close) | Error _ -> ()
          | Ok (_, (Open _ | Resync _ | Abort_tpdu _ | Shed_tpdu _)) ->
              b.recent.(b.next) <- Some c;
              b.next <- (b.next + 1) mod Array.length b.recent;
              b.seen <- b.seen + 1)
        chunks

let fire_replay b =
  let filled = min b.seen (Array.length b.recent) in
  if filled > 0 then
    match b.recent.(Rng.int b.rng filled) with
    | None -> ()
    | Some c ->
        b.replayed <- b.replayed + 1;
        send b c

let fire b =
  flap b;
  let extras =
    (if b.acks then [ fire_acks ] else [])
    @ (if b.sheds then [ fire_shed ] else [])
    @ (if b.replay then [ fire_replay ] else [])
    @
    if b.garbage then
      [
        (fun b ->
          (* extra garbage against the most recent own epoch — by now
             closed by the flap, so these are late-traffic anomalies *)
          let i = Rng.int b.rng b.conns in
          let ep = max 0 (b.epoch_seq.(i) - 1) in
          send_garbage b ~conn_id:(conn_base + i) ~first_csn:(ep * csn_stride)
            ~k:(1 + Rng.int b.rng 4));
      ]
    else []
  in
  match extras with
  | [] -> ()
  | _ -> (List.nth extras (Rng.int b.rng (List.length extras))) b

let create engine ~seed ~rate ~stop ~conns ~legit_conns ~elem_size ~acks
    ~sheds ~replay ~garbage ~inject ~inject_ack () =
  if rate <= 0.0 then invalid_arg "Byzantine.create: rate must be positive";
  if conns < 1 then invalid_arg "Byzantine.create: conns must be >= 1";
  let b =
    {
      rng = Rng.create ~seed;
      conns;
      legit_conns;
      elem_size;
      acks;
      sheds;
      replay;
      garbage;
      inject;
      inject_ack;
      epoch_seq = Array.make conns 0;
      recent = Array.make ring_capacity None;
      next = 0;
      seen = 0;
      garbage_seq = 0;
      injected = 0;
      flaps = 0;
      garbage_tpdus = 0;
      bogus_acks = 0;
      forged_sheds = 0;
      replayed = 0;
    }
  in
  Engine.every engine ~rng:b.rng ~rate ~stop (fun () -> fire b);
  b

let conn_ids b = List.init b.conns (fun i -> conn_base + i)

let stats b =
  {
    injected = b.injected;
    flaps = b.flaps;
    garbage_tpdus = b.garbage_tpdus;
    bogus_acks = b.bogus_acks;
    forged_sheds = b.forged_sheds;
    replayed = b.replayed;
  }
