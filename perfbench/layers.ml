(* Per-layer costs, measured from outside: each layer's public function
   is replayed alone on the inputs captured from the workload, one span
   per replay pass.  A pass's state is built before its clock starts. *)

open Labelling
module Ct = Transport.Chunk_transport

(* The sending side of the transfer, framed again from its data. *)
type sender = {
  conn_id : int;
  frames : bytes array;  (** the last one ends the stream *)
  tpdu_elems : int;
  tpdus : Chunk.t list array;
  split_payload : int;
}

(* What the receive path saw, decoded once so that the replays time only
   the layer under test. *)
type capture = {
  packets : bytes array;
  opens : bytes array;
  chunks : Chunk.t array;  (** data and ED chunks, arrival order *)
  conn : int array;  (** dense connection index of each chunk *)
  conns : int;
  live : int array;
      (** indices into [chunks] of those that reach the verifier: chunks
          of open connections, less those of a TPDU already verified,
          which are re-acknowledged instead *)
  data : int array;  (** the data chunks among [live] *)
  data_per_tpdu : float;  (** distinct data chunks per verified TPDU *)
  gov : (Transport.Governor.key * int) array;
      (** the governor's work: charge a key with bytes, or remove it (-1) *)
  elem_size : int;
  capacity_elems : int;  (** placement buffer per connection *)
  acks : (int * int) array;  (** distinct (C.ID, T.ID) of open connections *)
  sender : sender option;  (** only the transfer runs a sender *)
}

let verifiers n = Array.init n (fun _ -> Edc.Verifier.create ~now:(fun () -> 0.0) ())

let capture ~packets ~opens ~elem_size ~capacity_elems ~sender =
  let opened = Hashtbl.create 64 in
  Array.iter (fun p -> Hashtbl.replace opened (Wire.Scan.c_id p 0) ()) opens;
  let ids = Hashtbl.create 64 in
  let chunks = ref [] and conn = ref [] and acks = Hashtbl.create 1024 in
  Array.iter
    (fun p ->
      List.iter
        (fun (c : Chunk.t) ->
          let h = c.Chunk.header in
          let cid = h.Header.c.Ftuple.id in
          let idx =
            match Hashtbl.find_opt ids cid with
            | Some i -> i
            | None ->
                let i = Hashtbl.length ids in
                Hashtbl.add ids cid i;
                i
          in
          chunks := c :: !chunks;
          conn := idx :: !conn;
          if Hashtbl.mem opened cid then
            Hashtbl.replace acks (cid, h.Header.t.Ftuple.id) ())
        (Gen.ok (Wire.decode_packet p)))
    packets;
  let chunks = Array.of_list (List.rev !chunks) in
  let conn = Array.of_list (List.rev !conn) in
  let conns = max 1 (Hashtbl.length ids) in
  let is_open (c : Chunk.t) = Hashtbl.mem opened c.Chunk.header.Header.c.Ftuple.id in
  (* One verifier pass over the open connections' chunks finds those that
     reach the verifier and the governor's charges: each one's footprint,
     and a removal at each verdict.  The endpoint drops the others as
     unknown. *)
  let vs = verifiers conns in
  let verified = Hashtbl.create 1024 in
  let live = ref [] and gov = ref [] in
  Array.iteri
    (fun i (c : Chunk.t) ->
      let k = conn.(i) and tid = c.Chunk.header.Header.t.Ftuple.id in
      if is_open c && not (Hashtbl.mem verified (k, tid)) then begin
        live := i :: !live;
        let key = { Transport.Governor.conn = k; tpdu = tid } in
        let evs = Edc.Verifier.on_chunk vs.(k) c in
        if List.exists (function Edc.Verifier.Tpdu_verified _ -> true | _ -> false) evs
        then begin
          Hashtbl.replace verified (k, tid) ();
          gov := (key, -1) :: !gov
        end
        else gov := (key, Edc.Verifier.footprint_bytes vs.(k) ~t_id:tid) :: !gov
      end)
    chunks;
  let live = List.rev !live in
  let data = List.filter (fun i -> Chunk.is_data chunks.(i)) live in
  let distinct = Hashtbl.create 1024 in
  List.iter
    (fun i ->
      let h = chunks.(i).Chunk.header in
      let tid = h.Header.t.Ftuple.id in
      if Hashtbl.mem verified (conn.(i), tid) then
        Hashtbl.replace distinct (conn.(i), tid, h.Header.c.Ftuple.sn) ())
    data;
  {
    packets;
    opens;
    chunks;
    conn;
    conns;
    live = Array.of_list live;
    data = Array.of_list data;
    data_per_tpdu =
      float_of_int (Hashtbl.length distinct)
      /. float_of_int (max 1 (Hashtbl.length verified));
    gov = Array.of_list (List.rev !gov);
    elem_size;
    capacity_elems;
    acks = Array.of_seq (Seq.map fst (Hashtbl.to_seq acks));
    sender;
  }

let max_replay_packets = 16384

let of_multi (g : Gen.multi) =
  let n = min max_replay_packets (Array.length g.packets) in
  capture ~packets:(Array.sub g.packets 0 n) ~opens:g.opens
    ~elem_size:g.config.Ct.elem_size ~capacity_elems:g.quota_elems ~sender:None

(* The transfer's receive side: the first transfers' data framed as one
   connection, sealed, and re-enveloped by a Combine gateway at the
   workload's MTU, as the receiver gets it when nothing is lost. *)
let replay_transfers = 16

let of_transfer (t : Gen.transfer) =
  let cfg = t.t_config in
  let runs = Array.sub t.runs 0 (min replay_transfers (Array.length t.runs)) in
  let data = Bytes.concat Bytes.empty (Array.to_list (Array.map snd runs)) in
  let fb = cfg.Ct.frame_bytes in
  let nf = (Bytes.length data + fb - 1) / fb in
  let frames =
    Array.init nf (fun i ->
        Framer.pad_frame ~elem_size:cfg.elem_size
          (Bytes.sub data (i * fb) (min fb (Bytes.length data - (i * fb)))))
  in
  let fr =
    Framer.create ~elem_size:cfg.elem_size ~tpdu_elems:cfg.tpdu_elems
      ~conn_id:cfg.conn_id ()
  in
  let chunks =
    List.concat
      (Array.to_list
         (Array.mapi
            (fun i f -> Gen.ok (Framer.push_frame ~last:(i = nf - 1) fr f))
            frames))
  in
  let by_tid = Hashtbl.create 64 in
  List.iter
    (fun (c : Chunk.t) ->
      let tid = c.Chunk.header.Header.t.Ftuple.id in
      Hashtbl.replace by_tid tid
        (c :: Option.value (Hashtbl.find_opt by_tid tid) ~default:[]))
    chunks;
  let tpdus =
    Hashtbl.fold (fun tid cs acc -> (tid, List.rev cs) :: acc) by_tid []
    |> List.sort compare |> List.map snd |> Array.of_list
  in
  let sealed = Gen.ok (Edc.Encoder.seal_tpdus chunks) in
  let packets =
    Gen.ok (Repack.repack ~policy:Repack.Combine ~mtu:Gen.gateway_mtu sealed)
    |> List.map Packet.encode |> Array.of_list
  in
  capture ~packets
    ~opens:[| Gen.open_packet cfg.conn_id |]
    ~elem_size:cfg.elem_size
    ~capacity_elems:(Bytes.length data / cfg.elem_size + cfg.tpdu_elems)
    ~sender:
      (Some
         {
           conn_id = cfg.conn_id;
           frames;
           tpdu_elems = cfg.tpdu_elems;
           tpdus;
           split_payload = Gen.gateway_mtu - Wire.header_size;
         })

type cost = { ns : float;  (** per call *) words : float;  (** per call *) calls : int }

let passes = 5

(* The cost of a layer the workload does not run. *)
let absent = { ns = 0.0; words = 0.0; calls = 0 }

(* A warm-up pass, then [passes] measured ones; medians per call. *)
let replay ~parent ~name ~calls prepare pass =
  ignore (pass (prepare ()));
  let ns = Array.make passes 0.0 and words = Array.make passes 0.0 in
  for i = 0 to passes - 1 do
    let st = prepare () in
    let id = Span.fresh () in
    let w0 = Gc.minor_words () in
    let t0 = Clock.now_ns () in
    pass st;
    let t1 = Clock.now_ns () in
    words.(i) <- Gc.minor_words () -. w0;
    Span.record ~id ~parent ~name ~t0 ~t1 ~count:calls;
    ns.(i) <- t1 -. t0
  done;
  let c = float_of_int (max 1 calls) in
  { ns = Clock.median ns /. c; words = Clock.median words /. c; calls }

type costs = {
  scan : cost;
  decode : cost;
  scan_chunk : cost;
  connection : cost;
  find : cost;
  verifier : cost;
  vreassembly : cost;
  wsc2_ns_per_byte : float;
  place : cost;
  ack : cost;
  touch : cost;
  push_frame : cost;
  seal : cost;
  encode : cost;
  split : cost;
}

(* The sender's functions, replayed on the transfer's frames and
   packets. *)
let sender_costs ~parent ~elem_size ~packets sd =
  let r ~name ~calls prepare pass = replay ~parent ~name ~calls prepare pass in
  let last = Array.length sd.frames - 1 in
  let push_frame =
    r ~name:"framer.push_frame" ~calls:(last + 1)
      (fun () ->
        Framer.create ~elem_size ~tpdu_elems:sd.tpdu_elems ~conn_id:sd.conn_id ())
      (fun fr ->
        Array.iteri
          (fun i f -> ignore (Framer.push_frame ~last:(i = last) fr f))
          sd.frames)
  in
  let seal =
    r ~name:"edc.encoder.seal" ~calls:(Array.length sd.tpdus) ignore (fun () ->
        Array.iter (fun cs -> ignore (Edc.Encoder.seal cs)) sd.tpdus)
  in
  let np = Array.length packets in
  let lists = Array.map (fun p -> Gen.ok (Wire.decode_packet p)) packets in
  let encode =
    r ~name:"wire.encode_packet" ~calls:np ignore (fun () ->
        Array.iter (fun cs -> ignore (Wire.encode_packet cs)) lists)
  in
  let pieces =
    Array.fold_left
      (fun a cs ->
        List.fold_left
          (fun a c ->
            let pieces = Fragment.split_to_payload c ~max_payload:sd.split_payload in
            a + List.length (Gen.ok pieces))
          a cs)
      0 sd.tpdus
  in
  let split =
    r ~name:"fragment.split_to_payload" ~calls:pieces ignore (fun () ->
        Array.iter
          (List.iter (fun c ->
               ignore (Fragment.split_to_payload c ~max_payload:sd.split_payload)))
          sd.tpdus)
  in
  (push_frame, seal, encode, split)

let measure ~parent cap =
  let np = Array.length cap.packets and nc = Array.length cap.chunks in
  let nd = Array.length cap.data in
  let r ~name ~calls prepare pass = replay ~parent ~name ~calls prepare pass in
  let scan =
    r ~name:"wire.scan" ~calls:np Wire.Scan.create (fun s ->
        Array.iter (fun p -> ignore (Wire.Scan.packet s p)) cap.packets)
  in
  let decode =
    r ~name:"wire.decode" ~calls:np ignore (fun () ->
        Array.iter (fun p -> ignore (Wire.decode_packet p)) cap.packets)
  in
  let offsets =
    let s = Wire.Scan.create () in
    Array.to_list cap.packets
    |> List.concat_map (fun p ->
           ignore (Wire.Scan.packet s p);
           List.init (Wire.Scan.count s) (fun i -> (p, Wire.Scan.offset s i)))
    |> Array.of_list
  in
  let scan_chunk =
    r ~name:"wire.scan.chunk" ~calls:(Array.length offsets) ignore (fun () ->
        Array.iter (fun (p, off) -> ignore (Wire.Scan.chunk p off)) offsets)
  in
  let table () =
    let t = Connection.create () in
    Array.iter
      (fun p ->
        List.iter
          (fun c -> ignore (Connection.on_chunk t c))
          (Gen.ok (Wire.decode_packet p)))
      cap.opens;
    t
  in
  let connection =
    r ~name:"connection.on_chunk" ~calls:nc table (fun t ->
        Array.iter (fun c -> ignore (Connection.on_chunk t c)) cap.chunks)
  in
  (* The connection cache holds the open connections; every chunk probes. *)
  let cids = Array.map (fun c -> c.Chunk.header.Header.c.Ftuple.id) cap.chunks in
  let find =
    r ~name:"flowcache.find" ~calls:nc
      (fun () ->
        let fc =
          Transport.Flowcache.create ~name:"perfbench"
            ~slots:(2 * Array.length cap.opens)
            ()
        in
        Array.iter
          (fun p -> Transport.Flowcache.insert fc ~k1:(Wire.Scan.c_id p 0) ~k2:0 ())
          cap.opens;
        fc)
      (fun fc ->
        Array.iter (fun c -> ignore (Transport.Flowcache.find fc ~k1:c ~k2:0)) cids)
  in
  let verifier =
    r ~name:"edc.verifier.on_chunk" ~calls:(Array.length cap.live)
      (fun () -> verifiers cap.conns)
      (fun vs ->
        Array.iter
          (fun i -> ignore (Edc.Verifier.on_chunk vs.(cap.conn.(i)) cap.chunks.(i)))
          cap.live)
  in
  let vreassembly =
    r ~name:"vreassembly.insert" ~calls:nd
      (fun () -> Array.init cap.conns (fun _ -> Vreassembly.Table.create ()))
      (fun ts ->
        Array.iter
          (fun i ->
            ignore (Vreassembly.Table.insert_chunk ts.(cap.conn.(i)) cap.chunks.(i)))
          cap.data)
  in
  let payload =
    Array.fold_left (fun a i -> a + Chunk.payload_bytes cap.chunks.(i)) 0 cap.data
  in
  let wsc2 =
    r ~name:"wsc2.add_bytes" ~calls:nd Wsc2.create (fun acc ->
        Array.iter
          (fun i ->
            let c = cap.chunks.(i) in
            let h = c.Chunk.header in
            Wsc2.add_bytes acc
              ~pos:(h.Header.t.Ftuple.sn * h.Header.size / 4)
              c.Chunk.payload 0 (Bytes.length c.Chunk.payload))
          cap.data)
  in
  let place =
    r ~name:"placement.place_checked" ~calls:nd
      (fun () ->
        Array.init cap.conns (fun _ ->
            Placement.create ~level:Placement.Conn ~base_sn:0
              ~capacity_elems:cap.capacity_elems ~elem_size:cap.elem_size))
      (fun ps ->
        Array.iter
          (fun i -> ignore (Placement.place_checked ps.(cap.conn.(i)) cap.chunks.(i)))
          cap.data)
  in
  let ack =
    r ~name:"chunk_transport.ack_packet" ~calls:(Array.length cap.acks) ignore (fun () ->
        Array.iter
          (fun (conn_id, t_id) -> ignore (Ct.ack_packet ~conn_id ~t_id))
          cap.acks)
  in
  let touches = Array.fold_left (fun a (_, b) -> if b >= 0 then a + 1 else a) 0 cap.gov in
  let touch =
    r ~name:"governor.touch" ~calls:touches
      (fun () -> Transport.Governor.create ~budget_bytes:0 ~ttl:60.0 ())
      (fun gv ->
        Array.iter
          (fun (key, bytes) ->
            if bytes >= 0 then Transport.Governor.touch gv ~key ~bytes ~now:0.0
            else Transport.Governor.remove gv ~key)
          cap.gov)
  in
  let push_frame, seal, encode, split =
    match cap.sender with
    | None -> (absent, absent, absent, absent)
    | Some sd -> sender_costs ~parent ~elem_size:cap.elem_size ~packets:cap.packets sd
  in
  {
    scan;
    decode;
    scan_chunk;
    connection;
    find;
    verifier;
    vreassembly;
    wsc2_ns_per_byte = wsc2.ns *. float_of_int nd /. float_of_int (max 1 payload);
    place;
    ack;
    touch;
    push_frame;
    seal;
    encode;
    split;
  }
