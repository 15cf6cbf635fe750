(* Video — the paper's second disorder-tolerant application (§1):
   "Although the video frames themselves must be presented in the
   correct order, data of an individual frame can be placed in the
   frame buffer as they arrive without reordering."

   Part 1: each video frame is one external PDU (an Application Layer
   Frame).  The receiver keeps a small ring of frame buffers addressed
   by X.SN and renders a frame the instant its last element has been
   placed — virtual reassembly at the X level, no physical reassembly.

   Part 2: layered video under congestion (partial reliability).  The
   stream is split into a Critical base layer and two Sheddable
   enhancement layers, interleaved by the significance-weighted
   scheduler and shipped through a congested hop that may drop only
   what the endpoints declared expendable.  The sender sheds
   enhancement TPDUs that keep timing out; the base layer arrives
   byte-exact, always.

   Run with: dune exec examples/video_stream.exe *)

open Labelling

let frame_w = 80
let frame_h = 24
let frame_bytes = frame_w * frame_h (* 1920 bytes, 480 elements *)
let frames = 48
let fps = 30.0

type frame_slot = {
  placement : Placement.t;
  tracker : Vreassembly.t;
  mutable first_arrival : float;
  mutable rendered_at : float option;
}

let () =
  let engine = Netsim.Engine.create ~seed:99 () in
  (* one frame of synthetic video per external PDU *)
  let framer = Framer.create ~elem_size:4 ~tpdu_elems:512 ~conn_id:8 () in
  let mk_frame k =
    Bytes.init frame_bytes (fun i -> Char.chr ((k * 37 + i) land 0xFF))
  in
  let all_chunks =
    (* push frames strictly in order: the framer is stateful *)
    let acc = ref [] in
    for k = 0 to frames - 1 do
      match Framer.push_frame ~last:(k = frames - 1) framer (mk_frame k) with
      | Ok cs -> acc := cs :: !acc
      | Error e -> failwith e
    done;
    List.concat (List.rev !acc)
  in
  let sealed =
    match Edc.Encoder.seal_tpdus all_chunks with
    | Ok cs -> cs
    | Error e -> failwith e
  in
  let packets =
    match Packet.pack ~mtu:1400 sealed with
    | Ok ps -> ps
    | Error e -> failwith e
  in

  (* receiver state: a slot per frame (a real player would use a ring) *)
  let slots =
    Array.init frames (fun _ ->
        {
          placement =
            Placement.create ~level:Placement.External ~base_sn:0
              ~capacity_elems:(frame_bytes / 4) ~elem_size:4;
          tracker = Vreassembly.create ();
          first_arrival = -1.0;
          rendered_at = None;
        })
  in
  let rendered = ref 0 in
  let late = ref 0 in
  let render_deadline k = 0.05 +. (float_of_int k /. fps) in
  let on_chunk chunk =
    if Chunk.is_data chunk then begin
      let x = chunk.Chunk.header.Header.x in
      if x.Ftuple.id < frames then begin
        let slot = slots.(x.Ftuple.id) in
        let now = Netsim.Engine.now engine in
        if slot.first_arrival < 0.0 then slot.first_arrival <- now;
        (match Placement.place slot.placement chunk with
        | Ok () -> ()
        | Error e -> failwith e);
        (match
           Vreassembly.insert slot.tracker ~sn:x.Ftuple.sn
             ~len:chunk.Chunk.header.Header.len ~st:x.Ftuple.st
         with
        | Vreassembly.Fresh | Vreassembly.Duplicate -> ()
        | Vreassembly.Overlap | Vreassembly.Inconsistent -> ());
        if Vreassembly.complete slot.tracker && slot.rendered_at = None
        then begin
          slot.rendered_at <- Some now;
          incr rendered;
          if now > render_deadline x.Ftuple.id then incr late
        end
      end
    end
  in

  (* ship everything over a jittery multipath network *)
  let mp =
    Netsim.Multipath.create engine ~paths:4 ~rate_bps:20e6 ~delay:5e-3
      ~skew:1.5e-3 ~loss:0.0
      ~deliver:(fun b ->
        match Wire.decode_packet b with
        | Ok chunks -> List.iter on_chunk chunks
        | Error e -> failwith e)
      ()
  in
  List.iteri
    (fun i p ->
      let image = Packet.encode p in
      Netsim.Engine.schedule engine
        ~delay:(float_of_int i /. fps /. 4.0)
        (fun () -> ignore (Netsim.Multipath.send mp image)))
    packets;
  Netsim.Engine.run engine;

  (* verify every frame landed intact *)
  Array.iteri
    (fun k slot ->
      assert (Placement.is_full slot.placement);
      assert (Bytes.equal (Placement.contents slot.placement) (mk_frame k)))
    slots;
  let latencies =
    Array.to_list slots
    |> List.filter_map (fun s ->
           Option.map (fun r -> r -. s.first_arrival) s.rendered_at)
  in
  let mean =
    List.fold_left ( +. ) 0.0 latencies /. float_of_int (List.length latencies)
  in
  Printf.printf "video: %d frames of %d bytes at %.0f fps over 4 skewed paths\n"
    frames frame_bytes fps;
  Printf.printf "  frames rendered intact:      %d/%d\n" !rendered frames;
  Printf.printf "  late frames:                 %d\n" !late;
  Printf.printf "  mean first-byte->render:     %.3f ms\n" (mean *. 1e3);
  Printf.printf
    "  every element was placed into its frame buffer on arrival;\n\
    \  frames rendered as soon as virtually complete (X-level ALF).\n";

  (* ------------------------------------------------------------------
     Part 2: layered video over a congested hop.  Base layer Critical,
     enhancement layers Sheddable — the interleave scheduler puts base
     TPDUs on the wire 4:1 ahead of enhancement TPDUs, the congested
     element drops only sheddable traffic, and the sender's shed policy
     gives up on enhancement TPDUs instead of retransmitting them into
     the congestion. *)
  let module CT = Transport.Chunk_transport in
  let elem_size = 4 and tpdu_elems = 64 in
  let mk_layer tag len =
    Bytes.init len (fun i -> Char.chr ((Char.code tag + (i * 13)) land 0xFF))
  in
  let streams =
    [
      {
        Transport.Interleave.is_name = "base";
        is_cls = Significance.Critical;
        is_data = mk_layer 'B' 16384;
      };
      {
        Transport.Interleave.is_name = "enh1";
        is_cls = Significance.Sheddable 1;
        is_data = mk_layer 'E' 32768;
      };
      {
        Transport.Interleave.is_name = "enh2";
        is_cls = Significance.Sheddable 2;
        is_data = mk_layer 'F' 65536;
      };
    ]
  in
  let plan =
    match
      Transport.Interleave.plan ~elem_size ~tpdu_elems ~conn_id:9 streams
    with
    | Ok p -> p
    | Error e -> failwith e
  in
  let config =
    {
      CT.default_config with
      conn_id = 9;
      elem_size;
      tpdu_elems;
      window = 8;
      rto = 0.05;
      classify = plan.Transport.Interleave.classify;
      shed_txs = 2;
    }
  in
  let engine = Netsim.Engine.create ~seed:42 () in
  let receiver = ref None in
  let sender = ref None in
  let congested =
    Netsim.Dropper.create ~mode:Netsim.Dropper.By_class
      ~sheddable:(fun t_id ->
        Significance.sheddable (plan.Transport.Interleave.classify t_id))
      ~rng:(Netsim.Rng.create ~seed:43)
      ~loss:0.3
      ~forward:(fun b ->
        match !receiver with
        | Some r -> CT.Receiver.ingest r b
        | None -> ())
      ()
  in
  let forward =
    Netsim.Multipath.create engine ~paths:4 ~rate_bps:155e6 ~delay:1e-3
      ~skew:0.25e-3 ~mtu:config.CT.mtu
      ~deliver:(fun b -> Netsim.Dropper.on_packet congested b)
      ()
  in
  let reverse =
    Netsim.Link.create engine ~name:"ack" ~rate_bps:1e9 ~delay:1e-3
      ~mtu:config.CT.mtu
      ~deliver:(fun b ->
        match !sender with Some s -> CT.Sender.on_packet s b | None -> ())
      ()
  in
  let rx =
    CT.Receiver.create engine config
      ~send_ack:(fun b -> ignore (Netsim.Link.send reverse b))
      ~capacity:(`Exact plan.Transport.Interleave.total_elems)
      ()
  in
  receiver := Some rx;
  let tx =
    CT.Sender.of_tpdus engine config
      ~send:(fun b -> ignore (Netsim.Multipath.send forward b))
      plan.Transport.Interleave.tpdus
  in
  sender := Some tx;
  CT.Sender.start tx;
  Netsim.Engine.run engine;

  let delivered = CT.Receiver.contents rx in
  let expected =
    Transport.Interleave.expected ~elem_size ~tpdu_elems streams
  in
  let spans = CT.Receiver.shed_spans rx in
  assert (not (CT.Sender.gave_up tx));
  assert (CT.Receiver.complete rx);
  assert (CT.equal_outside_sheds ~elem_size ~spans ~expected ~delivered);
  Printf.printf
    "\nlayered video: base 16 KiB (critical) + enhancement 96 KiB \
     (sheddable)\n\
    \  congested hop dropping 30%% of sheddable packets; shed after 2 \
     transmissions\n";
  Printf.printf "  scheduler order (first 12):  %s\n"
    (String.concat " "
       (List.filteri
          (fun i _ -> i < 12)
          (List.map
             (fun (t_id, _) ->
               Significance.to_string (plan.Transport.Interleave.classify t_id))
             plan.Transport.Interleave.tpdus)));
  List.iter
    (fun (l : Transport.Interleave.layer) ->
      let lo = l.l_first_elem and hi = l.l_first_elem + l.l_elems in
      let shed =
        List.fold_left
          (fun acc (first, n) ->
            acc + max 0 (min hi (first + n) - max lo first))
          0 spans
      in
      (* no shed span may touch a Critical/Normal layer *)
      if not (Significance.sheddable l.l_cls) then assert (shed = 0);
      Printf.printf "  layer %-5s %-8s  %5d/%d elements delivered\n" l.l_name
        (Significance.to_string l.l_cls)
        (l.l_elems - shed) l.l_elems)
    plan.Transport.Interleave.layout;
  Printf.printf
    "  sheds: %d signalled, %d honoured (%d elements given up)\n"
    (CT.Sender.sheds_sent tx)
    (CT.Receiver.sheds_received rx)
    (CT.Receiver.shed_elems rx);
  Printf.printf
    "  the base layer is byte-exact; only declared-sheddable spans are \
     missing.\n"
