(* Binary wire format: roundtrips, terminators, and malformed input. *)

open Labelling

let test_header_size () =
  Alcotest.(check int) "fixed header size" 46 Wire.header_size

let roundtrip chunk =
  let buf = Buffer.create 64 in
  Wire.encode_chunk buf chunk;
  let b = Buffer.to_bytes buf in
  match Wire.decode_chunk b 0 with
  | Error e -> Alcotest.fail e
  | Ok (c, off) ->
      Alcotest.(check int) "consumed everything" (Bytes.length b) off;
      Alcotest.check Util.chunk_testable "roundtrip" chunk c

let test_roundtrip_simple () =
  let chunk =
    Util.ok_or_fail
      (Chunk.data ~size:4
         ~c:(Ftuple.v ~st:true ~id:0xFFFF_FFFF ~sn:123456789 ())
         ~t:(Ftuple.v ~id:0 ~sn:0 ())
         ~x:(Ftuple.v ~st:true ~id:77 ~sn:1 ())
         (Util.deterministic_bytes 16))
  in
  roundtrip chunk

let test_roundtrip_control () =
  let c = Ftuple.v ~id:5 ~sn:9 () in
  roundtrip
    (Util.ok_or_fail (Chunk.control ~kind:Ctype.ed ~c ~t:c ~x:c (Bytes.create 8)))

let test_truncated () =
  (match Wire.decode_chunk (Bytes.create 10) 0 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated header must fail");
  let buf = Buffer.create 64 in
  let chunk =
    Util.ok_or_fail
      (Chunk.data ~size:4
         ~c:(Ftuple.v ~id:1 ~sn:0 ())
         ~t:(Ftuple.v ~id:1 ~sn:0 ())
         ~x:(Ftuple.v ~id:1 ~sn:0 ())
         (Bytes.create 8))
  in
  Wire.encode_chunk buf chunk;
  let b = Buffer.to_bytes buf in
  match Wire.decode_chunk (Bytes.sub b 0 (Bytes.length b - 2)) 0 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated payload must fail"

let test_packet_with_terminator () =
  let c = Ftuple.v ~id:1 ~sn:0 () in
  let chunk =
    Util.ok_or_fail (Chunk.data ~size:4 ~c ~t:c ~x:c (Bytes.create 8))
  in
  let b = Util.ok_or_fail (Wire.encode_packet ~capacity:200 [ chunk ]) in
  Alcotest.(check int) "padded to capacity" 200 (Bytes.length b);
  let chunks = Util.ok_or_fail (Wire.decode_packet b) in
  Alcotest.(check int) "one chunk back" 1 (List.length chunks);
  Alcotest.check Util.chunk_testable "same chunk" chunk (List.hd chunks)

let test_packet_small_slack () =
  (* slack smaller than a header: zero-fill, decoder treats as padding *)
  let c = Ftuple.v ~id:1 ~sn:0 () in
  let chunk =
    Util.ok_or_fail (Chunk.data ~size:4 ~c ~t:c ~x:c (Bytes.create 8))
  in
  let used = Wire.chunk_size chunk in
  let b = Util.ok_or_fail (Wire.encode_packet ~capacity:(used + 10) [ chunk ]) in
  let chunks = Util.ok_or_fail (Wire.decode_packet b) in
  Alcotest.(check int) "one chunk" 1 (List.length chunks)

let test_packet_overflow () =
  let c = Ftuple.v ~id:1 ~sn:0 () in
  let chunk =
    Util.ok_or_fail (Chunk.data ~size:4 ~c ~t:c ~x:c (Bytes.create 100))
  in
  match Wire.encode_packet ~capacity:100 [ chunk ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "overflow must be rejected"

let test_trailing_garbage () =
  let c = Ftuple.v ~id:1 ~sn:0 () in
  let chunk =
    Util.ok_or_fail (Chunk.data ~size:4 ~c ~t:c ~x:c (Bytes.create 8))
  in
  let buf = Buffer.create 64 in
  Wire.encode_chunk buf chunk;
  Buffer.add_string buf "\x01\x02\x03";
  match Wire.decode_packet (Buffer.to_bytes buf) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-zero residue must be rejected"

let test_invalid_st_byte () =
  let c = Ftuple.v ~id:1 ~sn:0 () in
  let chunk =
    Util.ok_or_fail (Chunk.data ~size:4 ~c ~t:c ~x:c (Bytes.create 8))
  in
  let buf = Buffer.create 64 in
  Wire.encode_chunk buf chunk;
  let b = Buffer.to_bytes buf in
  Bytes.set b 19 '\x07';
  match Wire.decode_chunk b 0 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "ST byte 7 must be rejected"

let suite =
  [
    Alcotest.test_case "header size" `Quick test_header_size;
    Alcotest.test_case "roundtrip data chunk" `Quick test_roundtrip_simple;
    Alcotest.test_case "roundtrip control chunk" `Quick test_roundtrip_control;
    Alcotest.test_case "truncated input" `Quick test_truncated;
    Alcotest.test_case "packet with terminator + padding" `Quick
      test_packet_with_terminator;
    Alcotest.test_case "packet with sub-header slack" `Quick
      test_packet_small_slack;
    Alcotest.test_case "packet overflow" `Quick test_packet_overflow;
    Alcotest.test_case "trailing garbage rejected" `Quick test_trailing_garbage;
    Alcotest.test_case "invalid ST byte rejected" `Quick test_invalid_st_byte;
    Util.qtest "chunk wire roundtrip" Util.gen_data_chunk (fun chunk ->
        let buf = Buffer.create 64 in
        Wire.encode_chunk buf chunk;
        match Wire.decode_chunk (Buffer.to_bytes buf) 0 with
        | Ok (c, _) -> Chunk.equal c chunk
        | Error _ -> false);
    Util.qtest ~count:60 "multi-chunk packet roundtrip"
      QCheck2.Gen.(list_size (int_range 1 6) Util.gen_data_chunk)
      (fun chunks ->
        let total = Wire.chunks_size chunks in
        let b =
          Util.ok_or_fail (Wire.encode_packet ~capacity:(total + 100) chunks)
        in
        match Wire.decode_packet b with
        | Ok cs -> List.for_all2 Chunk.equal chunks cs
        | Error _ -> false);
    Util.qtest "chunk_size consistent with encoding" Util.gen_data_chunk
      (fun chunk ->
        let buf = Buffer.create 64 in
        Wire.encode_chunk buf chunk;
        Buffer.length buf = Wire.chunk_size chunk);
  ]

let test_header_codec () =
  let h =
    Util.ok_or_fail
      (Header.v ~ctype:Ctype.ed ~size:1 ~len:12
         ~c:(Ftuple.v ~id:9 ~sn:77 ())
         ~t:(Ftuple.v ~st:true ~id:3 ~sn:0 ())
         ~x:Ftuple.zero)
  in
  let buf = Buffer.create 64 in
  Wire.encode_header buf h;
  Alcotest.(check int) "exactly header_size" Wire.header_size
    (Buffer.length buf);
  match Wire.decode_header (Buffer.to_bytes buf) 0 with
  | Ok h' -> Alcotest.(check bool) "roundtrip" true (Header.equal h h')
  | Error e -> Alcotest.fail e

(* --- the in-place encoder against the Buffer-based one ------------- *)

(* The packet encoder as it was before packets were written in place:
   chunks appended to a growing [Buffer], then copied out, and copied
   once more into a zero-filled image when a capacity is given. *)
module Old_encoder = struct
  let put_tuple buf (u : Ftuple.t) =
    Buffer.add_int32_be buf (Int32.of_int u.Ftuple.id);
    Buffer.add_int64_be buf (Int64.of_int u.Ftuple.sn);
    Buffer.add_uint8 buf (if u.Ftuple.st then 1 else 0)

  let encode_chunk buf c =
    let h = c.Chunk.header in
    Buffer.add_uint8 buf (Ctype.code h.Header.ctype);
    Buffer.add_uint16_be buf h.Header.size;
    Buffer.add_int32_be buf (Int32.of_int h.Header.len);
    put_tuple buf h.Header.c;
    put_tuple buf h.Header.t;
    put_tuple buf h.Header.x;
    Buffer.add_bytes buf c.Chunk.payload

  let encode_packet ?capacity chunks =
    let buf = Buffer.create 256 in
    List.iter (encode_chunk buf) chunks;
    let used = Buffer.length buf in
    match capacity with
    | None -> Ok (Buffer.to_bytes buf)
    | Some cap when used > cap ->
        Error
          (Printf.sprintf "Wire.encode_packet: %d bytes exceed capacity %d"
             used cap)
    | Some cap ->
        if cap - used >= Wire.header_size then encode_chunk buf Chunk.terminator;
        let b = Bytes.make cap '\000' in
        Buffer.blit buf 0 b 0 (Buffer.length buf);
        Ok b
end

let gen_edge_tuple =
  QCheck2.Gen.(
    let* id = oneof [ pure 0; pure 0xFFFF_FFFF; int_range 0 0xFFFF ] in
    let* sn = oneof [ pure 0; pure max_int; int_range 0 100_000 ] in
    let* st = bool in
    return (Ftuple.v ~st ~id ~sn ()))

(* Data chunks of random geometry and control chunks of every kind,
   with IDs and SNs at their extremes. *)
let gen_edge_chunk =
  QCheck2.Gen.(
    let* c = gen_edge_tuple and* t = gen_edge_tuple and* x = gen_edge_tuple in
    let* seed = int_range 0 255 in
    oneof
      [
        Util.gen_data_chunk;
        (let* size = int_range 1 9 and* len = int_range 1 12 in
         return
           (Chunk.make_exn
              (Util.ok_or_fail
                 (Header.v ~ctype:Ctype.data ~size ~len ~c ~t ~x))
              (Bytes.init (size * len) (fun i -> Char.chr ((seed + i) land 0xFF)))));
        (let* kind = int_range 1 300 and* n = int_range 1 40 in
         return
           (Util.ok_or_fail
              (Chunk.control ~kind:(Ctype.Control kind) ~c ~t ~x
                 (Bytes.make n (Char.chr seed)))));
      ])

(* A capacity around the chunks' size: too small (the [Error]), exact,
   too little slack for a terminator, and room for one. *)
let gen_encode_case =
  QCheck2.Gen.(
    let* chunks = list_size (int_range 0 5) gen_edge_chunk in
    let used = Wire.chunks_size chunks in
    let* capacity =
      oneof
        [
          pure None;
          map (fun d -> Some (used + d))
            (oneof
               [
                 int_range (-60) (-1);
                 pure 0;
                 int_range 1 (Wire.header_size - 1);
                 pure Wire.header_size;
                 int_range (Wire.header_size + 1) 300;
               ]);
        ]
    in
    return (chunks, capacity))

let prop_encoder_identity (chunks, capacity) =
  match
    (Wire.encode_packet ?capacity chunks, Old_encoder.encode_packet ?capacity chunks)
  with
  | Ok a, Ok b -> Bytes.equal a b
  | Error a, Error b -> String.equal a b
  | Ok _, Error _ | Error _, Ok _ -> false

let ids = [ 0; 1; 0xBEEF; 0xFFFF_FFFF ]

let control_image ~kind ~conn_id ~t_id payload =
  Util.ok_or_fail
    (Wire.encode_packet
       [
         Util.ok_or_fail
           (Chunk.control ~kind ~c:(Ftuple.v ~id:conn_id ~sn:0 ())
              ~t:(Ftuple.v ~id:t_id ~sn:0 ()) ~x:Ftuple.zero payload);
       ])

let test_ack_nack_images () =
  let module CT = Transport.Chunk_transport in
  List.iter
    (fun conn_id ->
      List.iter
        (fun t_id ->
          Alcotest.check Util.bytes_testable "ACK image"
            (control_image ~kind:Ctype.ack ~conn_id ~t_id (Bytes.make 4 '\000'))
            (CT.ack_packet ~conn_id ~t_id);
          List.iter
            (fun (n, need_ed) ->
              let spans = List.init n (fun i -> ((i * 37) + 0xFFFF_FF00, i + 1)) in
              let kept = Int.min n 64 in
              let payload = Bytes.make (3 + (8 * kept)) '\000' in
              Bytes.set_uint8 payload 0 (if need_ed then 1 else 0);
              Bytes.set_uint16_be payload 1 kept;
              List.iteri
                (fun i (sn, len) ->
                  if i < kept then begin
                    Bytes.set_int32_be payload (3 + (8 * i)) (Int32.of_int sn);
                    Bytes.set_int32_be payload (7 + (8 * i)) (Int32.of_int len)
                  end)
                spans;
              Alcotest.check Util.bytes_testable
                (Printf.sprintf "NACK image, %d spans" n)
                (control_image ~kind:Ctype.nack ~conn_id ~t_id payload)
                (CT.nack_packet ~conn_id ~t_id ~need_ed ~spans))
            [ (0, true); (1, false); (64, false); (65, true); (200, false) ])
        ids)
    ids;
  List.iter
    (fun bad ->
      Alcotest.check_raises "an ID past 32 bits"
        (Invalid_argument "Ftuple.v: id out of range") (fun () ->
          ignore (CT.ack_packet ~conn_id:bad ~t_id:0));
      Alcotest.check_raises "an ID past 32 bits"
        (Invalid_argument "Ftuple.v: id out of range") (fun () ->
          ignore (CT.nack_packet ~conn_id:0 ~t_id:bad ~need_ed:true ~spans:[])))
    [ -1; 0x1_0000_0000 ]

let suite =
  suite
  @ [
      Alcotest.test_case "header-only codec" `Quick test_header_codec;
      Util.qtest ~count:500 "encode_packet = Buffer-based encoder"
        gen_encode_case prop_encoder_identity;
      Alcotest.test_case "ACK and NACK images = encode_packet of the chunk"
        `Quick test_ack_nack_images;
    ]
