type signal =
  | Open of { first_csn : int }
  | Close
  | Resync of { c_sn : int }
  | Abort_tpdu of { t_id : int }
  | Shed_tpdu of { t_id : int; first_elem : int; elems : int }

let op_open = 1
let op_close = 2
let op_resync = 3
let op_abort = 4
let op_shed = 5

(* Ops 1-4 carry one i64 argument; op_shed carries three (the abandoned
   TPDU plus the element span the receiver must account as shed).
   Every payload ends with an 8-byte WSC-2 parity over the opcode and
   arguments.  Data chunks can travel unchecked because damage is
   caught end-to-end by the TPDU-level EDC before anything is believed;
   a signal is an instruction to the connection table with no later
   check to fail — an Open whose first C.SN was damaged in flight would
   establish an epoch under a forged identity — so a signal must prove
   its own integrity or be dropped like any unparseable chunk (the
   sender's retransmission machinery re-announces it for free). *)
let parity_len = 8
let body_len = function Shed_tpdu _ -> 25 | _ -> 9
let payload_len sg = body_len sg + parity_len

let signal_chunk ~conn_id signal =
  let n = body_len signal in
  let payload = Bytes.make (payload_len signal) '\000' in
  (match signal with
  | Open { first_csn } ->
      Bytes.set_uint8 payload 0 op_open;
      Bytes.set_int64_be payload 1 (Int64.of_int first_csn)
  | Close -> Bytes.set_uint8 payload 0 op_close
  | Resync { c_sn } ->
      Bytes.set_uint8 payload 0 op_resync;
      Bytes.set_int64_be payload 1 (Int64.of_int c_sn)
  | Abort_tpdu { t_id } ->
      Bytes.set_uint8 payload 0 op_abort;
      Bytes.set_int64_be payload 1 (Int64.of_int t_id)
  | Shed_tpdu { t_id; first_elem; elems } ->
      Bytes.set_uint8 payload 0 op_shed;
      Bytes.set_int64_be payload 1 (Int64.of_int t_id);
      Bytes.set_int64_be payload 9 (Int64.of_int first_elem);
      Bytes.set_int64_be payload 17 (Int64.of_int elems));
  Wsc2.parity_blit (Wsc2.encode_bytes ~pos:0 (Bytes.sub payload 0 n)) payload n;
  let c = Ftuple.v ~id:conn_id ~sn:0 () in
  match
    Chunk.control ~kind:Ctype.signal ~c ~t:Ftuple.zero ~x:Ftuple.zero payload
  with
  | Ok chunk -> chunk
  | Error e -> invalid_arg e

let parse_signal chunk =
  let h = chunk.Chunk.header in
  let len = Bytes.length chunk.Chunk.payload in
  if not (Ctype.equal h.Header.ctype Ctype.signal) then
    Error "Connection.parse_signal: not a signalling chunk"
  else if len <> 9 + parity_len && len <> 25 + parity_len then
    Error "Connection.parse_signal: bad payload size"
  else if
    not
      (Wsc2.parity_equal
         (Wsc2.parity_of_bytes chunk.Chunk.payload (len - parity_len))
         (Wsc2.encode_bytes ~pos:0
            (Bytes.sub chunk.Chunk.payload 0 (len - parity_len))))
  then Error "Connection.parse_signal: parity mismatch"
  else begin
    let len = len - parity_len in
    let conn_id = h.Header.c.Ftuple.id in
    let arg = Int64.to_int (Bytes.get_int64_be chunk.Chunk.payload 1) in
    match (Bytes.get_uint8 chunk.Chunk.payload 0, len) with
    | 1, 9 when arg >= 0 -> Ok (conn_id, Open { first_csn = arg })
    | 2, 9 -> Ok (conn_id, Close)
    | 3, 9 when arg >= 0 -> Ok (conn_id, Resync { c_sn = arg })
    | 4, 9 when arg >= 0 -> Ok (conn_id, Abort_tpdu { t_id = arg })
    | 5, 25 when arg >= 0 ->
        let first_elem =
          Int64.to_int (Bytes.get_int64_be chunk.Chunk.payload 9)
        in
        let elems = Int64.to_int (Bytes.get_int64_be chunk.Chunk.payload 17) in
        if first_elem >= 0 && elems >= 1 then
          Ok (conn_id, Shed_tpdu { t_id = arg; first_elem; elems })
        else Error "Connection.parse_signal: bad shed span"
    | _ -> Error "Connection.parse_signal: bad opcode or argument"
  end

type state = Established of { first_csn : int } | Closed

type t = (int, state) Hashtbl.t

let create () : t = Hashtbl.create 8

let on_signal tbl chunk =
  match parse_signal chunk with
  | Error _ as e -> e
  | Ok (conn_id, signal) as ok ->
      (match signal with
      | Open { first_csn } ->
          Hashtbl.replace tbl conn_id (Established { first_csn })
      | Close -> Hashtbl.replace tbl conn_id Closed
      | Resync _ | Abort_tpdu _ | Shed_tpdu _ -> ());
      ok

let on_data tbl ~conn_id ~c_st =
  match Hashtbl.find_opt tbl conn_id with
  | Some (Established _) ->
      (* the in-band end-of-connection bit also closes *)
      if c_st then Hashtbl.replace tbl conn_id Closed;
      true
  | Some Closed | None -> false

let on_chunk tbl chunk =
  let h = chunk.Chunk.header in
  if Chunk.is_terminator chunk then `Ignored
  else if Ctype.equal h.Header.ctype Ctype.signal then (
    match on_signal tbl chunk with
    | Error _ -> `Ignored
    | Ok (conn_id, signal) -> `Signal (conn_id, signal))
  else if Chunk.is_data chunk then begin
    let conn_id = h.Header.c.Ftuple.id in
    if on_data tbl ~conn_id ~c_st:h.Header.c.Ftuple.st then `Data_for conn_id
    else `Unknown_connection conn_id
  end
  else `Ignored

let state tbl ~conn_id = Hashtbl.find_opt tbl conn_id

let established tbl =
  Hashtbl.fold
    (fun id st acc ->
      match st with Established _ -> id :: acc | Closed -> acc)
    tbl []
  |> List.sort Int.compare
