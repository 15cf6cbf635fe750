let header_size = 46

let chunk_size c = header_size + Chunk.payload_bytes c

let chunks_size cs = List.fold_left (fun acc c -> acc + chunk_size c) 0 cs

(* Big-endian stores straight into a packet image.  The 32- and 64-bit
   ones use the compiler primitives, so the field value is never boxed. *)
external set32 : bytes -> int -> int32 -> unit = "%caml_bytes_set32"
external set64 : bytes -> int -> int64 -> unit = "%caml_bytes_set64"
external bswap32 : int32 -> int32 = "%bswap_int32"
external bswap64 : int64 -> int64 = "%bswap_int64"

let put32 b off x =
  let x = Int32.of_int x in
  set32 b off (if Sys.big_endian then x else bswap32 x)

let put64 b off x =
  let x = Int64.of_int x in
  set64 b off (if Sys.big_endian then x else bswap64 x)

let put_tuple b off ~id ~sn ~st =
  put32 b off id;
  put64 b (off + 4) sn;
  Bytes.set_uint8 b (off + 12) (if st then 1 else 0)

(* The one header writer: every header image, a [Header.t]'s or one
   built from bare fields, is written here. *)
let put_header b off ~code ~size ~len ~c_id ~c_sn ~c_st ~t_id ~t_sn ~t_st
    ~x_id ~x_sn ~x_st =
  Bytes.set_uint8 b off code;
  Bytes.set_uint16_be b (off + 1) size;
  put32 b (off + 3) len;
  put_tuple b (off + 7) ~id:c_id ~sn:c_sn ~st:c_st;
  put_tuple b (off + 20) ~id:t_id ~sn:t_sn ~st:t_st;
  put_tuple b (off + 33) ~id:x_id ~sn:x_sn ~st:x_st

let write_header b off (h : Header.t) =
  let c = h.Header.c and t = h.Header.t and x = h.Header.x in
  put_header b off ~code:(Ctype.code h.Header.ctype) ~size:h.Header.size
    ~len:h.Header.len ~c_id:c.Ftuple.id ~c_sn:c.Ftuple.sn ~c_st:c.Ftuple.st
    ~t_id:t.Ftuple.id ~t_sn:t.Ftuple.sn ~t_st:t.Ftuple.st ~x_id:x.Ftuple.id
    ~x_sn:x.Ftuple.sn ~x_st:x.Ftuple.st

let encode_header buf h =
  let b = Bytes.create header_size in
  write_header b 0 h;
  Buffer.add_bytes buf b

let encode_chunk buf c =
  encode_header buf c.Chunk.header;
  Buffer.add_bytes buf c.Chunk.payload

let get_u32 b off = Int32.to_int (Bytes.get_int32_be b off) land 0xFFFF_FFFF

let get_tuple b off =
  let id = get_u32 b off in
  let sn = Int64.to_int (Bytes.get_int64_be b (off + 4)) in
  let st_byte = Bytes.get_uint8 b (off + 12) in
  if sn < 0 then Error "Wire: SN overflows native int"
  else if st_byte > 1 then Error "Wire: invalid ST byte"
  else Ok (Ftuple.v ~st:(st_byte = 1) ~id ~sn ())

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let decode_header b off =
  if off < 0 || Bytes.length b - off < header_size then
    Error "Wire.decode_header: truncated header"
  else begin
    let* ctype = Ctype.of_code (Bytes.get_uint8 b off) in
    let size = Bytes.get_uint16_be b (off + 1) in
    let len = get_u32 b (off + 3) in
    let* c = get_tuple b (off + 7) in
    let* t = get_tuple b (off + 20) in
    let* x = get_tuple b (off + 33) in
    Header.v ~ctype ~size ~len ~c ~t ~x
  end

let decode_chunk b off =
  if off < 0 || Bytes.length b - off < header_size then
    Error "Wire.decode_chunk: truncated header"
  else begin
    let* h = decode_header b off in
    let nbytes = Header.payload_bytes h in
    let payload_off = off + header_size in
    if Bytes.length b - payload_off < nbytes then
      Error "Wire.decode_chunk: truncated payload"
    else begin
      let payload = Bytes.sub b payload_off nbytes in
      let* chunk = Chunk.make h payload in
      Ok (chunk, payload_off + nbytes)
    end
  end

(* Write [chunks] back to back from [off] in [b]. *)
let rec write_chunks b off = function
  | [] -> ()
  | c :: rest ->
      write_header b off c.Chunk.header;
      let p = c.Chunk.payload in
      Bytes.blit p 0 b (off + header_size) (Bytes.length p);
      write_chunks b (off + header_size + Bytes.length p) rest

(* The packet is sized first and allocated once.  Padding and the
   terminator are both zero bytes, so a padded packet is the chunks
   followed by zeros. *)
let encode_packet ?capacity chunks =
  let used = chunks_size chunks in
  match capacity with
  | Some cap when used > cap ->
      Error
        (Printf.sprintf "Wire.encode_packet: %d bytes exceed capacity %d" used
           cap)
  | Some cap ->
      let b = Bytes.create cap in
      write_chunks b 0 chunks;
      Bytes.fill b used (cap - used) '\000';
      Ok b
  | None ->
      let b = Bytes.create used in
      write_chunks b 0 chunks;
      Ok b

let control_packet ~kind ~c_id ~t_id n =
  if Ctype.is_data kind || n < 1 || n > Header.max_len then
    invalid_arg "Wire.control_packet: not a control chunk";
  Ftuple.check_id c_id;
  Ftuple.check_id t_id;
  let b = Bytes.make (header_size + n) '\000' in
  put_header b 0 ~code:(Ctype.code kind) ~size:1 ~len:n ~c_id ~c_sn:0
    ~c_st:false ~t_id ~t_sn:0 ~t_st:false ~x_id:0 ~x_sn:0 ~x_st:false;
  b

(* Checksummed record framing for persisted state (crash-recovery
   snapshots and journals).  A record is

     LEN (u32 be) | TAG (u8) | payload (LEN bytes) | WSC-2 parity (8)

   with the parity computed over TAG + payload, so a bit flip anywhere
   in the record body — or a LEN that slices the wrong region — fails
   the checksum.  Decoding never raises: a bad record is an [Error],
   and [decode_records] truncates at the first one (torn-write
   tolerance). *)

let record_overhead = 4 + 1 + 8

let encode_record buf ~tag payload =
  if tag < 0 || tag > 0xFF then invalid_arg "Wire.encode_record: bad tag";
  let n = Bytes.length payload in
  let body = Bytes.create (1 + n) in
  Bytes.set_uint8 body 0 tag;
  Bytes.blit payload 0 body 1 n;
  let par = Wsc2.encode_bytes ~pos:0 body in
  let len = Bytes.create 4 in
  Bytes.set_int32_be len 0 (Int32.of_int n);
  Buffer.add_bytes buf len;
  Buffer.add_bytes buf body;
  Buffer.add_bytes buf (Wsc2.parity_to_bytes par)

let decode_record b off =
  let avail = Bytes.length b - off in
  if off < 0 || avail < record_overhead then
    Error "Wire.decode_record: truncated record"
  else begin
    let n = get_u32 b off in
    if n > avail - record_overhead then
      Error "Wire.decode_record: length prefix exceeds buffer"
    else begin
      let body = Bytes.sub b (off + 4) (1 + n) in
      let expected = Wsc2.parity_of_bytes b (off + 4 + 1 + n) in
      if not (Wsc2.parity_equal expected (Wsc2.encode_bytes ~pos:0 body)) then
        Error "Wire.decode_record: checksum mismatch"
      else
        let tag = Bytes.get_uint8 body 0 in
        let payload = Bytes.sub body 1 n in
        Ok (tag, payload, off + record_overhead + n)
    end
  end

let decode_records b off =
  let n = Bytes.length b in
  let rec go off acc =
    if off >= n then (List.rev acc, false)
    else
      match decode_record b off with
      | Ok (tag, payload, off') -> go off' ((tag, payload) :: acc)
      | Error _ -> (List.rev acc, true)
  in
  go off []

let all_zero b off =
  let rec go i = i >= Bytes.length b || (Bytes.get b i = '\000' && go (i + 1)) in
  go off

(* The one packet walker: a zero-allocation structural scanner.

   [Scan.packet] walks a packet image and records the start offset of
   every non-terminator chunk without building a single [Chunk.t] or
   copying a payload byte; [decode_packet] below is that walk plus
   [Scan.chunk] at each recorded offset.  Per chunk, the validity
   predicate is byte-for-byte the one [decode_chunk] applies — a chunk
   is accepted iff [decode_chunk] returns [Ok] at its offset.  The
   checks mirrored from it, per chunk at [off]:

   - LEN within [Header.max_len]                    (Header.v)
   - data chunk with LEN > 0 has SIZE >= 1          (Header.v; SIZE is a
     u16 so the upper bound can never trip)
   - each Ftuple SN non-negative after the exact
     [Int64.to_int] conversion, each ST byte <= 1   (get_tuple)
   - announced payload fits the buffer              (decode_chunk)

   and the packet-level rules:

   - LEN = 0 (a terminator) ends the scan, rest of the buffer ignored
   - a residue shorter than one header must be all-zero padding

   The TYPE byte needs no check: every u8 is a valid [Ctype.code].  The
   field readers, [Scan.header] and [Scan.chunk] skip validation
   entirely and are only meaningful at offsets a successful [packet]
   call produced. *)

module Scan = struct
  (* Bounds-check-free header reads for the validating loop.  These are
     the same compiler primitives the stdlib builds [Bytes.get_uint16_be]
     etc. on, minus the bounds check; every call site below runs after
     [off + header_size <= length b] has been established, and all reads
     stay inside that header. *)
  external unsafe_get16 : bytes -> int -> int = "%caml_bytes_get16u"
  external unsafe_get32 : bytes -> int -> int32 = "%caml_bytes_get32u"
  external swap16 : int -> int = "%bswap16"
  external swap32 : int32 -> int32 = "%bswap_int32"

  let u8 b i = Char.code (Bytes.unsafe_get b i)

  let u16 b i =
    let x = unsafe_get16 b i in
    if Sys.big_endian then x else swap16 x

  let u32 b i =
    let x = unsafe_get32 b i in
    Int32.to_int (if Sys.big_endian then x else swap32 x) land 0xFFFF_FFFF

  type t = {
    mutable offs : int array;
    (* dispatch prefix recorded while validating, so the fast path
       never re-reads it: C.ID, and the TYPE code with the C.ST byte
       folded into bit 8 *)
    mutable cids : int array;
    mutable metas : int array;
    mutable n : int;
  }

  let create () =
    { offs = Array.make 16 0; cids = Array.make 16 0;
      metas = Array.make 16 0; n = 0 }

  let count s = s.n

  (* Unchecked reads, as documented: [i] must come from a [0, count)
     loop over the last accepted packet. *)
  let offset s i = Array.unsafe_get s.offs i
  let c_id_at s i = Array.unsafe_get s.cids i
  let ctype_code_at s i = Array.unsafe_get s.metas i land 0xFF
  let c_st_at s i = Array.unsafe_get s.metas i >= 0x100

  let push s off cid meta =
    if s.n = Array.length s.offs then begin
      let grow a =
        let bigger = Array.make (2 * s.n) 0 in
        Array.blit a 0 bigger 0 s.n;
        bigger
      in
      s.offs <- grow s.offs;
      s.cids <- grow s.cids;
      s.metas <- grow s.metas
    end;
    (* the capacity check above keeps [s.n] in bounds for all three *)
    Array.unsafe_set s.offs s.n off;
    Array.unsafe_set s.cids s.n cid;
    Array.unsafe_set s.metas s.n meta;
    s.n <- s.n + 1

  (* SN validity mirrors [get_tuple]: [Int64.to_int sn >= 0], i.e. bit
     62 of the big-endian word clear (bit 63 is dropped by [to_int]) —
     one byte read instead of a boxed [Int64]. *)
  let tuple_ok b off = u8 b (off + 4) land 0x40 = 0 && u8 b (off + 12) <= 1

  (* A top-level loop rather than a local closure, so that a scan
     allocates nothing at all. *)
  let rec scan_from s b nb off =
    if off >= nb then true
    else if nb - off < header_size then all_zero b off
    else begin
      let len = u32 b (off + 3) in
      if len > Header.max_len then false
      else begin
        let code = u8 b off in
        let is_data = code = 0 in
        let size = u16 b (off + 1) in
        if is_data && len > 0 && size < 1 then false
        else if
          not
            (tuple_ok b (off + 7)
            && tuple_ok b (off + 20)
            && tuple_ok b (off + 33))
        then false
        else if len = 0 then true (* terminator: rest of packet ignored *)
        else begin
          let nbytes = if is_data then size * len else len in
          if nb - (off + header_size) < nbytes then false
          else begin
            push s off
              (u32 b (off + 7))
              (code lor (u8 b (off + 19) lsl 8));
            scan_from s b nb (off + header_size + nbytes)
          end
        end
      end
    end

  let packet s b =
    s.n <- 0;
    scan_from s b (Bytes.length b) 0

  let ctype_code b off = Bytes.get_uint8 b off
  let is_data_chunk b off = Bytes.get_uint8 b off = 0
  let size b off = Bytes.get_uint16_be b (off + 1)
  let len b off = get_u32 b (off + 3)
  let c_id b off = get_u32 b (off + 7)
  let c_sn b off = Int64.to_int (Bytes.get_int64_be b (off + 11))
  let c_st b off = Bytes.get_uint8 b (off + 19) = 1
  let t_id b off = get_u32 b (off + 20)
  let t_sn b off = Int64.to_int (Bytes.get_int64_be b (off + 24))
  let t_st b off = Bytes.get_uint8 b (off + 32) = 1
  let x_id b off = get_u32 b (off + 33)
  let x_sn b off = Int64.to_int (Bytes.get_int64_be b (off + 37))
  let x_st b off = Bytes.get_uint8 b (off + 45) = 1

  let tuple b off =
    Ftuple.v
      ~st:(Bytes.get_uint8 b (off + 12) = 1)
      ~id:(get_u32 b off)
      ~sn:(Int64.to_int (Bytes.get_int64_be b (off + 4)))
      ()

  let payload_bytes b off =
    if is_data_chunk b off then size b off * len b off else len b off

  type view = {
    mutable code : int;
    mutable size : int;
    mutable len : int;
    mutable c_id : int;
    mutable c_sn : int;
    mutable c_st : bool;
    mutable t_id : int;
    mutable t_sn : int;
    mutable t_st : bool;
    mutable x_id : int;
    mutable x_sn : int;
    mutable x_st : bool;
  }

  let view () =
    { code = 0; size = 0; len = 0; c_id = 0; c_sn = 0; c_st = false;
      t_id = 0; t_sn = 0; t_st = false; x_id = 0; x_sn = 0; x_st = false }

  external unsafe_get64 : bytes -> int -> int64 = "%caml_bytes_get64u"
  external swap64 : int64 -> int64 = "%bswap_int64"

  (* An SN as [Int64.to_int] reads it, without boxing the [Int64]. *)
  let sn64 b i =
    let x = unsafe_get64 b i in
    Int64.to_int (if Sys.big_endian then x else swap64 x)

  (* The same unchecked reads as [scan_from], valid at any offset a
     successful [packet] call recorded. *)
  let read v b off =
    v.code <- u8 b off;
    v.size <- u16 b (off + 1);
    v.len <- u32 b (off + 3);
    v.c_id <- u32 b (off + 7);
    v.c_sn <- sn64 b (off + 11);
    v.c_st <- u8 b (off + 19) = 1;
    v.t_id <- u32 b (off + 20);
    v.t_sn <- sn64 b (off + 24);
    v.t_st <- u8 b (off + 32) = 1;
    v.x_id <- u32 b (off + 33);
    v.x_sn <- sn64 b (off + 37);
    v.x_st <- u8 b (off + 45) = 1

  let read_header v (h : Header.t) =
    let c = h.Header.c and t = h.Header.t and x = h.Header.x in
    v.code <- Ctype.code h.Header.ctype;
    v.size <- h.Header.size;
    v.len <- h.Header.len;
    v.c_id <- c.Ftuple.id;
    v.c_sn <- c.Ftuple.sn;
    v.c_st <- c.Ftuple.st;
    v.t_id <- t.Ftuple.id;
    v.t_sn <- t.Ftuple.sn;
    v.t_st <- t.Ftuple.st;
    v.x_id <- x.Ftuple.id;
    v.x_sn <- x.Ftuple.sn;
    v.x_st <- x.Ftuple.st

  let view_payload_bytes v =
    if v.len = 0 then 0 else if v.code = 0 then v.size * v.len else v.len

  let header b off =
    let ctype =
      match Bytes.get_uint8 b off with 0 -> Ctype.Data | k -> Ctype.Control k
    in
    {
      Header.ctype;
      size = Bytes.get_uint16_be b (off + 1);
      len = get_u32 b (off + 3);
      c = tuple b (off + 7);
      t = tuple b (off + 20);
      x = tuple b (off + 33);
    }

  let chunk b off =
    let h = header b off in
    Chunk.make_exn h (Bytes.sub b (off + header_size) (Header.payload_bytes h))
end

let decode_packet b =
  let s = Scan.create () in
  if Scan.packet s b then
    Ok (List.init (Scan.count s) (fun i -> Scan.chunk b (Scan.offset s i)))
  else Error "Wire.decode_packet: malformed chunk or trailing garbage"
