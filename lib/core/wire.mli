(** Binary wire format for chunks and chunk-carrying packets.

    This is the "simple version of chunks ... easy to parse because of
    their fixed-field format" of Appendix A — every field explicit.  A
    chunk header occupies {!header_size} bytes:

    {v
    offset  field
    0       TYPE   (u8;  0 = data, >=1 = control kind)
    1       SIZE   (u16 be)
    3       LEN    (u32 be; 0 = terminator)
    7       C.ID   (u32 be)   C.SN (u64 be)   C.ST (u8)
    20      T.ID   (u32 be)   T.SN (u64 be)   T.ST (u8)
    33      X.ID   (u32 be)   X.SN (u64 be)   X.ST (u8)
    46      payload (SIZE*LEN bytes for data, LEN bytes for control)
    v}

    A packet is a fixed-capacity envelope: chunks back to back, then —
    if at least one header of slack remains — a terminator (an all-zero
    header, i.e. LEN = 0) marking the end of the valid-chunk region
    (paper §2), then zero padding.  Bandwidth-efficient variants of this
    encoding live in {!Compress}. *)

val header_size : int
(** 46 bytes. *)

val chunk_size : Chunk.t -> int
(** On-wire bytes of one chunk: header + payload ({!header_size} for a
    terminator). *)

val chunks_size : Chunk.t list -> int
(** Total on-wire bytes of a chunk sequence (no terminator). *)

val encode_chunk : Buffer.t -> Chunk.t -> unit
(** Append one chunk's wire image. *)

val encode_header : Buffer.t -> Header.t -> unit
(** Append just the {!header_size}-byte header image. *)

val write_header : bytes -> int -> Header.t -> unit
(** [write_header b off h] writes [h]'s {!header_size}-byte image into
    [b] at [off].
    @raise Invalid_argument if it does not fit. *)

val decode_header : bytes -> int -> (Header.t, string) result
(** Parse one header image (no payload expected after it). *)

val decode_chunk : bytes -> int -> (Chunk.t * int, string) result
(** [decode_chunk b off] parses one chunk at [off] and returns it with
    the offset just past it.  A terminator decodes as
    [Chunk.terminator]. *)

val encode_packet : ?capacity:int -> Chunk.t list -> (bytes, string) result
(** [encode_packet ~capacity cs] builds one packet.  Fails if the chunks
    exceed [capacity].  Without [capacity] the packet is exactly the
    chunks' size (no terminator needed: end-of-packet delimits).  With
    [capacity], the packet is padded to exactly [capacity] bytes with a
    terminator before the padding whenever slack remains (if the slack
    is smaller than a header it is zero-filled, which decodes as
    end-of-packet). *)

val control_packet : kind:Ctype.t -> c_id:int -> t_id:int -> int -> bytes
(** [control_packet ~kind ~c_id ~t_id n] is the packet of one control
    chunk of kind [kind] with an [n]-byte zero payload, labelled
    C = [(c_id, 0)], T = [(t_id, 0)], X = {!Ftuple.zero}: byte for byte
    [encode_packet [c]] for that chunk [c], written without building it.
    The payload starts at {!header_size}, for the caller to fill in.
    @raise Invalid_argument as {!Ftuple.v} does for an out-of-range ID,
    or if [kind] is data or [n] is outside [1, Header.max_len]. *)

val decode_packet : bytes -> (Chunk.t list, string) result
(** Parse all chunks of a packet, stopping at a terminator, at
    end-of-buffer, or at a residue smaller than one header (treated as
    padding only if all-zero).  Built on the one packet walker:
    {!Scan.packet} validates the image, then {!Scan.chunk} materialises
    each recorded chunk — equal, chunk for chunk, to what
    {!decode_chunk} returns at the same offsets. *)

(** {1 Zero-allocation packet scanning}

    The one packet walker, and the front end of the receive path
    ([ingest] in [Transport.Multi] and [Transport.Chunk_transport]):
    walk a packet image once, validating its structure and recording
    chunk start offsets, without building [Chunk.t] values or copying
    payload bytes.  Label fields are then read straight out of the
    buffer at those offsets.

    The scanner is {e exactly} as strict as {!decode_chunk} applied
    chunk by chunk up to a terminator, with a sub-header residue
    accepted only as all-zero padding; on acceptance the recorded
    offsets are precisely where those chunks start, in order.  A fuzz
    property pins this down against an independent chunk-by-chunk
    reference decoder. *)

module Scan : sig
  type t
  (** Reusable scan scratch: a growable offset array.  Create once per
      ingest loop and pass to every {!packet} call — steady-state
      scanning then allocates nothing. *)

  val create : unit -> t
  (** Fresh scratch (initial capacity 16 chunks, grows as needed). *)

  val packet : t -> bytes -> bool
  (** [packet s b] validates the whole packet image [b], recording the
      start offset of each non-terminator chunk in [s].  Returns [false]
      — and the packet must be dropped whole — on any malformed chunk
      or non-zero trailing residue.  Resets [s] first, so a scratch can
      be reused freely. *)

  val count : t -> int
  (** Number of chunk offsets recorded by the last {!packet} call. *)

  val offset : t -> int -> int
  (** [offset s i] is the start of the [i]th chunk ([0 <= i <
      count s]).  Unchecked array access. *)

  val c_id_at : t -> int -> int
  (** [c_id_at s i] is the [i]th chunk's C.ID, recorded during the
      validation pass — the demultiplexing key, readable without
      touching the packet again. *)

  val ctype_code_at : t -> int -> int
  (** [ctype_code_at s i] is the [i]th chunk's TYPE code (0 = data),
      recorded during the validation pass. *)

  val c_st_at : t -> int -> bool
  (** [c_st_at s i] is the [i]th chunk's C.ST bit, recorded during the
      validation pass. *)

  (** {2 Field readers}

      Each reader takes the packet buffer and a chunk offset produced by
      a successful {!packet} call; no bounds or validity checks are
      performed.  Offsets within the 46-byte header are as documented at
      the top of this file. *)

  val ctype_code : bytes -> int -> int
  (** Raw TYPE byte ([0] = data; see {!Ctype.of_code}). *)

  val is_data_chunk : bytes -> int -> bool
  (** [true] iff the TYPE byte is [0].  Note a scanned chunk is never a
      terminator, so unlike {!Chunk.is_data} there is no LEN caveat. *)

  val size : bytes -> int -> int
  (** SIZE field (bytes per element). *)

  val len : bytes -> int -> int
  (** LEN field (element count; payload byte count for control). *)

  val c_id : bytes -> int -> int
  val c_sn : bytes -> int -> int

  val c_st : bytes -> int -> bool
  (** Connection-level ID / first-element SN / last-element ST. *)

  val t_id : bytes -> int -> int
  val t_sn : bytes -> int -> int

  val t_st : bytes -> int -> bool
  (** TPDU-level ID / first-element SN / last-element ST. *)

  val x_id : bytes -> int -> int
  val x_sn : bytes -> int -> int

  val x_st : bytes -> int -> bool
  (** External-PDU-level ID / first-element SN / last-element ST. *)

  val payload_bytes : bytes -> int -> int
  (** Payload bytes the chunk announces ([SIZE * LEN] for data, [LEN]
      for control), as {!Header.payload_bytes}; the payload starts at
      [off + header_size]. *)

  val header : bytes -> int -> Header.t
  (** The header at a scanned offset, without its payload.  Allocates
      the header and its three tuples; the receive path reads a
      {!view} instead. *)

  val chunk : bytes -> int -> Chunk.t
  (** Materialise the chunk at a scanned offset: {!header} plus a copy
      of the payload.  Equal (by {!Chunk.equal}) to what
      {!decode_chunk} returns there.  The receive path calls it only
      for signals, whose payload is parsed as an object; everything
      else is decided and processed in the packet. *)

  (** {2 Label views}

      The receive path reads a chunk's labels into one flat, mutable
      record that its owner allocates once and refills for every chunk
      (paper §2: the header alone says what to do with the chunk).
      Whatever the owner keeps past the chunk it copies out of the view:
      the view itself holds the next chunk's labels soon after. *)

  type view = {
    mutable code : int;  (** TYPE code ([0] = data, [1] = ED, ...) *)
    mutable size : int;  (** SIZE *)
    mutable len : int;  (** LEN *)
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
  (** The header's fields as ints and bools, as {!header} would decode
      them. *)

  val view : unit -> view
  (** A fresh view (all fields zero). *)

  val read : view -> bytes -> int -> unit
  (** [read v b off] fills [v] with the labels of the chunk scanned at
      [off] in [b]; allocates nothing.  Unchecked, like the field
      readers. *)

  val read_header : view -> Header.t -> unit
  (** Fill a view from a materialised header. *)

  val view_payload_bytes : view -> int
  (** {!Header.payload_bytes} of the viewed header. *)
end

(** {1 Checksummed record framing}

    Length-prefixed, WSC-2-checksummed records for persisted endpoint
    state (crash-recovery snapshots and their append-only journals):
    [LEN (u32 be) | TAG (u8) | payload | parity (8 bytes)], with the
    parity computed over TAG and payload together.  Decoding never
    raises on malformed input. *)

val record_overhead : int
(** Framing bytes per record beyond the payload (13). *)

val encode_record : Buffer.t -> tag:int -> bytes -> unit
(** Append one record.
    @raise Invalid_argument if [tag] is outside [0, 255]. *)

val decode_record : bytes -> int -> (int * bytes * int, string) result
(** [decode_record b off] parses one record at [off] and returns
    [(tag, payload, next_off)].  Fails — never raises — on truncation,
    a length prefix that overruns the buffer, or a checksum
    mismatch. *)

val decode_records : bytes -> int -> (int * bytes) list * bool
(** Parse records back to back until end-of-buffer or the first bad
    record.  Returns the good prefix and whether decoding stopped early
    ([true] = torn tail was truncated) — the journal-recovery rule:
    everything before the first damaged record is trusted, everything
    after it is discarded. *)
