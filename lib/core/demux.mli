(** TYPE-based chunk demultiplexing (Appendix A): "chunks simplify
    distributed protocol processing because they can be demultiplexed
    via the TYPE field and routed to the appropriate processing units.
    Individual processing units are responsible for knowing which chunk
    (ID, SN, ST) tuple to use."

    A demux owns a handler per chunk TYPE (plus a default); feeding it a
    packet routes every chunk in one table lookup — the "single context
    retrieval per chunk" property.  Handlers are independent units, so a
    hardware implementation could run them in parallel; here they model
    the software dispatch cost measured in CLM-DEMUX.

    This module is the Appendix-A exhibit, not part of the receive
    path: tests, fuzzing and [examples/piggyback] use it.  Endpoints
    receive through [Transport.Multi.ingest], whose per-chunk dispatch
    is the scanned TYPE code plus the connection table (DESIGN §7). *)

type t
(** A demultiplexer: a TYPE-indexed handler table plus routing
    counters. *)

val create : ?default:(Chunk.t -> unit) -> unit -> t
(** [default] sees chunks of unregistered TYPEs (dropped silently by
    default). *)

val register : t -> Ctype.t -> (Chunk.t -> unit) -> unit
(** Install the processing unit for one TYPE (replaces any previous
    one). *)

val on_chunk : t -> Chunk.t -> unit
(** Route one chunk (terminators are swallowed). *)

val on_packet : t -> bytes -> (int, string) result
(** Decode an envelope and route every chunk; returns the number
    routed. *)

val routed : t -> int
(** Chunks routed so far. *)

val unknown : t -> int
(** Chunks that fell to the default handler. *)
