(** Connections and their signalling (paper §2 and [FELD 90]).

    A connection ID refers to a single, {e unmultiplexed}
    application-to-application conversation; the whole conversation is
    treated as one large PDU whose SNs may be reused over time, so the
    {e beginning} of a connection is indicated with a signalling message
    rather than an SN of zero, and the C.ST bit (or an equivalent
    signal) ends it.  Signals travel as [Ctype.signal] control chunks
    and therefore share packets with data like any other chunk
    (Appendix A's piggybacking-for-free observation). *)

type signal =
  | Open of { first_csn : int }
      (** connection establishment, announcing the starting C.SN (which
          need not be 0 — SNs are reused over time) *)
  | Close
      (** orderly tear-down; an alternative to the in-band C.ST bit *)
  | Resync of { c_sn : int }
      (** re-announce the next C.SN (used by receivers that regenerate
          SNs implicitly, Appendix A) *)
  | Abort_tpdu of { t_id : int }
      (** the sender has abandoned TPDU [t_id] (give-up after repeated
          retransmission failure): the receiver should evict any partial
          state it holds for it instead of waiting forever *)
  | Shed_tpdu of { t_id : int; first_elem : int; elems : int }
      (** the sender has {e deliberately} abandoned sheddable TPDU
          [t_id] under congestion (partial reliability, see
          {!Significance}): the receiver should reclaim partial state
          like an abort, but additionally count the element span
          [\[first_elem, first_elem + elems)] as covered-by-shedding so
          the stream can still complete without those bytes *)

val signal_chunk : conn_id:int -> signal -> Chunk.t
(** Encode a signal as a control chunk of the connection. *)

val parse_signal : Chunk.t -> (int * signal, string) result
(** Decode a signalling chunk into (connection id, signal). *)

(** {1 Receiver-side connection table} *)

type state = Established of { first_csn : int } | Closed

type t
(** A table of known connections, keyed by C.ID. *)

val create : unit -> t

val on_chunk : t -> Chunk.t ->
  [ `Signal of int * signal | `Data_for of int | `Unknown_connection of int
  | `Ignored ]
(** Route one chunk: signals update the table ({!on_signal}); data
    chunks are accepted only for established connections
    ({!on_data}; [`Unknown_connection] models the paper's requirement
    that establishment precedes data). *)

val on_signal : t -> Chunk.t -> (int * signal, string) result
(** {!parse_signal}, applying a parsed [Open] or [Close] to the table. *)

val on_data : t -> conn_id:int -> c_st:bool -> bool
(** The data branch of {!on_chunk} at label level, for a receive path
    that reads C.ID and C.ST straight from the packet: whether
    [conn_id] is established, closing it when [c_st] (the in-band
    end-of-connection bit) is set.  Allocates nothing for an unknown
    connection. *)

val state : t -> conn_id:int -> state option
(** Current state of one connection; [None] if the table has never seen
    an [Open] for it. *)

val established : t -> int list
(** Currently established connection ids (ascending). *)
