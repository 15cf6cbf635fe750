(** An [(ID, SN, ST)] framing tuple — the unit of explicit data labelling
    (paper §2).

    Each piece of data in a PDU is identified by the PDU it belongs to
    ([id]), its sequence number within that PDU's payload ([sn], the
    first piece of a PDU has [sn = 0]), and a STop bit ([st]) set on the
    {e last} piece of the PDU.  A chunk carries one such tuple per
    framing level (connection / TPDU / external PDU); the tuple stored in
    a chunk header holds the SN of the chunk's {e first} element and the
    ST bit of its {e last} element. *)

type t = { id : int; sn : int; st : bool }
(** One framing level's label: PDU identifier, sequence number of the
    first labelled element, STop bit of the last. *)

val v : ?st:bool -> id:int -> sn:int -> unit -> t
(** [v ~id ~sn] builds a tuple; [st] defaults to [false].

    @raise Invalid_argument if [id] or [sn] is negative or [id] exceeds
    32 bits. *)

val check_id : int -> unit
(** Raises exactly what {!v} raises for an out-of-range [id]; for
    writers that put an ID on the wire without building a tuple. *)

val zero : t
(** The all-zero tuple, used by terminator chunks. *)

val advance : t -> int -> t
(** [advance u n] is the tuple labelling data [n] elements later in the
    same PDU: [sn] grows by [n] and [st] is cleared (only the final
    fragment keeps the original ST bit — Appendix C). *)

val with_st : t -> bool -> t
(** Replace the ST bit. *)

val follows : t -> len:int -> t -> bool
(** [follows a ~len b] is [true] iff [b] labels the element run
    immediately after [a]'s run of [len] elements in the same PDU:
    same [id] and [b.sn = a.sn + len] (Appendix D mergeability, one
    level). *)

val equal : t -> t -> bool
(** Field-wise equality. *)

val compare : t -> t -> int
(** Total order: by [id], then [sn], then [st] — the order virtual
    reassembly sorts gap-report runs in. *)

val pp : Format.formatter -> t -> unit
(** Prints [(id,sn)] with a trailing [*] when ST is set. *)
