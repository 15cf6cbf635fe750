(** The TPDU invariant under chunk fragmentation (paper §4, Fig. 5).

    End-to-end error detection must survive the header rewriting that
    fragmentation performs, so transmitter and receiver agree to encode
    exactly the same symbols at exactly the same WSC-2 positions
    regardless of how the TPDU was cut into chunks:

    {v
    position                 contents
    0 .. 16383               TPDU data, 32-bit symbols
    16384                    T.ID
    16385                    C.ID
    16386                    C.ST (0 or 1)
    2*T.SN + 16387 (+16388)  one (X.ID, X.ST) pair per external-PDU
                             boundary inside the TPDU, where T.SN is the
                             element-level SN of the boundary element
    v}

    The X pair is contributed by every chunk whose X.ST {e or} T.ST bit
    is set (Fig. 6): X.ST-chunks cover every external PDU that ends in
    the TPDU; the T.ST-chunk covers the one external PDU that begins but
    does not end there.  A chunk with both bits set contributes the pair
    once (same position either way).  Fields not in the invariant —
    TYPE, LEN, SIZE, T.SN, T.ST — are protected because corrupting them
    makes virtual reassembly fail or misplace data (Table 1); C.SN and
    X.SN are protected by consistency checks. *)

val data_limit_symbols : int
(** 16384: maximum 32-bit symbols of data per TPDU (64 KiB). *)

val tid_position : int
val cid_position : int
val cst_position : int

val xpair_position : boundary_t_sn:int -> int
(** Position of the X.ID symbol for a boundary at element-level T.SN
    [boundary_t_sn]; the X.ST symbol sits at the next position. *)

val symbols_per_element : size:int -> int
(** 32-bit symbols per data element; [size] must be a multiple of 4 for
    the invariant to be well-defined (enforced by {!check_size}). *)

val check_size : size:int -> (int, string) result
(** Validate an element size and return [symbols_per_element]. *)

val size_error : size:int -> string option
(** [None] for a valid element size, else {!check_size}'s message; it
    allocates nothing, for the per-chunk verify path. *)

val data_position : size:int -> t_sn:int -> (int, string) result
(** Symbol position of the first word of the element with T-level SN
    [t_sn]; fails if the element lies beyond {!data_limit_symbols}. *)

val max_tpdu_elems : size:int -> int
(** Largest TPDU (in elements) whose data fits the invariant's data
    region for this element size. *)
