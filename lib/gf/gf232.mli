(** Arithmetic in the finite field GF(2{^32}).

    Elements are polynomials over GF(2) of degree < 32, represented as the
    low 32 bits of a native [int] (bit [i] is the coefficient of [x{^i}]).
    Reduction is modulo the primitive pentanomial

    {[ m(x) = x^32 + x^7 + x^3 + x^2 + 1 ]}

    so the element [alpha] = [x] generates the multiplicative group of
    order 2{^32} - 1.  This field underlies the WSC-2 weighted-sum error
    detection code of Feldmeier (SIGCOMM '93) / McAuley: symbol [d_i] at
    position [i] is weighted by [alpha^i], which requires only [add],
    [mul] and fast exponentiation.

    Two implementations coexist.  {!Ref} is the bit-serial reference
    (shift-and-reduce per bit) — slow, obviously correct, and the oracle
    from which every table is generated.  The top-level operations are
    the table-driven fast paths: a 4-bit windowed {!mul}, a memoized
    {!alpha_pow} weight cache covering the whole Fig 5 position layout,
    and byte-indexed tables ({!mul_alpha8} … {!mul_alpha64}, {!Slice})
    for the slicing-by-8 WSC-2 accumulation kernel.  All
    tables are built once at module initialisation and immutable
    afterwards, so they are safe to share across domains. *)

type t = int
(** A field element; always in the range [0, 0xFFFF_FFFF]. *)

val zero : t
(** The additive identity. *)

val one : t
(** The multiplicative identity. *)

val alpha : t
(** The generator [x] (the polynomial of degree 1). *)

val of_int32_bits : int32 -> t
(** Reinterpret the 32 bits of an [int32] as a field element. *)

val to_int32_bits : t -> int32
(** Inverse of {!of_int32_bits}. *)

val is_valid : t -> bool
(** [is_valid a] is [true] iff [a] is a normalised element (fits in 32
    bits and is non-negative). *)

val add : t -> t -> t
(** Field addition = polynomial addition over GF(2) = bitwise XOR.
    Every element is its own additive inverse, so [add] is also
    subtraction. *)

val xtime : t -> t
(** [xtime a] is [mul alpha a]: one branchless shift-and-reduce step.
    This is the cheap incremental weight update used when accumulating
    consecutive symbol positions. *)

val mul : t -> t -> t
(** Carry-less polynomial multiplication reduced modulo [m(x)].
    Table-driven: a 4-bit window over the second operand — each nibble
    multiple of the first operand is masked together from its three
    shift-reduce doublings, then folded with one table-driven [x^4]
    step per nibble.  Allocates nothing, so it is safe to call from
    several domains at once.  Bit-identical to {!Ref.mul} on valid
    elements (differentially tested). *)

val pow : t -> int -> t
(** [pow a n] is [a] raised to the [n]-th power by square-and-multiply.
    [n] must be non-negative.  [pow a 0 = one] (including for [a = zero],
    by convention). *)

val alpha_pow : int -> t
(** [alpha_pow i] is [alpha] to the [i]-th power — the WSC-2 weight of
    position [i].  Positions below [2{^16}] (the entire Fig 5 layout:
    data 0‥16383, labels 16384‥16386, boundary pairs up to 49154) are a
    single lookup in a precomputed weight cache; larger exponents fall
    back to square-and-multiply over the [alpha{^2{^k}}] ladder. *)

val mul_alpha8 : t -> t
(** [mul_alpha8 a = mul a (alpha_pow 8)] via four byte-indexed lane
    lookups (one 256-entry table per byte of [a]).  Likewise the
    variants below, up to [alpha^64]. *)

val mul_alpha16 : t -> t
val mul_alpha24 : t -> t
val mul_alpha32 : t -> t
val mul_alpha40 : t -> t
val mul_alpha48 : t -> t
val mul_alpha56 : t -> t
val mul_alpha64 : t -> t

val inv : t -> t
(** Multiplicative inverse via [a{^2{^32}-2}].

    @raise Division_by_zero if the argument is [zero]. *)

val div : t -> t -> t
(** [div a b = mul a (inv b)].

    @raise Division_by_zero if [b] is [zero]. *)

(** The bit-serial reference implementation: the differential-testing
    oracle, and the generator of every table in this module.  Never used
    on a hot path. *)
module Ref : sig
  val mul : t -> t -> t
  (** Russian-peasant multiplication, 32 interleaved shift/reduce
      steps. *)

  val alpha_pow : int -> t
  (** O(popcount i) reference exponentiation over the [alpha{^2{^k}}]
      ladder, built with {!Ref.mul} only.

      @raise Invalid_argument on a negative exponent. *)
end

(** Overflow table for the slicing-by-8 WSC-2 kernel
    ([Wsc2.add_bytes]).  Multiplying a 32-bit value [v] by [x^k]
    ([k <= 8]) is [((v lsl k) land 0xFFFF_FFFF) lxor
    ovf.(v lsr (32 - k))]: the bits shifted out re-enter through their
    product with [x^32 = 0x8d (mod m)].  One 256-entry table covers the
    [alpha^1..alpha^7] symbol weights of a 32-byte block and the
    [alpha^8] Horner step.

    Exposed for the kernel and for differential tests; treat as
    read-only. *)
module Slice : sig
  val ovf : int array
  (** [ovf.(c) = c * x^32 mod m] for [c < 256]. *)
end

val pp : Format.formatter -> t -> unit
(** Prints an element as [0x%08x]. *)

val equal : t -> t -> bool
val compare : t -> t -> int
