type t = int

let mask32 = 0xFFFF_FFFF

(* x^32 = x^7 + x^3 + x^2 + 1 (mod m), i.e. the reduction constant 0x8d. *)
let reduction = 0x8d

let zero = 0
let one = 1
let alpha = 2

let of_int32_bits i = Int32.to_int i land mask32
let to_int32_bits a = Int32.of_int a

let is_valid a = a >= 0 && a land mask32 = a

let add a b = a lxor b

(* Branchless shift-and-reduce: the overflowing top bit selects the
   reduction constant through a mask instead of a (50% mispredicted on
   random data) conditional. *)
let xtime a =
  let shifted = (a lsl 1) land mask32 in
  shifted lxor (-((a lsr 31) land 1) land reduction)

(* The bit-serial reference implementation.  It is the oracle every
   table below is generated from and differentially tested against
   (test/test_gf_fast.ml); the table-driven fast paths further down are
   what the hot paths use. *)
module Ref = struct
  (* Russian-peasant multiplication with reduction folded into every
     step; all intermediates stay within 32 bits, so native ints are
     safe. *)
  let mul a b =
    let acc = ref 0 in
    let a = ref a in
    let b = ref b in
    while !b <> 0 do
      if !b land 1 = 1 then acc := !acc lxor !a;
      b := !b lsr 1;
      a := xtime !a
    done;
    !acc

  (* alpha^(2^k) for k = 0..61, so alpha_pow runs in O(popcount i) muls. *)
  let alpha_squares =
    let tbl = Array.make 62 0 in
    tbl.(0) <- alpha;
    for k = 1 to 61 do
      tbl.(k) <- mul tbl.(k - 1) tbl.(k - 1)
    done;
    tbl

  let alpha_pow i =
    if i < 0 then invalid_arg "Gf232.alpha_pow: negative exponent";
    let acc = ref one in
    let i = ref i in
    let k = ref 0 in
    while !i > 0 do
      if !i land 1 = 1 then acc := mul !acc alpha_squares.(!k);
      i := !i lsr 1;
      incr k
    done;
    !acc
end

(* --- table-driven fast paths -------------------------------------- *)

(* t*x^32 mod m for the nibble t that overflows a 4-bit shift.  Both
   factors have degree <= 7, so the field product equals the plain
   carry-less product. *)
let top4_overflow = Array.init 16 (fun n -> Ref.mul n reduction)

(* One 4-bit shift-and-reduce step (multiply by x^4). *)
let[@inline] mul_x4 v =
  ((v lsl 4) land mask32) lxor Array.unsafe_get top4_overflow (v lsr 28)

(* The nibble multiple [n (x) a], selected without a table from the
   four shift-reduce doublings of [a]: each set bit of [n] masks in its
   doubling.  Branch-free and allocation-free, so every domain can call
   it without shared scratch space. *)
let[@inline] nib a a2 a4 a8 n =
  (-(n land 1) land a)
  lxor (-((n lsr 1) land 1) land a2)
  lxor (-((n lsr 2) land 1) land a4)
  lxor (-((n lsr 3) land 1) land a8)

(* Windowed multiplication, 4-bit window over [b]: the nibble multiples
   of [a] come from three shift-reduce doublings, then the 8 nibbles of
   [b] fold in with one table-driven x^4 step each.  Replaces the 32
   branchy shift/reduce iterations of [Ref.mul] on the anchoring
   multiplies of the WSC-2 kernels. *)
let mul a b =
  if a = 0 || b = 0 then 0
  else begin
    let a2 = xtime a in
    let a4 = xtime a2 in
    let a8 = xtime a4 in
    let acc = nib a a2 a4 a8 ((b lsr 28) land 0xF) in
    let acc = mul_x4 acc lxor nib a a2 a4 a8 ((b lsr 24) land 0xF) in
    let acc = mul_x4 acc lxor nib a a2 a4 a8 ((b lsr 20) land 0xF) in
    let acc = mul_x4 acc lxor nib a a2 a4 a8 ((b lsr 16) land 0xF) in
    let acc = mul_x4 acc lxor nib a a2 a4 a8 ((b lsr 12) land 0xF) in
    let acc = mul_x4 acc lxor nib a a2 a4 a8 ((b lsr 8) land 0xF) in
    let acc = mul_x4 acc lxor nib a a2 a4 a8 ((b lsr 4) land 0xF) in
    mul_x4 acc lxor nib a a2 a4 a8 (b land 0xF)
  end

let pow a n =
  if n < 0 then invalid_arg "Gf232.pow: negative exponent";
  let acc = ref one in
  let base = ref a in
  let n = ref n in
  while !n > 0 do
    if !n land 1 = 1 then acc := mul !acc !base;
    base := mul !base !base;
    n := !n lsr 1
  done;
  !acc

(* Memoized weight cache: alpha^i for the whole Fig 5 position layout
   (data positions 0..16383, label positions 16384..16386, (X.ID, X.ST)
   pairs up to 16387 + 2*16383 + 1 = 49154), with slack.  Filled once
   at module init by iterated shift-reduce; immutable afterwards, so it
   is safe to share across domains (Parverify workers). *)
let weight_cache_size = 1 lsl 16

let weights =
  let w = Array.make weight_cache_size one in
  for i = 1 to weight_cache_size - 1 do
    w.(i) <- xtime w.(i - 1)
  done;
  w

let alpha_pow i =
  if i < 0 then invalid_arg "Gf232.alpha_pow: negative exponent";
  if i < weight_cache_size then Array.unsafe_get weights i
  else begin
    (* beyond the Fig 5 layout: square-and-multiply over the cached
       alpha^(2^k) ladder, with the windowed multiply *)
    let acc = ref one in
    let i = ref i in
    let k = ref 0 in
    while !i > 0 do
      if !i land 1 = 1 then acc := mul !acc Ref.alpha_squares.(!k);
      i := !i lsr 1;
      incr k
    done;
    !acc
  end

(* Byte-indexed lane tables for multiplication by alpha^8k, k = 1..8:
   entry (j*256 + c) of table k-1 is (c * x^(8j)) (x) alpha^8k, so a
   product decomposes into four lane lookups XORed together. *)
let mulx8_tables =
  Array.init 8 (fun k ->
      let m = Ref.alpha_pow (8 * (k + 1)) in
      let t = Array.make 1024 0 in
      for j = 0 to 3 do
        for c = 0 to 255 do
          t.((j lsl 8) lor c) <- Ref.mul m (c lsl (8 * j))
        done
      done;
      t)

let[@inline] mul_tabled t a =
  Array.unsafe_get t (a land 0xFF)
  lxor Array.unsafe_get t (0x100 lor ((a lsr 8) land 0xFF))
  lxor Array.unsafe_get t (0x200 lor ((a lsr 16) land 0xFF))
  lxor Array.unsafe_get t (0x300 lor ((a lsr 24) land 0xFF))

let mul_alpha8 a = mul_tabled (Array.unsafe_get mulx8_tables 0) a
let mul_alpha16 a = mul_tabled (Array.unsafe_get mulx8_tables 1) a
let mul_alpha24 a = mul_tabled (Array.unsafe_get mulx8_tables 2) a
let mul_alpha32 a = mul_tabled (Array.unsafe_get mulx8_tables 3) a
let mul_alpha40 a = mul_tabled (Array.unsafe_get mulx8_tables 4) a
let mul_alpha48 a = mul_tabled (Array.unsafe_get mulx8_tables 5) a
let mul_alpha56 a = mul_tabled (Array.unsafe_get mulx8_tables 6) a
let mul_alpha64 a = mul_tabled (Array.unsafe_get mulx8_tables 7) a

(* Overflow table for the slicing-by-8 WSC-2 accumulator
   (Wsc2.add_bytes): multiplying a 32-bit value v by x^k (k <= 8) is
   [(v lsl k) land mask32  lxor  ovf.(v lsr (32 - k))] — the k bits
   shifted out re-enter through their product with x^32 = 0x8d (mod m).
   Both factors have degree <= 7, so each entry is the plain carry-less
   product c * 0x8d; one 256-entry table covers every shift the kernel
   uses (alpha^1..alpha^7 symbol weights and the alpha^8 Horner step). *)
module Slice = struct
  let ovf = Array.init 256 (fun c -> Ref.mul c reduction)
end

let inv a =
  if a = zero then raise Division_by_zero;
  (* a^(2^32 - 2) = a^(order - 1) where order = 2^32 - 1. *)
  pow a 0xFFFF_FFFE

let div a b = mul a (inv b)

let pp fmt a = Format.fprintf fmt "0x%08x" a

let equal (a : t) (b : t) = a = b
let compare (a : t) (b : t) = Int.compare a b
