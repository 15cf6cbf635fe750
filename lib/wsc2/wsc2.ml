type parity = { p0 : Gf232.t; p1 : Gf232.t }

let parity_zero = { p0 = Gf232.zero; p1 = Gf232.zero }

let parity_equal a b = Gf232.equal a.p0 b.p0 && Gf232.equal a.p1 b.p1

let pp_parity fmt p =
  Format.fprintf fmt "{P0=%a; P1=%a}" Gf232.pp p.p0 Gf232.pp p.p1

let parity_blit p b off =
  if off < 0 || Bytes.length b - off < 8 then
    invalid_arg "Wsc2.parity_blit: need 8 bytes";
  Bytes.set_int32_be b off (Gf232.to_int32_bits p.p0);
  Bytes.set_int32_be b (off + 4) (Gf232.to_int32_bits p.p1)

let parity_to_bytes p =
  let b = Bytes.create 8 in
  parity_blit p b 0;
  b

let parity_of_bytes b off =
  if Bytes.length b - off < 8 then
    invalid_arg "Wsc2.parity_of_bytes: need 8 bytes";
  {
    p0 = Gf232.of_int32_bits (Bytes.get_int32_be b off);
    p1 = Gf232.of_int32_bits (Bytes.get_int32_be b (off + 4));
  }

let max_position = (1 lsl 29) - 3

type acc = { mutable a0 : Gf232.t; mutable a1 : Gf232.t }

let create () = { a0 = Gf232.zero; a1 = Gf232.zero }

let reset acc =
  acc.a0 <- Gf232.zero;
  acc.a1 <- Gf232.zero

let check_pos pos =
  if pos < 0 || pos > max_position then
    invalid_arg "Wsc2: position out of range"

let add_symbol acc ~pos sym =
  check_pos pos;
  acc.a0 <- Gf232.add acc.a0 sym;
  acc.a1 <- Gf232.add acc.a1 (Gf232.mul (Gf232.alpha_pow pos) sym)

let symbols_of_bytes n = (n + 3) / 4

let mask32 = 0xFFFF_FFFF

(* Slicing overflow table, bound once (see Gf232.Slice). *)
let ovf = Gf232.Slice.ovf

let[@inline] byte b i = Char.code (Bytes.unsafe_get b i)

(* Unaligned 32-bit load primitives.  [get32u] is a single (possibly
   unaligned) load with no bounds check; composed directly with
   [bswap32] and [Int32.to_int] the box/unbox pairs cancel in the
   backend, so [sym] is allocation-free even without flambda — unlike
   going through [Bytes.get_int32_be], which is a function call
   returning a boxed [int32]. *)
external get32u : bytes -> int -> int32 = "%caml_bytes_get32u"
external bswap32 : int32 -> int32 = "%bswap_int32"

(* The big-endian 32-bit symbol at byte offset [i]. *)
let[@inline] sym b i =
  if Sys.big_endian then Int32.to_int (get32u b i) land mask32
  else Int32.to_int (bswap32 (get32u b i)) land mask32

(* Multiply by x^k, k <= 8: shift, and fold the overflowed bits back in
   through their product with x^32 (one 256-entry table lookup). *)
let[@inline] mul_xk v k = ((v lsl k) land mask32) lxor Array.unsafe_get ovf (v lsr (32 - k))

(* The slicing-by-8 accumulation kernel.

   A contiguous run is folded with Horner's rule: walking the 32-bit
   big-endian words in reverse, [h := alpha*h + d_i] yields
   [sum_i alpha^i d_i]; a single windowed multiplication by [alpha^pos]
   (a cached weight) then anchors the run at its absolute position.
   The loop consumes 32 bytes — eight symbols s0..s7 in buffer order —
   per iteration:

     h := alpha^8 h  +  alpha^7 s7 + alpha^6 s6 + ... + alpha s1 + s0

   Each term is one unaligned word load plus one table-driven
   shift-reduce ([mul_xk]); the eight weighted symbols are independent
   of each other and of [h], so the only loop-carried dependency is the
   single 8-bit shift-reduce on [h], and P0 falls out of the same loads
   for one XOR per symbol.

   Precondition (NOT checked here): [0 <= off], [0 < len],
   [off + len <= Bytes.length b], and positions [pos .. pos + nsym - 1]
   in range.  [add_bytes] validates; [add_subbytes_exn] trusts the
   caller. *)
let accumulate_unchecked acc ~pos b off len =
  let full = len lsr 2 in
  let tail = len land 3 in
  let h = ref 0 in
  let p0 = ref 0 in
  (* trailing partial word, zero-padded on the right, at relative
     symbol index [full] *)
  if tail > 0 then begin
    let base = off + (full lsl 2) in
    let w = ref 0 in
    for k = 0 to tail - 1 do
      w := !w lor (byte b (base + k) lsl (24 - (k lsl 3)))
    done;
    h := !w;
    p0 := !w
  end;
  let i = ref (full - 1) in
  (* peel single words (at most seven) until the remaining count is a
     multiple of eight; Horner order is strictly descending *)
  while !i >= 0 && (!i + 1) land 7 <> 0 do
    let s = sym b (off + (!i lsl 2)) in
    h := Gf232.xtime !h lxor s;
    p0 := !p0 lxor s;
    decr i
  done;
  while !i >= 7 do
    let base = off + ((!i - 7) lsl 2) in
    let s0 = sym b base
    and s1 = sym b (base + 4)
    and s2 = sym b (base + 8)
    and s3 = sym b (base + 12)
    and s4 = sym b (base + 16)
    and s5 = sym b (base + 20)
    and s6 = sym b (base + 24)
    and s7 = sym b (base + 28) in
    let block =
      s0 lxor mul_xk s1 1 lxor mul_xk s2 2 lxor mul_xk s3 3
      lxor mul_xk s4 4 lxor mul_xk s5 5 lxor mul_xk s6 6 lxor mul_xk s7 7
    in
    h := mul_xk !h 8 lxor block;
    p0 := !p0 lxor s0 lxor s1 lxor s2 lxor s3 lxor s4 lxor s5 lxor s6
          lxor s7;
    i := !i - 8
  done;
  acc.a0 <- acc.a0 lxor !p0;
  let w = Gf232.alpha_pow pos in
  let h = if w = Gf232.one then !h else Gf232.mul w !h in
  acc.a1 <- acc.a1 lxor h

(* Throughput accounting: one atomic add per accumulate call (never per
   byte or per symbol), and only when the observability layer is
   compiled in. *)
let m_bytes = Obs.Metrics.counter "wsc2_bytes_total"
let m_calls = Obs.Metrics.counter "wsc2_accumulate_calls_total"

let[@inline] count len =
  if Obs.enabled then begin
    Obs.Metrics.add m_bytes len;
    Obs.Metrics.incr m_calls
  end

let add_bytes acc ~pos b off len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Wsc2.add_bytes: bad slice";
  let nsym = symbols_of_bytes len in
  if nsym > 0 then begin
    (* one combined range check: [pos >= 0] and the last position in
       bounds imply every position in between is too *)
    if pos < 0 || pos + nsym - 1 > max_position then
      invalid_arg "Wsc2: position out of range";
    count len;
    accumulate_unchecked acc ~pos b off len
  end

let add_subbytes_exn acc ~pos b off len =
  if len > 0 then begin
    count len;
    accumulate_unchecked acc ~pos b off len
  end

let combine dst src =
  dst.a0 <- Gf232.add dst.a0 src.a0;
  dst.a1 <- Gf232.add dst.a1 src.a1

let snapshot acc = { p0 = acc.a0; p1 = acc.a1 }

let of_parity p = { a0 = p.p0; a1 = p.p1 }

let encode_bytes ~pos b =
  let acc = create () in
  add_bytes acc ~pos b 0 (Bytes.length b);
  snapshot acc

let verify ~expected acc =
  Gf232.equal expected.p0 acc.a0 && Gf232.equal expected.p1 acc.a1
