(* Differential tests: every table-driven fast path in Gf232/Wsc2 must
   be bit-identical to the bit-serial reference implementation the
   tables were generated from (Gf232.Ref), on random operands and on
   awkward byte slices (unaligned offsets, lengths not divisible by
   4 or 8). *)

let gen_elt = QCheck2.Gen.map (fun i -> i land 0xFFFF_FFFF) QCheck2.Gen.int

let gen_nonzero =
  QCheck2.Gen.map (fun i -> 1 + (i land 0xFFFF_FFFE)) QCheck2.Gen.int

(* Reference parity of [len] bytes of [b] at [off], symbols anchored at
   [pos]: per-symbol weights, Ref arithmetic only. *)
let ref_parity ~pos b off len =
  let nsym = Wsc2.symbols_of_bytes len in
  let p0 = ref 0 and p1 = ref 0 in
  for i = 0 to nsym - 1 do
    let sym = ref 0 in
    for k = 0 to 3 do
      let j = off + (4 * i) + k in
      let c = if j < off + len then Char.code (Bytes.get b j) else 0 in
      sym := (!sym lsl 8) lor c
    done;
    p0 := !p0 lxor !sym;
    p1 := !p1 lxor Gf232.Ref.mul (Gf232.Ref.alpha_pow (pos + i)) !sym
  done;
  (!p0, !p1)

let gen_slice =
  (* a buffer plus an awkward sub-slice: offsets 0..7 from a random
     anchor, lengths deliberately including values <> 0 mod 4 and
     <> 0 mod 8 *)
  let open QCheck2.Gen in
  let* total = int_range 0 600 in
  let* seed = int_range 0 0xFFFF in
  let* skew = int_range 0 7 in
  let* pos = int_range 0 5000 in
  let b =
    Bytes.init (total + skew) (fun i ->
        Char.chr ((seed + (i * 73) + ((i * i) lsr 3)) land 0xFF))
  in
  let* len = int_range 0 total in
  return (b, skew, len, pos)

let test_mul_matches_ref =
  Util.qtest ~count:500 "mul = Ref.mul"
    QCheck2.Gen.(tup2 gen_elt gen_elt)
    (fun (a, b) -> Gf232.mul a b = Gf232.Ref.mul a b)

let test_alpha_pow_matches_ref =
  (* straddle the weight-cache boundary (2^16) on purpose *)
  Util.qtest ~count:300 "alpha_pow = Ref.alpha_pow (across the cache edge)"
    (QCheck2.Gen.int_range 0 200_000)
    (fun i -> Gf232.alpha_pow i = Gf232.Ref.alpha_pow i)

let test_mul_alpha_tables =
  let variants =
    [
      (8, Gf232.mul_alpha8); (16, Gf232.mul_alpha16); (24, Gf232.mul_alpha24);
      (32, Gf232.mul_alpha32); (40, Gf232.mul_alpha40);
      (48, Gf232.mul_alpha48); (56, Gf232.mul_alpha56);
      (64, Gf232.mul_alpha64);
    ]
  in
  Util.qtest ~count:300 "mul_alpha8..64 = Ref.mul by alpha^8k" gen_elt
    (fun a ->
      List.for_all
        (fun (k, f) -> f a = Gf232.Ref.mul a (Gf232.Ref.alpha_pow k))
        variants)

let test_slice_lanes =
  Alcotest.test_case "slice overflow table matches the reference" `Quick
    (fun () ->
      for c = 0 to 255 do
        Alcotest.(check int) "ovf" (Gf232.Ref.mul c (Gf232.Ref.alpha_pow 32))
          Gf232.Slice.ovf.(c)
      done)

let test_add_bytes_matches_ref =
  Util.qtest ~count:500 "slicing add_bytes = per-symbol Ref accumulation"
    gen_slice
    (fun (b, skew, len, pos) ->
      let acc = Wsc2.create () in
      Wsc2.add_bytes acc ~pos b skew len;
      let p = Wsc2.snapshot acc in
      let p0, p1 = ref_parity ~pos b skew len in
      p.Wsc2.p0 = p0 && p.Wsc2.p1 = p1)

let test_add_subbytes_exn_matches =
  Util.qtest ~count:300 "add_subbytes_exn = add_bytes" gen_slice
    (fun (b, skew, len, pos) ->
      let checked = Wsc2.create () and unchecked = Wsc2.create () in
      Wsc2.add_bytes checked ~pos b skew len;
      Wsc2.add_subbytes_exn unchecked ~pos b skew len;
      Wsc2.parity_equal (Wsc2.snapshot checked) (Wsc2.snapshot unchecked))

let test_parity_blit =
  Util.qtest ~count:100 "parity_blit = parity_to_bytes at any offset"
    QCheck2.Gen.(tup3 gen_elt gen_elt (int_range 0 16))
    (fun (a, b, off) ->
      let p = { Wsc2.p0 = a; p1 = b } in
      let img = Wsc2.parity_to_bytes p in
      let buf = Bytes.make (off + 8) '\xAA' in
      Wsc2.parity_blit p buf off;
      Bytes.equal img (Bytes.sub buf off 8)
      && Wsc2.parity_equal p (Wsc2.parity_of_bytes buf off))

(* The field axioms, re-run against the fast path (the seed suite ran
   them against the bit-serial multiply). *)
let axiom_suite =
  [
    Util.qtest "fast mul commutative"
      QCheck2.Gen.(tup2 gen_elt gen_elt)
      (fun (a, b) -> Gf232.mul a b = Gf232.mul b a);
    Util.qtest "fast mul associative"
      QCheck2.Gen.(tup3 gen_elt gen_elt gen_elt)
      (fun (a, b, c) ->
        Gf232.mul a (Gf232.mul b c) = Gf232.mul (Gf232.mul a b) c);
    Util.qtest "fast mul distributes over add"
      QCheck2.Gen.(tup3 gen_elt gen_elt gen_elt)
      (fun (a, b, c) ->
        Gf232.mul a (Gf232.add b c)
        = Gf232.add (Gf232.mul a b) (Gf232.mul a c));
    Util.qtest "fast mul stays in field"
      QCheck2.Gen.(tup2 gen_elt gen_elt)
      (fun (a, b) -> Gf232.is_valid (Gf232.mul a b));
    Util.qtest ~count:50 "fast inverse law" gen_nonzero (fun a ->
        Gf232.mul a (Gf232.inv a) = Gf232.one);
    Util.qtest ~count:100 "cached alpha_pow additive law"
      QCheck2.Gen.(tup2 (int_range 0 100_000) (int_range 0 100_000))
      (fun (i, j) ->
        Gf232.mul (Gf232.alpha_pow i) (Gf232.alpha_pow j)
        = Gf232.alpha_pow (i + j));
  ]

(* The windowed multiply is called once per chunk by Wsc2.add_bytes,
   on every verifying domain: it must not allocate. *)
let test_mul_no_alloc () =
  let acc = ref 1 in
  let words =
    Util.minor_words_of (fun () ->
        for i = 1 to 10_000 do
          acc := Gf232.mul (!acc lxor i) (0x9E37_79B9 + i)
        done)
  in
  Alcotest.(check bool) "product computed" true (Gf232.is_valid !acc);
  Alcotest.(check (float 0.)) "10,000 muls allocate no minor words" 0. words

let suite =
  [
    test_mul_matches_ref;
    test_alpha_pow_matches_ref;
    test_mul_alpha_tables;
    test_slice_lanes;
    test_add_bytes_matches_ref;
    test_add_subbytes_exn_matches;
    test_parity_blit;
    Alcotest.test_case "mul allocates nothing" `Quick test_mul_no_alloc;
  ]
  @ axiom_suite
