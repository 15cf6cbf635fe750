type summary = {
  count : int;
  mean : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

(* Samples in an unboxed, growable float array: one sample costs its 8
   bytes, not a boxed float and a list cell. *)
type t = { mutable samples : Float.Array.t; mutable n : int }

let create () = { samples = Float.Array.create 0; n = 0 }

let grow t =
  let bigger = Float.Array.create (max 8 (2 * t.n)) in
  Float.Array.blit t.samples 0 bigger 0 t.n;
  t.samples <- bigger

(* Inlined, so that a caller's float reaches the array unboxed. *)
let[@inline] add t x =
  if t.n = Float.Array.length t.samples then grow t;
  Float.Array.unsafe_set t.samples t.n x;
  t.n <- t.n + 1

let count t = t.n

let percentile sorted p =
  let n = Array.length sorted in
  let idx = int_of_float (p *. float_of_int (n - 1)) in
  sorted.(idx)

let summary t =
  if t.n = 0 then None
  else begin
    let a = Array.init t.n (Float.Array.get t.samples) in
    Array.sort Float.compare a;
    let total = Array.fold_left ( +. ) 0.0 a in
    Some
      {
        count = t.n;
        mean = total /. float_of_int t.n;
        min = a.(0);
        max = a.(Array.length a - 1);
        p50 = percentile a 0.5;
        p90 = percentile a 0.9;
        p99 = percentile a 0.99;
      }
  end

let pp_summary ?(scale = 1.0) ?(unit_ = "") fmt s =
  Format.fprintf fmt
    "n=%d mean=%.3f%s p50=%.3f%s p90=%.3f%s p99=%.3f%s max=%.3f%s" s.count
    (s.mean *. scale) unit_ (s.p50 *. scale) unit_ (s.p90 *. scale) unit_
    (s.p99 *. scale) unit_ (s.max *. scale) unit_
