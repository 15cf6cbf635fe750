open Labelling

type stats = {
  injected : int;
  dup_divergent : int;
  forged_tpdus : int;
  resplit_chains : int;
}

type t = {
  rng : Rng.t;
  dup : bool;
  forge : bool;
  resplit : bool;
  inject : bytes -> unit;
  recent : Chunk.t option array;  (* ring of recently observed data chunks *)
  mutable next : int;
  mutable seen : int;
  mutable forge_seq : int;
  mutable injected : int;
  mutable dup_divergent : int;
  mutable forged_tpdus : int;
  mutable resplit_chains : int;
}

(* Forged T.IDs live in their own range, far above legitimate epochs'
   T.IDs and distinct from the flood adversary's 500_000 base, so a
   trace names its author. *)
let forged_tid_base = 700_000

let ring_capacity = 32

let send o chunk =
  match Wire.encode_packet [ chunk ] with
  | Error _ -> ()
  | Ok b ->
      o.injected <- o.injected + 1;
      o.inject b

let observe o b =
  match Wire.decode_packet b with
  | Error _ -> ()
  | Ok chunks ->
      List.iter
        (fun c ->
          if Chunk.is_data c then begin
            o.recent.(o.next) <- Some c;
            o.next <- (o.next + 1) mod Array.length o.recent;
            o.seen <- o.seen + 1
          end)
        chunks

let pick_victim o =
  let filled = min o.seen (Array.length o.recent) in
  if filled = 0 then None else o.recent.(Rng.int o.rng filled)

let xor_payload src k =
  Bytes.init (Bytes.length src) (fun i ->
      Char.chr (Char.code (Bytes.get src i) lxor k))

(* A divergent duplicate: the victim's exact labels over different
   bytes.  Virtual reassembly drops it as a duplicate when it trails the
   original; when it races ahead of a retransmission, the parity check
   fails the TPDU and the epoch retry heals the squatted bytes through
   the first-verified-wins policy. *)
let fire_dup o victim =
  let h = victim.Chunk.header in
  match
    Chunk.data ~size:h.Header.size ~c:h.Header.c ~t:h.Header.t ~x:h.Header.x
      (xor_payload victim.Chunk.payload 0x5A)
  with
  | Error _ -> ()
  | Ok c ->
      o.dup_divergent <- o.dup_divergent + 1;
      send o c

(* One forged single-chunk TPDU claiming the connection range
   [c_sn, c_sn + elems): a data chunk whose T label says "first and only"
   plus an ED chunk whose C.SN - T.SN delta {e agrees} with the data
   chunk's, so label corroboration admits the bytes into placement —
   and whose parity is garbage, so WSC-2 verification then fails the
   TPDU.  The placement conflicts it provokes are exactly what the
   first-verified-wins policy must absorb. *)
let fire_forged o ~conn_id ~c_sn ~size payload =
  let elems = Bytes.length payload / size in
  let t_id = forged_tid_base + o.forge_seq in
  o.forge_seq <- o.forge_seq + 1;
  let data =
    Chunk.data ~size
      ~c:(Ftuple.v ~id:conn_id ~sn:c_sn ())
      ~t:(Ftuple.v ~st:true ~id:t_id ~sn:0 ())
      ~x:(Ftuple.v ~id:t_id ~sn:0 ())
      payload
  in
  let ed =
    let ed_payload = Bytes.make 12 '\000' in
    for i = 0 to 7 do
      Bytes.set ed_payload i (Char.chr (Rng.int o.rng 256))
    done;
    Bytes.set_int32_be ed_payload 8 (Int32.of_int elems);
    Chunk.control ~kind:Ctype.ed
      ~c:(Ftuple.v ~id:conn_id ~sn:c_sn ())
      ~t:(Ftuple.v ~id:t_id ~sn:0 ())
      ~x:Ftuple.zero ed_payload
  in
  match (data, ed) with
  | Ok d, Ok e ->
      o.forged_tpdus <- o.forged_tpdus + 1;
      send o d;
      send o e
  | _ -> ()

let fire_forge o victim =
  let h = victim.Chunk.header in
  if h.Header.c.Ftuple.sn >= 0 then
    fire_forged o ~conn_id:h.Header.c.Ftuple.id ~c_sn:h.Header.c.Ftuple.sn
      ~size:h.Header.size
      (xor_payload victim.Chunk.payload 0xC3)

(* A gateway-style re-split of the victim's range (paper Fig 4) whose
   parts {e overlap}: two forged TPDUs covering [0, k] and [k-1, len),
   each with its own divergent bytes — so they conflict with the real
   data and, in the shared element, with each other. *)
let fire_resplit o victim =
  let h = victim.Chunk.header in
  let len = h.Header.len in
  if len >= 2 && h.Header.c.Ftuple.sn >= 0 then begin
    let size = h.Header.size in
    let conn_id = h.Header.c.Ftuple.id in
    let c_sn = h.Header.c.Ftuple.sn in
    let k = 1 + Rng.int o.rng (len - 1) in
    let part lo n key =
      fire_forged o ~conn_id ~c_sn:(c_sn + lo) ~size
        (xor_payload (Bytes.sub victim.Chunk.payload (lo * size) (n * size)) key)
    in
    o.resplit_chains <- o.resplit_chains + 1;
    part 0 k 0x3C;
    part (k - 1) (len - k + 1) 0xE1
  end

let fire o =
  match pick_victim o with
  | None -> ()
  | Some victim ->
      let enabled =
        (if o.dup then [ `Dup ] else [])
        @ (if o.forge then [ `Forge ] else [])
        @ if o.resplit then [ `Resplit ] else []
      in
      match enabled with
      | [] -> ()
      | _ -> (
          match List.nth enabled (Rng.int o.rng (List.length enabled)) with
          | `Dup -> fire_dup o victim
          | `Forge -> fire_forge o victim
          | `Resplit -> fire_resplit o victim)

let create engine ~seed ~rate ~stop ~dup ~forge ~resplit ~inject () =
  if rate <= 0.0 then invalid_arg "Overlapper.create: rate must be positive";
  let o =
    {
      rng = Rng.create ~seed;
      dup;
      forge;
      resplit;
      inject;
      recent = Array.make ring_capacity None;
      next = 0;
      seen = 0;
      forge_seq = 0;
      injected = 0;
      dup_divergent = 0;
      forged_tpdus = 0;
      resplit_chains = 0;
    }
  in
  Engine.every engine ~rng:o.rng ~rate ~stop (fun () -> fire o);
  o

let stats o =
  {
    injected = o.injected;
    dup_divergent = o.dup_divergent;
    forged_tpdus = o.forged_tpdus;
    resplit_chains = o.resplit_chains;
  }
