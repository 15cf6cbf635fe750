open Labelling

type t = {
  rng : Netsim.Rng.t;
  legit_conns : int list;
  bogus_conns : int;
  elem_size : int;
  inject : bytes -> unit;
  mutable injected : int;
}

(* Bogus connection ids live far above any legitimate C.ID; forged
   T.IDs live far above any T.ID a legitimate sender epoch uses. *)
let bogus_conn_base = 100_000
let bogus_tid_base = 500_000

let send a chunk =
  match Wire.encode_packet [ chunk ] with
  | Error _ -> ()
  | Ok b ->
      a.injected <- a.injected + 1;
      a.inject b

let pick_legit a =
  match a.legit_conns with
  | [] -> 1
  | l -> List.nth l (Netsim.Rng.int a.rng (List.length l))

let forged_data_chunk a ~conn_id ~t_id =
  let payload = Bytes.make a.elem_size '\xA5' in
  let sn = Netsim.Rng.int a.rng 1024 in
  match
    Chunk.data ~size:a.elem_size
      ~c:(Ftuple.v ~id:conn_id ~sn ())
      ~t:(Ftuple.v ~id:t_id ~sn:(Netsim.Rng.int a.rng 16) ())
      ~x:(Ftuple.v ~id:t_id ~sn ())
      payload
  with
  | Ok c -> Some c
  | Error _ -> None

let fire a =
  match Netsim.Rng.int a.rng 5 with
  | 0 ->
      (* forged Open: a connection nobody will ever send data on — the
         receiver's admission and stale-connection GC must absorb it *)
      let cid = bogus_conn_base + Netsim.Rng.int a.rng a.bogus_conns in
      send a (Connection.signal_chunk ~conn_id:cid (Open { first_csn = 0 }))
  | 1 ->
      (* data for a connection that was never established: must be
         refused at the door (establishment precedes data) *)
      let cid = bogus_conn_base + Netsim.Rng.int a.rng a.bogus_conns in
      Option.iter (send a)
        (forged_data_chunk a ~conn_id:cid ~t_id:(Netsim.Rng.int a.rng 64))
  | 2 | 3 ->
      (* the state-exhaustion attack: a partial TPDU on a {e legitimate}
         connection that will never complete — its ED chunk never comes,
         so only the budget/deadline governor can reclaim it.  Label
         corroboration keeps it out of the placement buffer. *)
      let cid = pick_legit a in
      let t_id = bogus_tid_base + Netsim.Rng.int a.rng 4096 in
      Option.iter (send a) (forged_data_chunk a ~conn_id:cid ~t_id)
  | _ ->
      (* forged abort for a random (usually live) TPDU: at worst the
         receiver re-collects the state from the next retransmission *)
      let cid = pick_legit a in
      let t_id = Netsim.Rng.int a.rng 64 in
      send a (Connection.signal_chunk ~conn_id:cid (Abort_tpdu { t_id }))

let create engine ~seed ~rate ~stop ~legit_conns ~bogus_conns ~elem_size
    ~inject () =
  if rate <= 0.0 then invalid_arg "Adversary.create: rate must be positive";
  let a =
    {
      rng = Netsim.Rng.create ~seed;
      legit_conns;
      bogus_conns = max 1 bogus_conns;
      elem_size;
      inject;
      injected = 0;
    }
  in
  Netsim.Engine.every engine ~rng:a.rng ~rate ~stop (fun () -> fire a);
  a

let injected a = a.injected
