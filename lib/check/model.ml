type t = {
  elems : int;
  elem_size : int;
  n_tpdus : int;
  expected : bytes;
  streams : (int * bytes list) list;
}

(* Mirrors [Framer]'s cutting rules without running the framer (through
   [Schedule.n_elems]): each frame is padded to a whole element,
   elements accumulate on the connection, and a TPDU boundary falls
   every [tpdu_elems] elements plus once at the end of the stream. *)
let of_schedule (s : Schedule.t) =
  let elems = Schedule.n_elems s and n_tpdus = Schedule.n_tpdus s in
  let pad data =
    let b = Bytes.make (elems * s.elem_size) '\000' in
    Bytes.blit data 0 b 0 s.data_len;
    b
  in
  (* Every legitimate connection carries one stream per epoch; only
     connection 1 gets a second epoch, and only when the schedule
     re-opens it. *)
  let streams =
    List.init s.Schedule.connections (fun i ->
        let conn = i + 1 in
        let epochs = if conn = 1 && s.Schedule.reopen then 2 else 1 in
        ( conn,
          List.init epochs (fun epoch ->
              pad (Schedule.data_of_conn s ~conn ~epoch)) ))
  in
  let expected = pad (Schedule.data_of s) in
  { elems; elem_size = s.elem_size; n_tpdus; expected; streams }

(* The element span a fixed (non-adaptive) framer gives TPDU [t_id]:
   [tpdu_elems] each, the last one truncated to the stream end. *)
let tpdu_span m (s : Schedule.t) ~t_id =
  if t_id < 0 || t_id >= m.n_tpdus then None
  else
    let first = t_id * s.Schedule.tpdu_elems in
    Some (first, min s.Schedule.tpdu_elems (m.elems - first))

(* The element runs the shed contract permits to be missing: the spans
   of every sheddable T.ID.  Everything outside them must be delivered
   byte-exactly whatever the sender sheds. *)
let sheddable_spans m (s : Schedule.t) =
  List.filter_map
    (fun t_id ->
      if Schedule.sheddable_tid s ~t_id then tpdu_span m s ~t_id else None)
    (List.init m.n_tpdus (fun i -> i))
