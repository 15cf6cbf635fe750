type insert_result = Fresh | Duplicate | Overlap | Inconsistent

(* Received element runs as a sorted list of disjoint, non-adjacent
   (start, len) intervals.  The disorder window keeps this short in
   practice, so list operations are fine. *)
type t = {
  mutable runs : (int * int) list;
  mutable last_sn : int;  (* SN of the final element once ST seen, else [unknown] *)
}

let unknown = -1

let create () = { runs = []; last_sn = unknown }

let covered runs sn len =
  List.exists (fun (s, l) -> s <= sn && sn + len <= s + l) runs

let intersects runs sn len =
  List.exists (fun (s, l) -> sn < s + l && s < sn + len) runs

let add_run runs sn len =
  (* Insert and coalesce with adjacent/overlapping runs. *)
  let rec go = function
    | [] -> [ (sn, len) ]
    | (s, l) :: rest when s + l < sn -> (s, l) :: go rest
    | (s, l) :: rest when sn + len < s -> (sn, len) :: (s, l) :: rest
    | (s, l) :: rest ->
        (* touching or overlapping: fuse and keep going *)
        let lo = min s sn and hi = max (s + l) (sn + len) in
        let fused = (lo, hi - lo) in
        let sn, len = fused in
        let rec absorb sn len = function
          | (s, l) :: rest when s <= sn + len ->
              absorb sn (max (sn + len) (s + l) - sn) rest
          | rest -> (sn, len) :: rest
        in
        absorb sn len rest
  in
  go runs

(* A span is malformed when it is degenerate or when [sn + len] wraps
   past [max_int] (possible for labels decoded from 64-bit wire fields);
   either way it can only come from corruption, so it is reported as
   [Inconsistent] rather than raised on. *)
let bad_span ~sn ~len = sn < 0 || len <= 0 || sn > max_int - len

let max_seen runs =
  List.fold_left (fun acc (s, l) -> Int.max acc (s + l - 1)) (-1) runs

(* Whether a fragment whose last element is [last] (the PDU's end when
   [st]) contradicts what is known: a second, different end, data
   beyond the end, or an end before data already seen. *)
let end_conflict tr ~last ~st =
  if tr.last_sn <> unknown then (st && tr.last_sn <> last) || last > tr.last_sn
  else st && max_seen tr.runs > last

let insert tr ~sn ~len ~st =
  if bad_span ~sn ~len then Inconsistent
  else begin
    let last = sn + len - 1 in
    if end_conflict tr ~last ~st then Inconsistent
    else if covered tr.runs sn len then begin
      if st then tr.last_sn <- last;
      Duplicate
    end
    else if intersects tr.runs sn len then Overlap
    else begin
      tr.runs <- add_run tr.runs sn len;
      if st then tr.last_sn <- last;
      Fresh
    end
  end

let insert_new tr ~sn ~len ~st =
  if bad_span ~sn ~len then Error `Inconsistent
  else begin
    let last = sn + len - 1 in
    if end_conflict tr ~last ~st then Error `Inconsistent
    else begin
      (* Fresh parts = [sn, sn+len) minus every existing run. *)
      let rec subtract lo hi runs acc =
        if lo >= hi then List.rev acc
        else
          match runs with
          | [] -> List.rev ((lo, hi - lo) :: acc)
          | (s, l) :: rest ->
              if s + l <= lo then subtract lo hi rest acc
              else if s >= hi then List.rev ((lo, hi - lo) :: acc)
              else if s <= lo then subtract (max lo (s + l)) hi rest acc
              else subtract (s + l) hi rest ((lo, s - lo) :: acc)
      in
      let fresh = subtract sn (sn + len) tr.runs [] in
      tr.runs <- add_run tr.runs sn len;
      if st then tr.last_sn <- last;
      Ok fresh
    end
  end

let set_total tr total =
  if total < 1 then Error `Inconsistent
  else begin
    let last = total - 1 in
    if tr.last_sn <> unknown then
      if tr.last_sn <> last then Error `Inconsistent else Ok ()
    else if max_seen tr.runs > last then Error `Inconsistent
    else begin
      tr.last_sn <- last;
      Ok ()
    end
  end

let total tr = if tr.last_sn = unknown then None else Some (tr.last_sn + 1)

let received_elems tr = List.fold_left (fun acc (_, l) -> acc + l) 0 tr.runs

let complete tr =
  tr.last_sn <> unknown
  && match tr.runs with [ (0, l) ] -> l = tr.last_sn + 1 | _ -> false

let spans tr = tr.runs

let missing tr =
  let stop = if tr.last_sn = unknown then max_int else tr.last_sn + 1 in
  let rec gaps expect = function
    | [] -> if stop <> max_int && expect < stop then [ (expect, stop - expect) ] else []
    | (s, l) :: rest ->
        if s > expect then (expect, s - expect) :: gaps (s + l) rest
        else gaps (s + l) rest
  in
  gaps 0 tr.runs

module Table = struct
  type tracker = t
  type nonrec t = (int, tracker) Hashtbl.t

  (* Capture single-PDU operations before they are shadowed below. *)
  let new_tracker : unit -> tracker = create
  let tracker_complete : tracker -> bool = complete

  let create () : t = Hashtbl.create 32

  let tracker tbl id =
    match Hashtbl.find_opt tbl id with
    | Some tr -> tr
    | None ->
        let tr = new_tracker () in
        Hashtbl.add tbl id tr;
        tr

  let insert tbl ~id ~sn ~len ~st = insert (tracker tbl id) ~sn ~len ~st

  let insert_chunk tbl chunk =
    let h = chunk.Chunk.header in
    insert tbl ~id:h.Header.t.Ftuple.id ~sn:h.Header.t.Ftuple.sn
      ~len:h.Header.len ~st:h.Header.t.Ftuple.st

  let find tbl ~id = Hashtbl.find_opt tbl id

  let complete tbl ~id =
    match Hashtbl.find_opt tbl id with
    | Some tr -> complete tr
    | None -> false

  let drop tbl ~id = Hashtbl.remove tbl id

  let in_flight tbl = Hashtbl.length tbl

  let completed_ids tbl =
    Hashtbl.fold
      (fun id tr acc -> if tracker_complete tr then id :: acc else acc)
      tbl []
    |> List.sort Int.compare
end
