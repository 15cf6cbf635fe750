type level = Conn | Tpdu | External

type kind = Verified_conflict | Fresh_conflict

type report = {
  rp_fresh : (int * int) list;
  rp_benign : (int * int) list;
  rp_conflicts : (int * int * kind) list;
}

type overlap_stats = {
  os_conflicts_seen : int;
  os_conflicts_rejected : int;
  os_quarantined : int;
  os_verified_overwrites : int;
}

type t = {
  level : level;
  base_sn : int;
  elem_size : int;
  capacity_elems : int;
  buf : bytes;
  occ : bytes;
      (* one byte per element: 0 = empty, 1 = placed (covered by a
         placed or restored run), 2 = marked only by [lock_span] *)
  lck : bytes;  (* one byte per element: the data is verified-locked *)
  mutable placed : int;  (* elements whose [occ] byte is 1 *)
  mutable lock_only : int;  (* elements whose [occ] byte is 2 *)
  mutable conflicts_seen : int;
  mutable conflicts_rejected : int;
  mutable quarantined : int;
  mutable verified_overwrites : int;
}

let create ~level ~base_sn ~capacity_elems ~elem_size =
  if capacity_elems < 1 || elem_size < 1 then
    invalid_arg "Placement.create: bad dimensions";
  {
    level;
    base_sn;
    elem_size;
    capacity_elems;
    buf = Bytes.make (capacity_elems * elem_size) '\000';
    occ = Bytes.make capacity_elems '\000';
    lck = Bytes.make capacity_elems '\000';
    placed = 0;
    lock_only = 0;
    conflicts_seen = 0;
    conflicts_rejected = 0;
    quarantined = 0;
    verified_overwrites = 0;
  }

let sn_of p (c : Chunk.t) =
  let h = c.Chunk.header in
  match p.level with
  | Conn -> h.Header.c.Ftuple.sn
  | Tpdu -> h.Header.t.Ftuple.sn
  | External -> h.Header.x.Ftuple.sn

let occupied p e = Bytes.get p.occ e <> '\000'
let is_locked p e = Bytes.get p.lck e <> '\000'

(* Do element [e] of the buffer and the element at byte [pos] of [src]
   hold the same bytes? *)
let same p src pos e =
  let es = p.elem_size in
  let b = e * es in
  let k = ref 0 in
  while !k < es && Bytes.get src (pos + !k) = Bytes.get p.buf (b + !k) do
    incr k
  done;
  !k = es

(* Mark [sn, sn+len) as covered by a placed or restored run, once its
   bytes are in: every element counts as placed from here on, lock-only
   marks included. *)
let cover p ~sn ~len =
  for e = sn to sn + len - 1 do
    match Bytes.get p.occ e with
    | '\000' ->
        Bytes.set p.occ e '\001';
        p.placed <- p.placed + 1
    | '\002' ->
        Bytes.set p.occ e '\001';
        p.placed <- p.placed + 1;
        p.lock_only <- p.lock_only - 1
    | _ -> ()
  done

(* What happened to one element, as reported: written (fresh or
   reclaimed from a squatter), a benign duplicate, discarded against
   verified bytes, or held for quarantine. *)
type outcome = Written | Benign | Rejected | Held

(* The first-verified-wins policy over the element run [sn, sn+len)
   whose bytes start at [src.[pos]].  [verified] marks a write made on
   behalf of a TPDU whose WSC-2 parity has already passed; such a write
   may reclaim bytes from an unverified squatter but must never touch a
   locked (verified) region that disagrees with it.

   Outcomes are tracked run-length: the current run is a start, a length
   and a class, and a list cell is consed only when a run ends.  Each
   maximal unoccupied stretch is written with one blit. *)
let apply p ~sn ~len ~src ~pos ~verified ~conn ~tpdu =
  let es = p.elem_size in
  let stop = sn + len in
  let fresh = ref [] and benign = ref [] and conflicts = ref [] in
  let close k s l =
    if l > 0 then
      match k with
      | Written -> fresh := (s, l) :: !fresh
      | Benign -> benign := (s, l) :: !benign
      | Rejected -> conflicts := (s, l, Verified_conflict) :: !conflicts
      | Held -> conflicts := (s, l, Fresh_conflict) :: !conflicts
  in
  let run_s = ref sn and run_l = ref 0 and run_k = ref Written in
  let e = ref sn in
  while !e < stop do
    let e0 = !e in
    let at = pos + ((e0 - sn) * es) in
    let k =
      if not (occupied p e0) then begin
        let e1 = ref (e0 + 1) in
        while !e1 < stop && not (occupied p !e1) do
          incr e1
        done;
        let n = !e1 - e0 in
        Bytes.blit src at p.buf (e0 * es) (n * es);
        Bytes.fill p.occ e0 n '\001';
        p.placed <- p.placed + n;
        e := !e1;
        Written
      end
      else begin
        e := e0 + 1;
        if same p src at e0 then Benign
        else if is_locked p e0 then begin
          (* the resident bytes are WSC-2-verified: the newcomer is
             counted, traced and discarded — whoever verified first owns
             the bytes *)
          p.conflicts_seen <- p.conflicts_seen + 1;
          p.conflicts_rejected <- p.conflicts_rejected + 1;
          if verified then p.verified_overwrites <- p.verified_overwrites + 1;
          Rejected
        end
        else if verified then begin
          (* a verified newcomer reclaims bytes an unverified squatter
             wrote *)
          p.conflicts_seen <- p.conflicts_seen + 1;
          Bytes.blit src at p.buf (e0 * es) es;
          Written
        end
        else begin
          (* neither side is verified yet: leave the resident bytes
             alone and report the run so the caller can quarantine the
             newcomer until a parity settles the dispute *)
          p.conflicts_seen <- p.conflicts_seen + 1;
          p.quarantined <- p.quarantined + 1;
          Held
        end
      end
    in
    if k <> !run_k then begin
      close !run_k !run_s !run_l;
      run_k := k;
      run_s := e0;
      run_l := 0
    end;
    run_l := !run_l + (!e - e0)
  done;
  close !run_k !run_s !run_l;
  (* overlap-tolerant accounting: every covered element counts once,
     however the covering runs arrive; the loop left every element
     occupied, so only lock-only marks can still need counting *)
  if p.lock_only > 0 then cover p ~sn ~len;
  let conflicts = List.rev !conflicts in
  if conflicts <> [] && Obs.enabled && Obs.Trace.active () then
    List.iter
      (fun (s, l, k) ->
        Obs.Trace.record
          (Obs.Trace.Overlap
             {
               conn;
               tpdu;
               sn = s + p.base_sn;
               elems = l;
               kind =
                 (match k with
                 | Verified_conflict ->
                     if verified then "verified-clash" else "verified-conflict"
                 | Fresh_conflict -> "fresh-conflict");
             }))
      conflicts;
  {
    rp_fresh = List.rev !fresh;
    rp_benign = List.rev !benign;
    rp_conflicts = conflicts;
  }

(* The one entry point every placement goes through: [len] elements of
   [size] bytes starting at [src.[off]], labelled [sn] at the
   placement's level. *)
let slice op p ~verified ~size ~sn ~conn ~tpdu src ~off ~len =
  if size <> p.elem_size then
    Error (Printf.sprintf "Placement.%s: element size mismatch" op)
  else begin
    let sn = sn - p.base_sn in
    (* [sn > capacity - len] rather than [sn + len > capacity]: a decoded
       SN can be close to [max_int], where the addition wraps negative
       and would sail past the window check into Bytes.blit. *)
    if len < 1 || sn < 0 || len > p.capacity_elems || sn > p.capacity_elems - len
    then Error (Printf.sprintf "Placement.%s: outside destination window" op)
    else if off < 0 || off > Bytes.length src - (len * size) then
      Error (Printf.sprintf "Placement.%s: source slice out of bounds" op)
    else Ok (apply p ~sn ~len ~src ~pos:off ~verified ~conn ~tpdu)
  end

let place_slice p ~verified ~sn ~size ~conn ~tpdu src ~off ~len =
  slice "place_slice" p ~verified ~size ~sn ~conn ~tpdu src ~off ~len

let checked op p chunk ~verified =
  if not (Chunk.is_data chunk) then
    Error (Printf.sprintf "Placement.%s: not a data chunk" op)
  else
    let h = chunk.Chunk.header in
    slice op p ~verified ~size:h.Header.size ~sn:(sn_of p chunk)
      ~conn:h.Header.c.Ftuple.id ~tpdu:h.Header.t.Ftuple.id
      chunk.Chunk.payload ~off:0 ~len:h.Header.len

let place_checked p chunk = checked "place" p chunk ~verified:false
let place p chunk = Result.map (fun (_ : report) -> ()) (place_checked p chunk)
let place_verified p chunk = checked "place_verified" p chunk ~verified:true

let lock_span p ~sn ~len =
  if sn >= 0 && len > 0 && len <= p.capacity_elems
     && sn <= p.capacity_elems - len
  then begin
    Bytes.fill p.lck sn len '\001';
    (* locked implies occupied: verified bytes are content, whatever a
       snapshot restored around them.  An element no run covered gets
       its own mark, so [spans] keeps meaning the placed runs. *)
    for e = sn to sn + len - 1 do
      if Bytes.get p.occ e = '\000' then begin
        Bytes.set p.occ e '\002';
        p.lock_only <- p.lock_only + 1
      end
    done
  end

(* Maximal element runs whose placed-ness ([occ] byte 1) is [placed],
   ascending; built back to front so no reversal is needed. *)
let runs p ~placed =
  let acc = ref [] and e = ref (p.capacity_elems - 1) in
  while !e >= 0 do
    let hi = !e in
    let here = Bytes.get p.occ hi = '\001' in
    while !e >= 0 && (Bytes.get p.occ !e = '\001') = here do
      decr e
    done;
    if here = placed then acc := (!e + 1, hi - !e) :: !acc
  done;
  !acc

let spans p = runs p ~placed:true

let restore_span p ~sn data =
  let n = Bytes.length data in
  if n = 0 || n mod p.elem_size <> 0 then
    Error "Placement.restore_span: not a whole number of elements"
  else begin
    let len = n / p.elem_size in
    if sn < 0 || len > p.capacity_elems || sn > p.capacity_elems - len then
      Error "Placement.restore_span: outside destination window"
    else begin
      Bytes.blit data 0 p.buf (sn * p.elem_size) n;
      cover p ~sn ~len;
      Ok ()
    end
  end

let placed_elems p = p.placed

let is_full p = p.placed = p.capacity_elems

let contents p = p.buf

let overlap_stats p =
  {
    os_conflicts_seen = p.conflicts_seen;
    os_conflicts_rejected = p.conflicts_rejected;
    os_quarantined = p.quarantined;
    os_verified_overwrites = p.verified_overwrites;
  }

let zero_overlap_stats =
  {
    os_conflicts_seen = 0;
    os_conflicts_rejected = 0;
    os_quarantined = 0;
    os_verified_overwrites = 0;
  }

let add_overlap_stats a b =
  {
    os_conflicts_seen = a.os_conflicts_seen + b.os_conflicts_seen;
    os_conflicts_rejected = a.os_conflicts_rejected + b.os_conflicts_rejected;
    os_quarantined = a.os_quarantined + b.os_quarantined;
    os_verified_overwrites =
      a.os_verified_overwrites + b.os_verified_overwrites;
  }

let holes p = runs p ~placed:false
