type key = { conn : int; tpdu : int }

(* A float cell of its own: a record of floats only is stored flat, so
   refreshing a deadline writes the float in place instead of boxing
   it. *)
type deadline = { mutable at : float }

(* A connection's entries form a doubly linked list, headed from
   [by_conn], so that [remove_conn] visits only that connection's
   entries; [nil] ends a list. *)
type entry = {
  mutable bytes : int;
  deadline : deadline;
  mutable cls : int;
  tpdu : int;
  mutable prev : entry;
  mutable next : entry;
}

let rec nil =
  { bytes = 0; deadline = { at = 0.0 }; cls = 0; tpdu = -1; prev = nil;
    next = nil }

type stats = {
  accounted_bytes : int;
  high_water : int;
  entries : int;
  evictions_deadline : int;
  evictions_budget : int;
}

type t = {
  budget : int;  (* <= 0: unlimited *)
  ttl : float;
  tbl : (key, entry) Hashtbl.t;
  by_conn : (int, entry) Hashtbl.t;  (* conn -> head of its entries *)
  mutable on_evict : key -> unit;
  mutable total : int;
  mutable high : int;
  mutable ev_deadline : int;
  mutable ev_budget : int;
  mutable armed : bool;
}

(* The occupancy gauge is set only {e after} budget enforcement, so its
   high-water mark can never exceed the budget — the invariant the
   conformance oracle's [metrics-occupancy] check asserts. *)
let g_occ = Obs.Metrics.gauge "governor_occupancy_bytes"
let g_budget = Obs.Metrics.gauge "governor_budget_bytes"
let m_entry_bytes = Obs.Metrics.histogram "governor_entry_bytes"
let m_ev_budget = Obs.Metrics.counter "governor_evictions_budget_total"
let m_ev_deadline = Obs.Metrics.counter "governor_evictions_deadline_total"

let trace_evict reason (k : key) =
  if Obs.Trace.active () then
    Obs.Trace.record
      (Obs.Trace.Evict { conn = k.conn; tpdu = k.tpdu; reason })

let create ?(on_evict = fun _ -> ()) ~budget_bytes ~ttl () =
  if Obs.enabled then Obs.Metrics.set g_budget (max 0 budget_bytes);
  {
    budget = budget_bytes;
    ttl;
    tbl = Hashtbl.create 64;
    by_conn = Hashtbl.create 16;
    on_evict;
    total = 0;
    high = 0;
    ev_deadline = 0;
    ev_budget = 0;
    armed = false;
  }

let set_on_evict g f = g.on_evict <- f

let over_budget g = g.budget > 0 && g.total > g.budget

(* Budget victim: the most sheddable class first (higher [cls] rank,
   see {!Significance.rank}), and within a class the oldest deadline =
   least recently refreshed — the entry a delta-t lifecycle would let
   die first.  With every entry at the default class 0 this degenerates
   to pure oldest-deadline, the pre-significance behaviour. *)
let oldest g =
  Hashtbl.fold
    (fun k (e : entry) best ->
      match best with
      | Some (_, d, c) when c > e.cls || (c = e.cls && d <= e.deadline.at) ->
          best
      | _ -> Some (k, e.deadline.at, e.cls))
    g.tbl None

let add g (k : key) ~bytes ~now ~cls =
  let e =
    { bytes; deadline = { at = now +. g.ttl }; cls; tpdu = k.tpdu; prev = nil;
      next = nil }
  in
  Hashtbl.add g.tbl k e;
  (match Hashtbl.find_opt g.by_conn k.conn with
  | Some head ->
      e.next <- head;
      head.prev <- e
  | None -> ());
  Hashtbl.replace g.by_conn k.conn e

let drop g k =
  match Hashtbl.find g.tbl k with
  | exception Not_found -> ()
  | e ->
      g.total <- g.total - e.bytes;
      Hashtbl.remove g.tbl k;
      if e.prev != nil then e.prev.next <- e.next
      else if e.next != nil then Hashtbl.replace g.by_conn k.conn e.next
      else Hashtbl.remove g.by_conn k.conn;
      if e.next != nil then e.next.prev <- e.prev

let touch_class g ~cls ~key ~bytes ~now =
  let bytes = max 0 bytes in
  let cls = max 0 cls in
  (match Hashtbl.find g.tbl key with
  | e ->
      g.total <- g.total - e.bytes + bytes;
      e.bytes <- bytes;
      e.deadline.at <- now +. g.ttl;
      e.cls <- cls
  | exception Not_found ->
      add g key ~bytes ~now ~cls;
      g.total <- g.total + bytes);
  (* Budget enforcement is synchronous: collect victims first so the
     disposal callbacks (which may remove further entries, e.g. a whole
     connection's TPDUs) never run under the selection loop. *)
  let victims = ref [] in
  while over_budget g do
    match oldest g with
    | None -> g.total <- 0 (* unreachable: total > 0 implies an entry *)
    | Some (k, _, _) ->
        drop g k;
        g.ev_budget <- g.ev_budget + 1;
        victims := k :: !victims
  done;
  if g.total > g.high then g.high <- g.total;
  if Obs.enabled then begin
    Obs.Metrics.observe m_entry_bytes bytes;
    Obs.Metrics.set g_occ g.total;
    List.iter
      (fun k ->
        Obs.Metrics.incr m_ev_budget;
        trace_evict "budget" k)
      !victims
  end;
  List.iter g.on_evict (List.rev !victims)

let touch ?(cls = 0) g ~key ~bytes ~now = touch_class g ~cls ~key ~bytes ~now

let remove g ~key =
  drop g key;
  if Obs.enabled then Obs.Metrics.set g_occ g.total

let remove_conn g ~conn =
  let rec go e =
    if e != nil then begin
      g.total <- g.total - e.bytes;
      Hashtbl.remove g.tbl { conn; tpdu = e.tpdu };
      go e.next
    end
  in
  (match Hashtbl.find_opt g.by_conn conn with
  | Some head ->
      Hashtbl.remove g.by_conn conn;
      go head
  | None -> ());
  if Obs.enabled then Obs.Metrics.set g_occ g.total

let mem g ~key = Hashtbl.mem g.tbl key

let next_deadline g =
  Hashtbl.fold
    (fun _ (e : entry) best ->
      match best with
      | Some d when d <= e.deadline.at -> best
      | _ -> Some e.deadline.at)
    g.tbl None

let sweep g ~now =
  let due =
    Hashtbl.fold
      (fun k (e : entry) acc -> if e.deadline.at <= now then k :: acc else acc)
      g.tbl []
  in
  List.iter (drop g) due;
  g.ev_deadline <- g.ev_deadline + List.length due;
  if Obs.enabled then begin
    Obs.Metrics.set g_occ g.total;
    List.iter
      (fun k ->
        Obs.Metrics.incr m_ev_deadline;
        trace_evict "deadline" k)
      due
  end;
  List.iter g.on_evict due

let rec arm g engine =
  if not g.armed then
    match next_deadline g with
    | None -> ()
    | Some d ->
        g.armed <- true;
        let now = Netsim.Engine.now engine in
        Netsim.Engine.schedule engine
          ~delay:(Float.max 0.0 (d -. now))
          (fun () ->
            g.armed <- false;
            sweep g ~now:(Netsim.Engine.now engine);
            arm g engine)

let total g = g.total
let high_water g = g.high

let stats g =
  {
    accounted_bytes = g.total;
    high_water = g.high;
    entries = Hashtbl.length g.tbl;
    evictions_deadline = g.ev_deadline;
    evictions_budget = g.ev_budget;
  }
