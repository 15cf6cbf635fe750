type t = {
  q : (unit -> unit) Eventq.t;
  mutable clock : float;
  root_rng : Rng.t;
}

let m_events = Obs.Metrics.counter "netsim_events_total"
let g_depth = Obs.Metrics.gauge "netsim_queue_depth"

let create ?(seed = 0x5EED) () =
  { q = Eventq.create (); clock = 0.0; root_rng = Rng.create ~seed }

let now e = e.clock
let rng e = e.root_rng

let schedule_at e ~time f =
  if time < e.clock then invalid_arg "Engine.schedule_at: time in the past";
  Eventq.push e.q ~time f;
  if Obs.enabled then Obs.Metrics.set g_depth (Eventq.size e.q)

let schedule e ~delay f =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  Eventq.push e.q ~time:(e.clock +. delay) f;
  if Obs.enabled then Obs.Metrics.set g_depth (Eventq.size e.q)

let every e ~rng ~rate ~stop fire =
  let interval = 1.0 /. rate in
  let rec arm () =
    let delay = interval *. (0.5 +. Rng.float rng 1.0) in
    schedule e ~delay (fun () ->
        if e.clock < stop then begin
          fire ();
          arm ()
        end)
  in
  arm ()

let step e =
  match Eventq.pop e.q with
  | None -> false
  | Some (time, f) ->
      e.clock <- time;
      if Obs.enabled then begin
        (* stamp the global clock before dispatch so instrumentation in
           the handler (verifier latency, trace timestamps) reads the
           event's own time *)
        Obs.now := time;
        Obs.Metrics.incr m_events;
        Obs.Metrics.set g_depth (Eventq.size e.q)
      end;
      f ();
      true

let run ?until e =
  let keep_going () =
    match (Eventq.peek_time e.q, until) with
    | None, _ -> false
    | Some _, None -> true
    | Some t, Some stop -> t <= stop
  in
  while keep_going () do
    ignore (step e)
  done

let pending e = Eventq.size e.q
