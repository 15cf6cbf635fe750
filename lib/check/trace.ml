type t = {
  capacity : int;
  events : (float * string) array;
  mutable count : int;  (* total events ever recorded *)
}

let create ?(capacity = 2048) () =
  if capacity < 1 then invalid_arg "Trace.create: capacity < 1";
  { capacity; events = Array.make capacity (0.0, ""); count = 0 }

let add t ~time event =
  t.events.(t.count mod t.capacity) <- (time, event);
  t.count <- t.count + 1

let dropped t = max 0 (t.count - t.capacity)

let events t =
  let kept = min t.count t.capacity in
  let first = t.count - kept in
  List.init kept (fun i -> t.events.((first + i) mod t.capacity))

let pp fmt t =
  if dropped t > 0 then
    Format.fprintf fmt "... %d earlier events dropped ...@." (dropped t);
  List.iter
    (fun (time, ev) -> Format.fprintf fmt "%12.6f  %s@." time ev)
    (events t)
