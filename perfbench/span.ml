(* In-memory spans for the traced run: one per call the benchmark makes
   into a layer's public function (a whole replay pass counts as one
   span carrying its call count).  Kept in memory and written out as
   JSON lines when the run ends. *)

type t = {
  id : int;
  parent : int;  (** 0 for a root span *)
  name : string;
  t0 : float;  (** monotonic ns *)
  t1 : float;
  count : int;  (** calls the span covers *)
}

let spans : t list ref = ref []
let next = ref 0

let fresh () =
  incr next;
  !next

let record ~id ~parent ~name ~t0 ~t1 ~count =
  spans := { id; parent; name; t0; t1; count } :: !spans

(* [around ~parent ~name f] runs [f id] inside a new span [id]. *)
let around ~parent ~name f =
  let id = fresh () in
  let t0 = Clock.now_ns () in
  let r = f id in
  record ~id ~parent ~name ~t0 ~t1:(Clock.now_ns ()) ~count:1;
  r

let duration s = s.t1 -. s.t0

(* Per name: spans, calls, total and self time (duration minus the part
   covered by child spans), in ns. *)
let summary () =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let prev = Option.value (Hashtbl.find_opt child s.parent) ~default:0.0 in
      Hashtbl.replace child s.parent (prev +. duration s))
    !spans;
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let self = duration s -. Option.value (Hashtbl.find_opt child s.id) ~default:0.0 in
      let n, c, tot, sf =
        Option.value (Hashtbl.find_opt by_name s.name) ~default:(0, 0, 0.0, 0.0)
      in
      Hashtbl.replace by_name s.name (n + 1, c + s.count, tot +. duration s, sf +. self))
    !spans;
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) by_name []
  |> List.sort compare

let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":%S,\"start_ns\":%.0f,\"end_ns\":%.0f,\
         \"count\":%d}\n"
        s.id s.parent s.name s.t0 s.t1 s.count)
    (List.rev !spans);
  close_out oc
