type t = { id : int; sn : int; st : bool }

let max_id = 0xFFFF_FFFF

let check_id id =
  if id < 0 || id > max_id then invalid_arg "Ftuple.v: id out of range"

let v ?(st = false) ~id ~sn () =
  check_id id;
  if sn < 0 then invalid_arg "Ftuple.v: negative sn";
  { id; sn; st }

let zero = { id = 0; sn = 0; st = false }

let advance u n =
  if n < 0 then invalid_arg "Ftuple.advance: negative step";
  { u with sn = u.sn + n; st = false }

let with_st u st = { u with st }

let follows a ~len b = a.id = b.id && a.sn + len = b.sn

let equal a b = a.id = b.id && a.sn = b.sn && a.st = b.st

let compare a b =
  match Int.compare a.id b.id with
  | 0 -> (
      match Int.compare a.sn b.sn with
      | 0 -> Bool.compare a.st b.st
      | c -> c)
  | c -> c

let pp fmt u =
  Format.fprintf fmt "(id=%d, sn=%d, st=%d)" u.id u.sn (if u.st then 1 else 0)
