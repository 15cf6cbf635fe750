let data_limit_symbols = 16384
let tid_position = 16384
let cid_position = 16385
let cst_position = 16386

let xpair_base = 16387

let xpair_position ~boundary_t_sn =
  if boundary_t_sn < 0 then invalid_arg "Invariant.xpair_position";
  (2 * boundary_t_sn) + xpair_base

let symbols_per_element ~size = (size + 3) / 4

let size_error ~size =
  if size < 4 then Some "Invariant: element size must be >= 4 bytes"
  else if size mod 4 <> 0 then
    Some "Invariant: element size must be a multiple of 4"
  else None

let check_size ~size =
  match size_error ~size with Some msg -> Error msg | None -> Ok (size / 4)

let data_position ~size ~t_sn =
  match check_size ~size with
  | Error _ as e -> e
  | Ok spw ->
      let pos = t_sn * spw in
      if t_sn < 0 then Error "Invariant: negative T.SN"
      else if pos + spw > data_limit_symbols then
        Error "Invariant: TPDU data exceeds 16384 symbols"
      else Ok pos

let max_tpdu_elems ~size =
  match check_size ~size with
  | Error _ -> 0
  | Ok spw -> data_limit_symbols / spw
