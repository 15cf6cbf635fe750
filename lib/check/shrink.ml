type result = {
  schedule : Schedule.t;
  violations : Oracle.violation list;
  runs : int;
}

(* Simplifying rewrites, roughly ordered by how much schedule they
   delete.  Each is [None] when it would not change anything. *)
let transforms (s : Schedule.t) : Schedule.t list =
  (* [s] with the field [name] reset to its neutral value; [also]
     resets a second field alongside the first *)
  let reset name = Schedule.neutral name s in
  let also name s = Option.value (Schedule.neutral name s) ~default:s in
  let t cond v = if cond then Some v else None in
  let base =
    (* robustness machinery first — deleting a whole adversary or
       outage removes the most schedule at once *)
    [
      Option.map (also "snap_period") (reset "crashes");
      (if s.crashes <> [] then reset "snap_period" else None);
    ]
    @ List.map reset [ "flood"; "byz"; "overlap"; "outage"; "shed" ]
    @ [ Option.map (also "give_up_txs") (reset "ack_blackhole") ]
    @ List.map reset
        [
          "connections"; "reopen"; "fastpath"; "rto_adaptive"; "state_budget";
          "corrupt"; "loss"; "duplicate"; "dropper"; "jitter"; "skew"; "paths";
          "spread"; "sack"; "adaptive"; "window";
        ]
    @ [
        t (s.data_len > 8) { s with data_len = s.data_len / 2 };
        t
          (s.frame_bytes > 8 * s.elem_size)
          {
            s with
            frame_bytes = s.elem_size * (s.frame_bytes / s.elem_size / 2);
          };
      ]
  in
  (* Dropping crashes one at a time keeps a counterexample that needs,
     say, only the second crash-restart replayable (the remaining crash
     list stays ordered and non-overlapping by construction). *)
  let drop_crashes =
    List.mapi
      (fun i _ ->
        Some { s with crashes = List.filteri (fun j _ -> j <> i) s.crashes })
      s.crashes
  in
  let drop_gateways =
    List.mapi
      (fun i _ ->
        Some { s with gateways = List.filteri (fun j _ -> j <> i) s.gateways })
      s.gateways
  in
  (* Disarming one byzantine mode at a time (or dropping to one byz
     connection, or halving the flap rate) isolates which behaviour the
     counterexample actually needs. *)
  let shrink_byz =
    match s.byz with
    | None -> []
    | Some b ->
        let w cond v = t cond { s with byz = Some v } in
        Schedule.
          [
            w b.bz_acks { b with bz_acks = false };
            w b.bz_sheds { b with bz_sheds = false };
            w b.bz_replay { b with bz_replay = false };
            w b.bz_garbage { b with bz_garbage = false };
            w (b.bz_conns > 1) { b with bz_conns = 1 };
            w (b.bz_rate > 50.0) { b with bz_rate = b.bz_rate /. 2.0 };
          ]
  in
  let unbatch =
    t
      (List.exists (fun g -> g.Schedule.gw_batch > 1) s.gateways)
      {
        s with
        gateways =
          List.map (fun g -> { g with Schedule.gw_batch = 1 }) s.gateways;
      }
  in
  List.filter_map Fun.id
    (base @ shrink_byz @ drop_crashes @ drop_gateways @ [ unbatch ])

let still_violating ?mutation s =
  let model = Model.of_schedule s in
  let observation = Driver.run ?mutation s in
  Oracle.check ~schedule:s ~model ~observation

(* Greedy fixpoint: keep the first simplification that preserves {e a}
   violation (not necessarily the same code — a simpler schedule that
   still breaks the stack is a better counterexample), restart from it,
   stop when nothing applies or the run budget is gone. *)
let shrink ?mutation ?(max_runs = 200) (s : Schedule.t)
    (violations : Oracle.violation list) =
  let runs = ref 0 in
  let rec go s violations =
    let rec try_transforms = function
      | [] -> { schedule = s; violations; runs = !runs }
      | candidate :: rest ->
          if !runs >= max_runs then { schedule = s; violations; runs = !runs }
          else begin
            incr runs;
            match still_violating ?mutation candidate with
            | [] -> try_transforms rest
            | vs -> go candidate vs
          end
    in
    try_transforms (transforms s)
  in
  go s violations
