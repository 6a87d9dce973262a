let c_analyses = Obs.counter "slack.bf_analyses"

let analyze tdfg ~clock ~del =
  Obs.incr c_analyses;
  (* The fixpoint scans each edge list at least once in both directions;
     charge the deterministic lower bound rather than the solver's scan
     counter, which races across explore domains. *)
  Attrib.charge_touched (2 * Timed_dfg.edge_count tdfg);
  if clock <= 0.0 then invalid_arg "Bf_timing.analyze: clock must be positive";
  let n = Dfg.op_count (Timed_dfg.dfg tdfg) in
  let pred = Timed_dfg.pred_csr tdfg and succ = Timed_dfg.succ_csr tdfg in
  (* Node numbering: the timed DFG's slots (op i -> i, its sink -> n + i). *)
  let node_del u = if u < n then del (Dfg.Op_id.of_int u) else 0.0 in
  let fwd = ref [] and bwd = ref [] in
  let fwd_sources = ref [] and bwd_sources = ref [] in
  Array.iter
    (fun u ->
      let first = succ.Timed_dfg.off.(u) and last = succ.Timed_dfg.off.(u + 1) in
      if pred.Timed_dfg.off.(u) = pred.Timed_dfg.off.(u + 1) then
        fwd_sources := u :: !fwd_sources;
      if first = last then bwd_sources := u :: !bwd_sources;
      for k = first to last - 1 do
        let v = succ.Timed_dfg.nbr.(k) in
        let weight = node_del u -. (clock *. float_of_int succ.Timed_dfg.lat.(k)) in
        fwd := { Bellman_ford.src = u; dst = v; weight } :: !fwd;
        bwd := { Bellman_ford.src = v; dst = u; weight } :: !bwd
      done)
    (Timed_dfg.topo_slots tdfg);
  let solve edges sources =
    match Bellman_ford.solve ~shuffle_seed:0x5eed ~node_count:(2 * n) ~edges ~sources () with
    | Bellman_ford.Solution dist -> dist
    | Bellman_ford.Positive_cycle _ ->
      (* The timed DFG is acyclic by construction; a positive cycle would
         mean a structural bug upstream. *)
      failwith "Bf_timing.analyze: unexpected cycle in timed DFG"
  in
  let arr_all = solve !fwd !fwd_sources in
  let lateness = solve !bwd !bwd_sources in
  let arr = Array.make n nan and req = Array.make n nan and slack = Array.make n nan in
  let min_slack = ref infinity in
  Array.iter
    (fun i ->
      arr.(i) <- arr_all.(i);
      req.(i) <- clock -. lateness.(i);
      slack.(i) <- req.(i) -. arr.(i);
      if slack.(i) < !min_slack then min_slack := slack.(i))
    (Timed_dfg.active_slots tdfg);
  { Slack.arr; req; slack; min_slack = !min_slack }
