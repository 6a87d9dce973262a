type mismatch = {
  mport : string;
  iteration : int;
  expected : int;
  got : int;
}

type result = {
  iterations : int;
  checked_values : int;
  mismatches : mismatch list;
}

(* Deterministic per-(port, index) stimulus so both simulators observe the
   same streams regardless of consumption interleaving. *)
let stimulus ~seed =
  let cache = Hashtbl.create 64 in
  fun port k ->
    match Hashtbl.find_opt cache (port, k) with
    | Some v -> v
    | None ->
      let h = Hashtbl.hash (seed, port, k) in
      let rng = Splitmix.create h in
      let v = Int64.to_int (Int64.logand (Splitmix.next_int64 rng) 0x3FFFFFFFFFFFFFFFL) in
      Hashtbl.replace cache (port, k) v;
      v

let check ?schedule ?(iterations = 32) ?(seed = 1) (elab : Elaborate.t) =
  let inputs = stimulus ~seed in
  let reference = Behav_sim.run elab.Elaborate.process ~iterations ~inputs in
  let dut = Dfg_sim.run ?schedule elab ~iterations ~inputs in
  let checked = ref 0 and mismatches = ref [] in
  List.iter
    (fun (port, expected_trace) ->
      let got_trace = Option.value ~default:[] (List.assoc_opt port dut) in
      let rec cmp i es gs =
        match (es, gs) with
        | [], [] -> ()
        | e :: es', g :: gs' ->
          incr checked;
          if e <> g then
            mismatches := { mport = port; iteration = i; expected = e; got = g } :: !mismatches;
          cmp (i + 1) es' gs'
        | e :: _, [] ->
          mismatches := { mport = port; iteration = i; expected = e; got = -1 } :: !mismatches
        | [], g :: _ ->
          mismatches := { mport = port; iteration = i; expected = -1; got = g } :: !mismatches
      in
      cmp 0 expected_trace got_trace)
    reference;
  { iterations; checked_values = !checked; mismatches = List.rev !mismatches }
