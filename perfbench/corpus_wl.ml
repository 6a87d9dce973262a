(* corpus: the batch sweep engine on the paper's §VII population, with no
   sockets — Explore.run ~jobs:2, cold (no cache, no journal), once per
   design of the manifest's first designs (the `sweep --take` selection),
   over the CLI's auto grid.  The large class is a tenth of these designs
   but nearly half the wall time, and scheduling here is heavy on
   relaxation.  The seed permutes the design order and picks the frontier
   points the correctness gate re-derives. *)

open Common

let selection = function Full -> 20 | Smoke -> 2
let jobs = 2

(* The committed manifest must be exactly what the generator produces. *)
let check_manifest entries =
  let file = Filename.concat "corpus" "manifest.tsv" in
  match Corpus.load ~path:file with
  | Error m -> [ file ^ ": " ^ m ]
  | Ok (seed, committed) ->
    if seed <> manifest_seed || committed <> entries then
      [ file ^ ": the regenerated population differs from the committed manifest" ]
    else []

(* Re-derive a frontier point through Hls.run with every audit on: it must
   be a legal point and reproduce the sweep's area and steps exactly. *)
let rederive (e : Corpus.entry) (r : Explore.point_result) =
  let p = r.Explore.point in
  let config =
    { Flows.default_config with Flows.validate = Check.Paranoid; recover_area = p.Explore_grid.recover }
  in
  let d = Hls.design ?ii:p.Explore_grid.ii ~name:e.Corpus.name ~clock:p.Explore_grid.clock (build_of e ()) in
  let what = e.Corpus.name ^ " " ^ r.Explore.pkey in
  match Hls.run ~config p.Explore_grid.flow d with
  | Error err -> [ what ^ ": paranoid re-derivation failed: " ^ Flows.error_message err ]
  | Ok h ->
    let s = r.Explore.summary in
    if
      Hls.total_area h = s.Eval_cache.area
      && Schedule.steps_used h.Hls.report.Flows.schedule = s.Eval_cache.steps
    then []
    else [ what ^ ": paranoid re-derivation differs from the sweep" ]

(* Seeded sample of frontier points, [per_class] from each size class. *)
let frontier_sample rng ~per_class outcomes =
  List.concat_map
    (fun k ->
      List.concat_map
        (fun ((e : Corpus.entry), (o : Explore.outcome)) ->
          if e.Corpus.klass = k then
            List.map (fun (f : _ Pareto.entry) -> (e, f.Pareto.tag)) o.Explore.frontier
          else [])
        outcomes
      |> shuffle rng |> take per_class)
    Corpus.all_klasses

let point_failures (e : Corpus.entry) (o : Explore.outcome) =
  if o.Explore.timed_out + o.Explore.crashed + o.Explore.pending > 0 then
    [
      Printf.sprintf "%s: %d timed out, %d crashed, %d pending" e.Corpus.name o.Explore.timed_out
        o.Explore.crashed o.Explore.pending;
    ]
  else []

(* Peak RSS of a fresh process that sweeps the first [count] designs once,
   in manifest order.  The OCaml 5.1 heap never shrinks, so a round's peak
   in the runner depends on the rounds before it; and two domains make
   one process's peak vary by more than 15% from run to run, so the runner
   reports the median of three such processes (`perfbench.exe --rss-probe
   N`), run after the timed rounds. *)
let rss_probe count =
  List.iter (fun e -> ignore (Sys.opaque_identity (sweep ~jobs e))) (take count (population ()));
  Printf.printf "%.17g\n" (vmhwm_mb (Unix.getpid ()))

let fresh_peak_rss size =
  median
    (List.init 3 (fun _ ->
         let ic =
           Unix.open_process_args_in Sys.executable_name
             [| Sys.executable_name; "--rss-probe"; string_of_int (selection size) |]
         in
         Fun.protect
           ~finally:(fun () -> ignore (Unix.close_process_in ic))
           (fun () -> float_of_string (input_line ic))))

let run ~size ~seed ~seconds ~traced ~chrome =
  let failures = ref [] in
  let fail l = failures := List.rev_append l !failures in
  let rng = Splitmix.create seed in
  let setups = ref [] in
  let ledger = ref Ledger.empty in
  let first = ref None in
  let round i =
    let traced = traced_round ~traced i in
    (* Set-up: generate the population and resolve the selection. *)
    let (entries, selected), setup_s =
      set_up ~probe:one_core (fun () ->
          let entries = population () in
          (entries, take (selection size) entries))
    in
    setups := setup_s :: !setups;
    if i = 0 then fail (check_manifest entries);
    let order = shuffle rng selected in
    let swept, l =
      with_stats ~on:traced ~chrome:(chrome && i = 1) (fun () ->
          calibrated_each ~probe:both_cores
            (fun e -> (e, Obs.span "bench.explore.run" (fun () -> sweep ~jobs e)))
            order)
    in
    ledger := Ledger.add !ledger l;
    let wall = List.fold_left (fun s (_, w, _) -> s +. w) 0.0 swept in
    let scaled = List.fold_left (fun s (_, w, k) -> s +. (w *. k)) 0.0 swept in
    let outcomes =
      List.map (fun (((e : Corpus.entry), o), _, _) -> (e.Corpus.name, (e, o))) swept
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      |> List.map snd
    in
    List.iter (fun (e, o) -> fail (point_failures e o)) outcomes;
    let lines = List.concat_map (fun (_, o) -> record_lines o) outcomes in
    (match !first with
    | None -> first := Some (outcomes, lines)
    | Some (_, l0) ->
      if lines <> l0 then fail [ Printf.sprintf "round %d: sweep records differ from round 1" (i + 1) ]);
    let compile =
      List.map (fun (((e : Corpus.entry), _), w, k) -> (e.Corpus.name, w *. k *. 1000.0)) swept
    in
    {
      traced;
      items = List.fold_left (fun n (_, o) -> n + o.Explore.total) 0 outcomes;
      wall_s = wall;
      speed = scaled /. wall;
      compile;
    }
  in
  let rounds = repeat ~size ~seconds ~traced round in
  let outcomes, lines = Option.get !first in
  let per_class = match size with Full -> 10 | Smoke -> 1 in
  List.iter (fun (e, r) -> fail (rederive e r)) (frontier_sample rng ~per_class outcomes);
  let results = List.concat_map (fun (_, o) -> o.Explore.results) outcomes in
  let feasible = List.filter (fun (r : Explore.point_result) -> Eval_cache.ok r.Explore.summary) results in
  let traced_rounds = List.filter (fun r -> r.traced) rounds in
  let l = !ledger in
  {
    attempted = List.fold_left (fun n r -> n + r.items) 0 rounds;
    failures = List.rev !failures;
    setups = !setups;
    shape = Sequential;
    rounds;
    (* A caller waits for the whole population, as with fleet's sweep;
       the designs' own times are too uneven for their median to be
       steady. *)
    latencies =
      List.map (fun r -> List.fold_left (fun s (_, ms) -> s +. ms) 0.0 r.compile) (untraced rounds);
    areas = List.map (fun (r : Explore.point_result) -> r.Explore.summary.Eval_cache.area) feasible;
    distinct = List.length results;
    rss_mb = (if traced then nan else fresh_peak_rss size);
    digest = digest_lines lines;
    owned =
      (let wall = List.fold_left (fun s r -> s +. r.wall_s) 0.0 traced_rounds in
       [
         ( "explore.pool_busy_frac",
           ratio (Ledger.span l "hls.run").Ledger.ns (1e9 *. float_of_int jobs *. wall) );
         ( "explore.evaluate_share",
           ratio (Ledger.span l "explore.evaluate").Ledger.ns (Ledger.span l "explore.run").Ledger.ns );
         ( "explore.design_s_max",
           List.fold_left (fun m r -> List.fold_left (fun m (_, ms) -> Float.max m ms) m r.compile) 0.0 traced_rounds
           /. 1000.0 );
       ]);
    ledger = l;
  }
