(* The explore subsystem: Pareto-frontier algebra (pruning, ties,
   insertion-order independence), grid-spec parsing, the domain pool,
   design digests, sweep determinism across worker counts, and the
   evaluation cache (memoization + file round-trip). *)

let entry key area delay = { Pareto.key; area; delay; tag = () }

(* --------------------------------------------------------------- *)
(* Pareto *)

let keys t = List.map (fun (e : unit Pareto.entry) -> e.Pareto.key) (Pareto.frontier t)

let test_pareto_pruning () =
  let f =
    Pareto.of_list
      [
        entry "a" 100.0 10.0;
        entry "b" 90.0 12.0;   (* frontier: cheaper, slower *)
        entry "c" 110.0 9.0;   (* frontier: dearer, faster *)
        entry "d" 105.0 11.0;  (* dominated by a *)
        entry "e" 100.0 10.0;  (* exact tie with a: key 'a' wins *)
      ]
  in
  Alcotest.(check (list string)) "frontier keys" [ "b"; "a"; "c" ] (keys f);
  (* A new point dominating two frontier members displaces both. *)
  let f = Pareto.add (entry "z" 90.0 9.0) f in
  Alcotest.(check (list string)) "z displaces a and c and b-equal-area" [ "z" ] (keys f)

let test_pareto_tie_handling () =
  (* Equal area, different delay: the faster one dominates. *)
  let f = Pareto.of_list [ entry "slow" 50.0 20.0; entry "fast" 50.0 15.0 ] in
  Alcotest.(check (list string)) "equal area" [ "fast" ] (keys f);
  (* Equal delay, different area: the cheaper one dominates. *)
  let f = Pareto.of_list [ entry "dear" 60.0 15.0; entry "cheap" 40.0 15.0 ] in
  Alcotest.(check (list string)) "equal delay" [ "cheap" ] (keys f);
  (* Exact coordinate ties resolve by key, whichever lands first. *)
  let f1 = Pareto.of_list [ entry "k2" 5.0 5.0; entry "k1" 5.0 5.0 ] in
  let f2 = Pareto.of_list [ entry "k1" 5.0 5.0; entry "k2" 5.0 5.0 ] in
  Alcotest.(check (list string)) "tie order 1" [ "k1" ] (keys f1);
  Alcotest.(check (list string)) "tie order 2" [ "k1" ] (keys f2)

let rec permutations = function
  | [] -> [ [] ]
  | xs ->
    List.concat_map
      (fun x ->
        let rest = List.filter (fun y -> y != x) xs in
        List.map (fun p -> x :: p) (permutations rest))
      xs

let test_pareto_order_independence () =
  let es =
    [
      entry "a" 100.0 10.0;
      entry "b" 90.0 12.0;
      entry "c" 110.0 9.0;
      entry "d" 105.0 11.0;
      entry "e" 100.0 10.0;
    ]
  in
  let reference = keys (Pareto.of_list es) in
  List.iter
    (fun perm ->
      Alcotest.(check (list string)) "permutation-invariant frontier" reference
        (keys (Pareto.of_list perm)))
    (permutations es)

let test_pareto_monotone_growth () =
  (* Inserting a point never makes the frontier worse: every old frontier
     member is still dominated-or-present, and size never drops below 1. *)
  let pts =
    List.mapi
      (fun i (a, d) -> entry (Printf.sprintf "p%d" i) a d)
      [ (10., 10.); (8., 12.); (12., 8.); (9., 9.); (11., 11.); (7., 13.); (9., 9.) ]
  in
  ignore
    (List.fold_left
       (fun acc e ->
         let acc' = Pareto.add e acc in
         List.iter
           (fun (old_e : unit Pareto.entry) ->
             let covered =
               List.exists
                 (fun (f : unit Pareto.entry) ->
                   f.Pareto.key = old_e.Pareto.key || Pareto.dominates f old_e
                   || (f.Pareto.area = old_e.Pareto.area
                      && f.Pareto.delay = old_e.Pareto.delay))
                 (Pareto.frontier acc')
             in
             Alcotest.(check bool) "old member covered" true covered)
           (Pareto.frontier acc);
         acc')
       Pareto.empty pts);
  let bad = entry "nan" Float.nan 1.0 in
  (match Pareto.add bad Pareto.empty with
  | _ -> Alcotest.fail "non-finite objective accepted"
  | exception Invalid_argument _ -> ())

(* --------------------------------------------------------------- *)
(* Grid specs *)

let test_grid_parsing () =
  (match Explore_grid.parse_clocks "2000:3000:250" with
  | Ok cs -> Alcotest.(check int) "range size" 5 (List.length cs)
  | Error m -> Alcotest.fail m);
  (match Explore_grid.parse_clocks "1500,2000:2500:500" with
  | Ok cs ->
    Alcotest.(check (list (float 0.001))) "mixed items" [ 1500.; 2000.; 2500. ] cs
  | Error m -> Alcotest.fail m);
  (match Explore_grid.parse_clocks "bogus" with
  | Ok _ -> Alcotest.fail "bogus clock spec accepted"
  | Error _ -> ());
  (match Explore_grid.parse_clocks "3000:2000:100" with
  | Ok _ -> Alcotest.fail "inverted range accepted"
  | Error _ -> ());
  (match Explore_grid.parse_iis "none,4:8:2" with
  | Ok iis ->
    Alcotest.(check int) "ii items" 4 (List.length iis);
    Alcotest.(check bool) "none present" true (List.mem None iis);
    Alcotest.(check bool) "ii 6 present" true (List.mem (Some 6) iis)
  | Error m -> Alcotest.fail m);
  (match Explore_grid.parse_iis "0" with
  | Ok _ -> Alcotest.fail "ii 0 accepted"
  | Error _ -> ());
  (match Explore_grid.parse_flows "all" with
  | Ok fs -> Alcotest.(check int) "all flows" 3 (List.length fs)
  | Error m -> Alcotest.fail m);
  (* Point keys and reports print these names, so they are pinned; every
     flow parses from either of them, and "all" is not a flow. *)
  let names = List.map (fun f -> (Flows.short_name f, Flows.flow_name f)) Flows.all in
  Alcotest.(check (list (pair string string)))
    "flow names"
    [ ("conv", "conventional"); ("slowest", "slowest-first"); ("slack", "slack-based") ]
    names;
  List.iter
    (fun f ->
      List.iter
        (fun name ->
          Alcotest.(check bool) (name ^ " parses") true (Flows.of_name name = Some f))
        [ Flows.short_name f; Flows.flow_name f ])
    Flows.all;
  Alcotest.(check bool) "all is not a flow" true (Flows.of_name "all" = None);
  (match Explore_grid.parse_recover "both" with
  | Ok r -> Alcotest.(check int) "both policies" 2 (List.length r)
  | Error _ -> Alcotest.fail "recover both rejected");
  (match Explore_grid.of_specs ~clocks:"2000,2500" ~flows:"all" () with
  | Ok g -> Alcotest.(check int) "of_specs grid" 6 (Explore_grid.size g)
  | Error m -> Alcotest.fail m);
  (match Explore_grid.of_specs ~clocks:"2000" ~flows:"all" ~iis:"0:4" () with
  | Ok _ -> Alcotest.fail "of_specs accepted ii 0"
  | Error _ -> ())

let test_grid_enumeration () =
  match
    Explore_grid.make ~clocks:[ 2500.0; 2000.0; 2500.0 ]
      ~flows:[ Flows.Conventional; Flows.Slack_based ]
      ~iis:[ None; Some 4 ] ~recover:[ true; false ] ()
  with
  | Error m -> Alcotest.fail m
  | Ok g ->
    Alcotest.(check int) "size dedups clocks" 16 (Explore_grid.size g);
    let pts = Explore_grid.points g in
    Alcotest.(check int) "points = size" 16 (List.length pts);
    let ks = List.map Explore_grid.point_key pts in
    Alcotest.(check int) "keys unique" 16 (List.length (List.sort_uniq compare ks));
    (* Empty and invalid axes are rejected. *)
    (match Explore_grid.make ~clocks:[] ~flows:[ Flows.Slack_based ] () with
    | Ok _ -> Alcotest.fail "empty clock axis accepted"
    | Error _ -> ());
    (match Explore_grid.make ~clocks:[ -1.0 ] ~flows:[ Flows.Slack_based ] () with
    | Ok _ -> Alcotest.fail "negative clock accepted"
    | Error _ -> ())

(* --------------------------------------------------------------- *)
(* Domain pool *)

let test_pool_matches_sequential () =
  let tasks = Array.init 100 (fun i -> i) in
  let f x = (x * 7) mod 13 in
  Alcotest.(check (array int)) "jobs=4 == sequential" (Array.map f tasks)
    (Domain_pool.map ~jobs:4 f tasks);
  Alcotest.(check (array int)) "jobs=1 == sequential" (Array.map f tasks)
    (Domain_pool.map ~jobs:1 f tasks);
  Alcotest.(check (array int)) "empty" [||] (Domain_pool.map ~jobs:4 f [||])

let test_pool_exception_propagates () =
  let tasks = Array.init 20 (fun i -> i) in
  match
    Domain_pool.map ~jobs:3 (fun i -> if i >= 10 then failwith "boom" else i) tasks
  with
  | _ -> Alcotest.fail "worker exception swallowed"
  | exception Failure m -> Alcotest.(check string) "message" "boom" m

(* --------------------------------------------------------------- *)
(* Digests *)

let test_digest_stability () =
  let d1 = Random_design.generate ~seed:42 () in
  let d2 = Random_design.generate ~seed:42 () in
  Alcotest.(check string) "same seed, same digest" (Random_design.digest d1)
    (Random_design.digest d2);
  let d3 = Random_design.generate ~seed:43 () in
  Alcotest.(check bool) "different seed, different digest" true
    (Random_design.digest d1 <> Random_design.digest d3);
  (* The whole suite digests reproducibly. *)
  let sig_of designs = String.concat "," (List.map Random_design.digest designs) in
  Alcotest.(check string) "suite digest reproducible"
    (sig_of (Random_design.suite ~count:5 ~seed:7 ()))
    (sig_of (Random_design.suite ~count:5 ~seed:7 ()))

let test_dfg_digest_content () =
  let d = Idct.build ~latency:8 ~passes:1 () in
  let d' = Idct.build ~latency:8 ~passes:1 () in
  Alcotest.(check string) "idct digest reproducible" (Dfg.digest d.Idct.dfg)
    (Dfg.digest d'.Idct.dfg);
  let other = Idct.build ~latency:10 ~passes:1 () in
  Alcotest.(check bool) "different latency, different digest" true
    (Dfg.digest d.Idct.dfg <> Dfg.digest other.Idct.dfg)

(* --------------------------------------------------------------- *)
(* Sweeps *)

let idct_grid () =
  match
    Explore_grid.make ~clocks:[ 2200.0; 2600.0; 3000.0 ]
      ~flows:[ Flows.Conventional; Flows.Slack_based ]
      ()
  with
  | Ok g -> g
  | Error m -> Alcotest.fail m

let idct_build () = (Idct.build ~latency:12 ~passes:1 ()).Idct.dfg

let run_sweep ?jobs ?cache () =
  Explore.run ?jobs ?cache ~lib:Library.default ~config:Flows.default_config
    ~name:"idct" ~build:idct_build (idct_grid ())

(* The frontier as a comparable string, %h floats so equality is bit-exact.
   (Whole-outcome renderings can't be compared across cold/warm runs: the
   evaluated/cached counts legitimately differ.) *)
let frontier_sig (o : Explore.outcome) =
  String.concat ";"
    (List.map
       (fun (e : Explore.point_result Pareto.entry) ->
         Printf.sprintf "%s|%h|%h" e.Pareto.key e.Pareto.area e.Pareto.delay)
       o.Explore.frontier)

let test_sweep_deterministic_across_jobs () =
  let o1 = run_sweep ~jobs:1 () in
  let o4 = run_sweep ~jobs:4 () in
  Alcotest.(check string) "CSV byte-identical" (Explore.to_csv o1) (Explore.to_csv o4);
  Alcotest.(check string) "JSON byte-identical" (Explore.to_json o1)
    (Explore.to_json o4);
  Alcotest.(check string) "summary byte-identical" (Explore.render_summary o1)
    (Explore.render_summary o4);
  Alcotest.(check bool) "frontier nonempty" true (o1.Explore.frontier <> [])

let test_sweep_cache_memoizes () =
  let cache = Eval_cache.create () in
  let cold = run_sweep ~cache () in
  Alcotest.(check int) "cold evaluates all" cold.Explore.total cold.Explore.evaluated;
  let warm = run_sweep ~cache () in
  Alcotest.(check int) "warm evaluates none" 0 warm.Explore.evaluated;
  Alcotest.(check int) "warm all hits" warm.Explore.total warm.Explore.hits;
  Alcotest.(check string) "frontier identical from cache" (frontier_sig cold)
    (frontier_sig warm);
  (* A different configuration must not be answered by stale entries. *)
  let other_config = { Flows.default_config with Flows.max_recoveries = 0 } in
  let o =
    Explore.run ~cache ~lib:Library.default ~config:other_config ~name:"idct"
      ~build:idct_build (idct_grid ())
  in
  Alcotest.(check int) "config change misses" o.Explore.total o.Explore.evaluated

(* Grading and both budgeting configs change results, so a sweep under
   any of them must miss a cache filled at the default config and report
   what a fresh sweep under that config reports. *)
let test_sweep_cache_keys_config () =
  let grid =
    match
      Explore_grid.of_specs ~clocks:"2200:2800:200" ~flows:"conv,slack" ()
    with
    | Ok g -> g
    | Error m -> Alcotest.fail m
  in
  let sweep ?cache config =
    Explore.run ~jobs:1 ?cache ~lib:Library.default ~config ~name:"fir8"
      ~build:(fun () -> (Fir.build ~taps:8 ~latency:6 ()).Fir.dfg)
      grid
  in
  let areas (o : Explore.outcome) =
    List.map
      (fun (r : Explore.point_result) -> r.Explore.summary.Eval_cache.area)
      o.Explore.results
  in
  let cache = Eval_cache.create () in
  let default = sweep ~cache Flows.default_config in
  let d = Flows.default_config in
  List.iter
    (fun (name, config) ->
      let o = sweep ~cache config in
      Alcotest.(check int) (name ^ ": no hits") 0 o.Explore.hits;
      Alcotest.(check (list (float 0.0))) (name ^ ": fresh areas")
        (areas (sweep config)) (areas o);
      Alcotest.(check bool) (name ^ ": no '|' in the fingerprint") false
        (String.contains (Explore.config_fingerprint config) '|'))
    [
      ("discrete", { d with Flows.grading = Alloc.Discrete });
      ( "unaligned",
        { d with Flows.budget_config = { d.Flows.budget_config with aligned = false } } );
      ("no-rebudget", { d with Flows.rebudget_config = None });
    ];
  Alcotest.(check bool) "discrete grading moves an area" true
    (areas default <> areas (sweep { d with Flows.grading = Alloc.Discrete }))

let test_cache_file_roundtrip () =
  let cache = Eval_cache.create () in
  let cold = run_sweep ~cache () in
  let path = Filename.temp_file "explore" ".cache" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Eval_cache.save cache ~path;
      match Eval_cache.load ~path with
      | Error m -> Alcotest.fail m
      | Ok loaded ->
        Alcotest.(check int) "entry count survives" (Eval_cache.size cache)
          (Eval_cache.size loaded);
        let warm = run_sweep ~cache:loaded () in
        Alcotest.(check int) "loaded cache answers everything" 0
          warm.Explore.evaluated;
        Alcotest.(check string) "bit-exact through the file"
          (frontier_sig cold) (frontier_sig warm))

let mk_summary ?(status = Eval_cache.Success) area =
  {
    Eval_cache.status; area; steps = 4; delay_ps = 2.0 *. area; relaxations = 1;
    regrades = 0; recoveries = 2;
    error = (if status = Eval_cache.Success then "" else "injected\tfailure");
  }

let test_cache_corruption_handling () =
  let path = Filename.temp_file "explore" ".cache" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let write s =
        let oc = open_out path in
        output_string oc s;
        close_out oc
      in
      (* An unreadable header condemns the whole file... *)
      write "not a cache file\n";
      (match Eval_cache.load ~path with
      | Ok _ -> Alcotest.fail "corrupt header accepted"
      | Error _ -> ());
      write "slackhls-explore-cache v1\ngarbage line\n";
      (match Eval_cache.load ~path with
      | Ok _ -> Alcotest.fail "stale format version accepted"
      | Error _ -> ());
      (* ...but an individually corrupt record is quarantined, not fatal. *)
      write
        ("slackhls-explore-cache v2\n"
        ^ Eval_cache.entry_line "good" (mk_summary 42.0)
        ^ "\ngarbage line\n");
      match Eval_cache.load ~path with
      | Error m -> Alcotest.failf "quarantinable file rejected wholesale: %s" m
      | Ok c ->
        Alcotest.(check int) "good record kept" 1 (Eval_cache.size c);
        Alcotest.(check int) "bad record quarantined" 1 (Eval_cache.quarantined c))

let test_entry_line_roundtrip () =
  List.iter
    (fun status ->
      let s = mk_summary ~status 123.456 in
      match Eval_cache.parse_line (Eval_cache.entry_line "some|key" s) with
      | Some (k, s') ->
        Alcotest.(check string) "key survives" "some|key" k;
        Alcotest.(check bool)
          (Printf.sprintf "summary bit-exact (%s)" (Eval_cache.status_name status))
          true (s = s')
      | None -> Alcotest.failf "round-trip failed for %s" (Eval_cache.status_name status))
    [ Eval_cache.Success; Eval_cache.Infeasible; Eval_cache.Timeout; Eval_cache.Crash ]

let test_missing_cache_file_is_empty () =
  match Eval_cache.load ~path:"/nonexistent/explore.cache" with
  | Ok c -> Alcotest.(check int) "empty" 0 (Eval_cache.size c)
  | Error m -> Alcotest.fail m

(* --------------------------------------------------------------- *)
(* Supervision: deadlines, crash containment, checkpoint/resume *)

let default_run ?jobs ?retries ?strict ?point_deadline ?cancel ?journal ?resume
    ~build () =
  Explore.run ?jobs ?retries ?strict ?point_deadline ?cancel ?journal ?resume
    ~lib:Library.default ~config:Flows.default_config ~name:"idct" ~build
    (idct_grid ())

let test_sweep_crash_containment () =
  (* Call 1 builds the digest; call 2 is the first point evaluation. *)
  let build = Inject.crash_task ~crash_on:(fun n -> n = 2) idct_build in
  let o = default_run ~jobs:1 ~build () in
  Alcotest.(check int) "one point crashed" 1 o.Explore.crashed;
  Alcotest.(check int) "all points completed" o.Explore.total
    (List.length o.Explore.results);
  Alcotest.(check bool) "frontier survives" true (o.Explore.frontier <> []);
  Alcotest.(check bool) "sweep is not partial" false (Explore.partial o);
  Alcotest.(check bool) "crash row renders" true
    (List.exists
       (fun r -> r.Explore.summary.Eval_cache.status = Eval_cache.Crash)
       o.Explore.results);
  (* --strict turns the quarantined crash back into a raise — after the
     sweep has finished the other points. *)
  let build = Inject.crash_task ~crash_on:(fun n -> n = 2) idct_build in
  match default_run ~jobs:1 ~strict:true ~build () with
  | (_ : Explore.outcome) -> Alcotest.fail "strict sweep swallowed the crash"
  | exception Inject.Injected_crash _ -> ()

let test_sweep_retry_recovers () =
  (* The first evaluation raises once, then succeeds on its in-place
     retry: no Crash status anywhere, outputs identical to a clean run. *)
  let reference = default_run ~jobs:1 ~build:idct_build () in
  let build = Inject.crash_task ~crash_on:(fun n -> n = 2) idct_build in
  let o = default_run ~jobs:1 ~retries:1 ~build () in
  Alcotest.(check int) "no crashes" 0 o.Explore.crashed;
  Alcotest.(check string) "CSV identical to clean run" (Explore.to_csv reference)
    (Explore.to_csv o)

let test_sweep_point_deadline () =
  (* An already-expired per-point deadline: every point comes back
     timed_out — data, not an error — and the frontier is empty. *)
  let o = default_run ~jobs:2 ~point_deadline:0.0 ~build:idct_build () in
  Alcotest.(check int) "every point timed out" o.Explore.total o.Explore.timed_out;
  Alcotest.(check int) "frontier empty" 0 (List.length o.Explore.frontier);
  Alcotest.(check bool) "not partial (all points completed)" false
    (Explore.partial o)

let resume_roundtrip ~jobs () =
  let reference = default_run ~jobs:1 ~build:idct_build () in
  let path = Filename.temp_file "explore" ".journal" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (* Interrupted run: the sweep token fires after a few builds, so
         workers stop claiming and some points stay pending. *)
      let calls = Atomic.make 0 in
      let cancel = Cancel.manual () in
      let build () =
        if Atomic.fetch_and_add calls 1 >= 3 then
          Cancel.trigger ~reason:"test interrupt" cancel;
        idct_build ()
      in
      let w = Journal.start ~path ~fresh:true in
      let part =
        Fun.protect
          ~finally:(fun () -> Journal.close w)
          (fun () -> default_run ~jobs ~cancel ~journal:w ~build ())
      in
      if jobs = 1 then begin
        (* Sequential claiming makes the interrupt deterministic; with
           more workers the claim/trigger race decides how much survives. *)
        Alcotest.(check bool) "interrupted run is partial" true
          (Explore.partial part);
        Alcotest.(check bool) "some points completed" true
          (part.Explore.results <> [])
      end;
      let resume =
        match Journal.load ~path with
        | Ok (entries, quarantined) ->
          Alcotest.(check int) "clean journal" 0 quarantined;
          entries
        | Error m -> Alcotest.fail m
      in
      Alcotest.(check int) "journal holds the completed points"
        (List.length part.Explore.results)
        (List.length resume);
      (* Resume: journaled points are not re-evaluated, and the final
         renderings are byte-identical to the uninterrupted reference. *)
      let w2 = Journal.start ~path ~fresh:false in
      let full =
        Fun.protect
          ~finally:(fun () -> Journal.close w2)
          (fun () -> default_run ~jobs ~journal:w2 ~resume ~build:idct_build ())
      in
      Alcotest.(check int) "resumed = journaled" (List.length resume)
        full.Explore.resumed;
      Alcotest.(check bool) "resume completes the sweep" false
        (Explore.partial full);
      Alcotest.(check string) "CSV byte-identical" (Explore.to_csv reference)
        (Explore.to_csv full);
      Alcotest.(check string) "JSON byte-identical" (Explore.to_json reference)
        (Explore.to_json full);
      (* The journal now covers the whole grid — a second resume would
         evaluate nothing. *)
      match Journal.load ~path with
      | Ok (entries, _) ->
        Alcotest.(check int) "journal covers the grid" full.Explore.total
          (List.length entries)
      | Error m -> Alcotest.fail m)

let test_resume_deterministic_seq () = resume_roundtrip ~jobs:1 ()
let test_resume_deterministic_par () = resume_roundtrip ~jobs:4 ()

let () =
  Alcotest.run "explore"
    [
      ( "pareto",
        [
          Alcotest.test_case "dominated points pruned" `Quick test_pareto_pruning;
          Alcotest.test_case "tie handling" `Quick test_pareto_tie_handling;
          Alcotest.test_case "insertion-order independent" `Quick
            test_pareto_order_independence;
          Alcotest.test_case "monotone under insertion" `Quick
            test_pareto_monotone_growth;
        ] );
      ( "grid",
        [
          Alcotest.test_case "spec parsing" `Quick test_grid_parsing;
          Alcotest.test_case "enumeration and keys" `Quick test_grid_enumeration;
        ] );
      ( "pool",
        [
          Alcotest.test_case "matches sequential map" `Quick
            test_pool_matches_sequential;
          Alcotest.test_case "exceptions propagate" `Quick
            test_pool_exception_propagates;
        ] );
      ( "digest",
        [
          Alcotest.test_case "random-design digest stable" `Quick
            test_digest_stability;
          Alcotest.test_case "dfg digest is content-addressed" `Quick
            test_dfg_digest_content;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "deterministic across jobs" `Quick
            test_sweep_deterministic_across_jobs;
          Alcotest.test_case "cache memoizes" `Quick test_sweep_cache_memoizes;
          Alcotest.test_case "grading and budgeting key the cache" `Quick
            test_sweep_cache_keys_config;
          Alcotest.test_case "cache file round-trip" `Quick
            test_cache_file_roundtrip;
          Alcotest.test_case "cache corruption handling" `Quick
            test_cache_corruption_handling;
          Alcotest.test_case "entry line round-trips every status" `Quick
            test_entry_line_roundtrip;
          Alcotest.test_case "missing cache file is empty" `Quick
            test_missing_cache_file_is_empty;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "crash containment and --strict" `Quick
            test_sweep_crash_containment;
          Alcotest.test_case "retry recovers a flaky point" `Quick
            test_sweep_retry_recovers;
          Alcotest.test_case "point deadline times out as data" `Quick
            test_sweep_point_deadline;
          Alcotest.test_case "interrupt + resume, sequential" `Quick
            test_resume_deterministic_seq;
          Alcotest.test_case "interrupt + resume, 4 workers" `Quick
            test_resume_deterministic_par;
        ] );
    ]
