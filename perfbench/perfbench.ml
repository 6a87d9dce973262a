(* Benchmark runner: one workload per process.

     perfbench.exe --workload kernels|corpus|serve|fleet --seed N
                   [--seconds S] [--traced] [--smoke] [--json FILE]

   Untraced, it prints every end-to-end metric BENCHMARK.json names, one
   "<workload> <metric> <value> <unit>" line each; --traced prints every
   per-layer metric instead and writes a Chrome trace under .perfbench/.
   --smoke runs each workload at its minimum size.  The last stdout line
   is the result as JSON: {"correct", "attempted", "failed", "metrics"}.
   Exit status 0 when every operation and correctness check passed, 1
   otherwise, 2 on a usage error.  Run it from the root of the checkout
   (it reads BENCHMARK.json and corpus/manifest.tsv and finds hlsc next
   to itself); perfbench/run.py builds both and does that.
   `perfbench.exe --probe` and `--rss-probe N` are helpers the runner
   starts for itself (see [Common.Calib] and [Corpus_wl.rss_probe]). *)

open Common

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  traced : bool;
  size : size;
  json : string option;
}

let usage m =
  Printf.eprintf
    "perfbench: %s\n\
     usage: perfbench --workload kernels|corpus|serve|fleet --seed N [--seconds S] [--traced] \
     [--smoke] [--json FILE]\n"
    m;
  exit 2

let parse () =
  let rec go o = function
    | [] -> o
    | "--workload" :: w :: tl -> go { o with workload = w } tl
    | "--seed" :: n :: tl -> (
      match int_of_string_opt n with Some s -> go { o with seed = s } tl | None -> usage "bad --seed")
    | "--seconds" :: n :: tl -> (
      match float_of_string_opt n with
      | Some s when s > 0.0 -> go { o with seconds = s } tl
      | _ -> usage "bad --seconds")
    | "--traced" :: tl -> go { o with traced = true } tl
    | "--smoke" :: tl -> go { o with size = Smoke } tl
    | "--json" :: f :: tl -> go { o with json = Some f } tl
    | a :: _ -> usage ("unexpected argument " ^ a)
  in
  go
    { workload = ""; seed = 42; seconds = 20.0; traced = false; size = Full; json = None }
    (List.tl (Array.to_list Sys.argv))

let workloads =
  [ ("kernels", Kernels.run); ("corpus", Corpus_wl.run); ("serve", Serve_wl.run); ("fleet", Fleet_wl.run) ]

(* The metric names and units BENCHMARK.json declares: the runner must
   measure exactly these. *)
let declared key =
  let fail m = usage ("BENCHMARK.json: " ^ m) in
  match In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all with
  | exception Sys_error m -> fail m
  | text -> (
    match Obs.Json.parse text with
    | Ok (Obs.Json.Obj f) -> (
      match List.assoc_opt key f with
      | Some (Obs.Json.List l) ->
        List.map
          (function
            | Obs.Json.Obj m -> (
              match (List.assoc_opt "name" m, List.assoc_opt "unit" m) with
              | Some (Obs.Json.String n), Some (Obs.Json.String u) -> (n, u)
              | _ -> fail ("malformed entry in " ^ key))
            | _ -> fail ("malformed entry in " ^ key))
          l
      | _ -> fail ("no " ^ key ^ " list"))
    | Ok _ | Error _ -> fail "not a JSON object")

(* Every timing is scaled by the machine speed measured around it (see
   [Calib]); set-up times and round samples arrive scaled. *)
let end_to_end (r : report) =
  let rounds = untraced r.rounds in
  [
    ("setup_s", median r.setups);
    ("throughput_per_s", throughput r.shape rounds);
    ("latency_p50_ms", quantile 0.5 r.latencies);
    ("latency_p99_ms", quantile 0.99 r.latencies);
    ("compile_ms_geomean", geomean (input_medians rounds));
    ("peak_rss_mb", r.rss_mb);
    ("area_geomean", geomean r.areas);
    ("feasible_frac", ratio (float_of_int (List.length r.areas)) (float_of_int r.distinct));
  ]

(* Which workload drives each layer that only one workload exercises.
   Other workloads' traced runs measure those layers on a smoke-size run
   of the owner, so every traced run reports every per-layer metric. *)
let owners = [ "corpus"; "serve"; "fleet" ]

let per_layer o (r : report) =
  let traced, plain = List.partition (fun (x : round) -> x.traced) r.rounds in
  let overhead = 100.0 *. (ratio (throughput r.shape plain) (throughput r.shape traced) -. 1.0) in
  let probes =
    List.filter_map
      (fun w ->
        if w = o.workload then None
        else Some ((List.assoc w workloads) ~size:Smoke ~seed:o.seed ~seconds:o.seconds ~traced:true ~chrome:false))
      owners
  in
  let replay, _ = with_stats ~on:true ~chrome:true (fun () -> Layers.replay ~seed:o.seed) in
  ( (("obs.traced_overhead_pct", overhead) :: Layers.of_ledger r.ledger)
    @ replay @ r.owned
    @ List.concat_map (fun (p : report) -> p.owned) probes,
    probes )

let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let () =
  (match Array.to_list Sys.argv with
  | [ _; "--probe" ] ->
    Calib.probe ();
    exit 0
  | [ _; "--rss-probe"; n ] ->
    Corpus_wl.rss_probe (int_of_string n);
    exit 0
  | _ -> ());
  let o = parse () in
  let run =
    match List.assoc_opt o.workload workloads with
    | Some f -> f
    | None -> usage "--workload must be one of kernels, corpus, serve, fleet"
  in
  let spec = declared (if o.traced then "per_layer" else "end_to_end") in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 143));
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> exit 130));
  Proc.mkdir_p Proc.scratch;
  at_exit Proc.cleanup;
  let r = run ~size:o.size ~seed:o.seed ~seconds:o.seconds ~traced:o.traced ~chrome:o.traced in
  let metrics, extra = if o.traced then per_layer o r else (end_to_end r, []) in
  let results = r :: extra in
  let checks =
    List.concat_map
      (fun (name, _) ->
        match List.assoc_opt name metrics with
        | None -> [ name ^ ": not measured" ]
        | Some v when not (Float.is_finite v) -> [ name ^ ": not finite" ]
        | Some _ -> [])
      spec
    @ List.filter_map
        (fun (name, _) -> if List.mem_assoc name spec then None else Some (name ^ ": not declared"))
        metrics
  in
  let failures = List.concat_map (fun (x : report) -> x.failures) results @ checks in
  let attempted = List.fold_left (fun n (x : report) -> n + x.attempted) 0 results in
  if o.traced then begin
    let trace = Filename.concat Proc.out_dir (Printf.sprintf "trace-%s.json" o.workload) in
    Obs.write_trace ~path:trace;
    Printf.eprintf "perfbench: wrote %s\n" trace
  end;
  Printf.eprintf "perfbench: %s: %d rounds (wall s @ machine speed: %s)\n" o.workload (List.length r.rounds)
    (String.concat " " (List.map (fun (x : round) -> Printf.sprintf "%.3f@%.2f" x.wall_s x.speed) r.rounds));
  List.iter (fun m -> Printf.eprintf "perfbench: FAILED %s\n" m) failures;
  List.iter
    (fun (name, u) ->
      Printf.printf "%s %s %s %s\n" o.workload name
        (number (Option.value ~default:nan (List.assoc_opt name metrics)))
        u)
    spec;
  Printf.printf "%s output_digest %s\n" o.workload r.digest;
  let line =
    Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
      (failures = []) (max 1 attempted)
      (min (max 1 attempted) (List.length failures))
      (String.concat ", "
         (List.map
            (fun (name, u) ->
              Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
                (number (Option.value ~default:nan (List.assoc_opt name metrics)))
                u)
            spec))
  in
  print_endline line;
  Option.iter (fun f -> Out_channel.with_open_text f (fun oc -> output_string oc (line ^ "\n"))) o.json;
  exit (if failures = [] then 0 else 1)
