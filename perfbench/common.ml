(* Shared pieces of the benchmark runner: the clock, order statistics, the
   result every workload returns, the telemetry ledger of traced rounds,
   and the corpus population the corpus, serve and fleet workloads share. *)

let now () = Int64.to_float (Obs.now_ns ()) /. 1e9
let ms_since t0 = (now () -. t0) *. 1000.0

(* Linear interpolation between closest ranks. *)
let quantile q = function
  | [] -> nan
  | l ->
    let a = Array.of_list (List.sort Float.compare l) in
    let n = Array.length a in
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i + 1 >= n then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median l = quantile 0.5 l
let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

(* Summed in sorted order, so equal multisets give bit-equal means. *)
let geomean = function
  | [] -> nan
  | l ->
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0.0 (List.sort Float.compare l)
      /. float_of_int (List.length l))

let ratio a b = if b = 0.0 then 0.0 else a /. b

let shuffle rng l =
  let a = Array.of_list l in
  Splitmix.shuffle rng a;
  Array.to_list a

let rec take n = function
  | x :: tl when n > 0 -> x :: take (n - 1) tl
  | _ -> []

(* ------------------------------------------------------------------ *)
(* Ledger: span totals (keyed by span name, whatever the nesting) and
   counters of the traced rounds, from this process or from a daemon's
   telemetry snapshot. *)

module Ledger = struct
  type span = { calls : int; ns : float; minor_words : float }
  type t = { spans : (string * span) list; counters : (string * int) list }

  let empty = { spans = []; counters = [] }
  let zero = { calls = 0; ns = 0.0; minor_words = 0.0 }

  let plus a b =
    { calls = a.calls + b.calls; ns = a.ns +. b.ns; minor_words = a.minor_words +. b.minor_words }

  let negate s = { calls = - s.calls; ns = -. s.ns; minor_words = -. s.minor_words }

  let sum_by plus l =
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun (k, v) ->
        Hashtbl.replace tbl k
          (match Hashtbl.find_opt tbl k with Some u -> plus u v | None -> v))
      l;
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

  let leaf path =
    match String.rindex_opt path '/' with
    | Some i -> String.sub path (i + 1) (String.length path - i - 1)
    | None -> path

  let of_rows (rows : Obs.Prof.row list) counters =
    {
      spans =
        sum_by plus
          (List.map
             (fun (r : Obs.Prof.row) ->
               ( leaf r.Obs.Prof.path,
                 {
                   calls = r.Obs.Prof.calls;
                   ns = r.Obs.Prof.total_ns;
                   minor_words = r.Obs.Prof.minor_words;
                 } ))
             rows);
      counters;
    }

  let capture () = of_rows (Obs.Prof.rows ()) (Obs.counters_snapshot ())

  let of_telemetry (s : Obs.Telemetry.snapshot) =
    of_rows s.Obs.Telemetry.prof.Obs.Prof.sections s.Obs.Telemetry.prof.Obs.Prof.counters

  let add a b =
    { spans = sum_by plus (a.spans @ b.spans); counters = sum_by ( + ) (a.counters @ b.counters) }

  let diff ~before ~after =
    add after
      {
        spans = List.map (fun (k, s) -> (k, negate s)) before.spans;
        counters = List.map (fun (k, v) -> (k, -v)) before.counters;
      }

  let span t name = Option.value ~default:zero (List.assoc_opt name t.spans)

  let counter t name = float_of_int (Option.value ~default:0 (List.assoc_opt name t.counters))
end

(* ------------------------------------------------------------------ *)
(* Machine speed.  The shared host's CPU speed drifts by up to 1.5x as
   other tenants load its cores — each core flips between a fast and a
   slow mode within tenths of a second, and the share of slow time drifts
   over minutes — and every timing moves with it: run-to-run spreads of
   raw wall times reached 15-29%.  A fixed snippet of allocation-heavy
   OCaml (it tracked kernels round times with correlation 0.94, where a
   non-allocating one did not), timed around each short measured unit,
   measures that speed; timings are reported scaled to the nominal speed,
   1.0. *)

module Calib = struct
  module M = Map.Make (Int)

  let snippet () =
    let rng = Random.State.make [| 7 |] in
    let l = List.init 500 (fun _ -> Random.State.int rng 1_000_000) in
    M.cardinal (List.fold_left (fun m x -> M.add x x m) M.empty (List.sort compare l))

  (* Snippets per second on an uncontended 2-vCPU cloud VM. *)
  let nominal = 12000.0

  (* Snippets per second of this process's CPU time, not of wall time:
     calibrating while hlsc children keep the cores busy must measure the
     core's speed, not the share of it the scheduler grants. *)
  let count seconds =
    let c0 = Sys.time () in
    let n = ref 0 in
    while Sys.time () -. c0 < seconds do
      ignore (Sys.opaque_identity (snippet ()));
      incr n
    done;
    float_of_int !n /. (Sys.time () -. c0)

  (* The first snippets of a process run on a cold heap. *)
  let warm = lazy (ignore (count 0.05))

  (* The fastest of [windows] 5 ms samples: a slow phase of the host lasts
     seconds and slows every sample, a brief stall only some. *)
  let speed ~windows =
    Lazy.force warm;
    List.fold_left Float.max 0.0 (List.init windows (fun _ -> count 0.005)) /. nominal

  (* Both cores' mean speed, for the workloads that keep both busy.  The
     host often slows one core and not the other, and a snippet in this
     process measures whichever core it runs on: its readings during
     serve jumped between 0.6 and 0.95 from one tenth of a second to the
     next.  Two helper processes, this executable with --probe, measure at
     once. *)
  let helpers =
    lazy
      (List.init 2 (fun _ ->
           Unix.open_process_args Sys.executable_name [| Sys.executable_name; "--probe" |]))

  let both () =
    let hs = Lazy.force helpers in
    List.iter (fun (_, oc) -> output_string oc "\n"; flush oc) hs;
    List.fold_left (fun s (ic, _) -> s +. float_of_string (input_line ic)) 0.0 hs /. 2.0

  (* A helper: answer each line read from stdin with one window's speed. *)
  let probe () =
    try
      while true do
        ignore (input_line stdin);
        Printf.printf "%.17g\n%!" (speed ~windows:1)
      done
    with End_of_file -> ()

  let stop_helpers () =
    if Lazy.is_val helpers then List.iter (fun p -> ignore (Unix.close_process p)) (Lazy.force helpers)
end

(* Run [f] on each of [units] in order, calibrating with [probe] before
   the first and after each: every result comes with its wall time and the
   mean speed of the two calibrations around it.  Contention changes within
   seconds, so the units must be short: a round of kernels, one design of a
   sweep, a chunk of a request stream. *)
let calibrated_each ~probe f units =
  let rec go before acc = function
    | [] -> List.rev acc
    | u :: tl ->
      let t0 = now () in
      let r = f u in
      let wall = now () -. t0 in
      let after = probe () in
      go after ((r, wall, (before +. after) /. 2.0) :: acc) tl
  in
  go (probe ()) [] units

let calibrated ~probe f =
  match calibrated_each ~probe f [ () ] with [ x ] -> x | _ -> assert false

let one_core () = Calib.speed ~windows:2

(* The workloads that keep both cores busy slow down less than the mean
   speed of the two cores says: whenever there is idle time, the core
   that is faster at the moment goes idle first and takes over runnable
   threads.  In two sets of ten runs, the run-to-run spread of corpus and
   serve throughput was least when scaled by the mean speed to the power
   0.8 (serve: 6.2-6.7% at power 1, 2.6-4.4% at 0.8).  Single-threaded
   kernels, scaled by [one_core], needs no exponent. *)
let both_cores () = Float.pow (Calib.both ()) 0.8

(* Seconds of set-up scaled to the nominal machine speed. *)
let set_up ~probe f =
  let r, wall, speed = calibrated ~probe f in
  (r, wall *. speed)

(* ------------------------------------------------------------------ *)
(* What one workload run measured.  Rounds are the unit of repetition:
   each is the workload's fixed work on the same inputs. *)

type round = {
  traced : bool;
  items : int;  (** work items completed *)
  wall_s : float;  (** the measured work, set-up excluded *)
  speed : float;  (** machine speed over the measured work *)
  compile : (string * float) list;  (** ms per distinct input, speed-scaled *)
}

(* How a round spends its wall time: on its inputs one after another
   (kernels, corpus, fleet), or on requests in flight together (serve). *)
type shape = Sequential | Concurrent

let untraced rounds = List.filter (fun r -> not r.traced) rounds

(* Each input's median time over the rounds, in ms: a slow phase of the
   host that hits one input in one round moves none of them. *)
let input_medians rounds =
  let per_input = Hashtbl.create 64 in
  List.iter
    (fun r ->
      List.iter
        (fun (k, ms) ->
          Hashtbl.replace per_input k (ms :: Option.value ~default:[] (Hashtbl.find_opt per_input k)))
        r.compile)
    rounds;
  Hashtbl.fold (fun _ v acc -> median v :: acc) per_input []

(* Work items per second at the nominal machine speed. *)
let throughput shape rounds =
  match shape with
  | Concurrent ->
    median (List.map (fun r -> float_of_int r.items /. (r.wall_s *. r.speed)) rounds)
  | Sequential ->
    ratio
      (median (List.map (fun r -> float_of_int r.items) rounds))
      (List.fold_left ( +. ) 0.0 (input_medians rounds) /. 1000.0)

type report = {
  attempted : int;
  failures : string list;  (** failed operations and failed checks *)
  setups : float list;  (** seconds, one per set-up *)
  shape : shape;
  rounds : round list;
  latencies : float list;  (** ms, speed-scaled, of the untraced rounds *)
  areas : float list;  (** areas of the feasible distinct results *)
  distinct : int;  (** distinct results *)
  rss_mb : float;
  digest : string;  (** informational digest of the outputs *)
  owned : (string * float) list;
      (** per-layer metrics of the layer only this workload drives *)
  ledger : Ledger.t;  (** telemetry of the traced rounds *)
}

type size = Full | Smoke

(* Repeat [round i] until [seconds] have passed (smoke runs: once), and
   at least twice when traced. *)
let repeat ~size ~seconds ~traced round =
  let seconds = match size with Full -> seconds | Smoke -> 0.0 in
  let min = if traced then 2 else 1 in
  let t0 = now () in
  let rec go i acc = if i >= min && now () -. t0 >= seconds then List.rev acc else go (i + 1) (round i :: acc) in
  go 0 []

(* In traced mode every second round is traced, so the traced/untraced
   throughput ratio comes from one process on one machine state. *)
let traced_round ~traced i = traced && i mod 2 = 1

let with_stats ~on ~chrome f =
  if on then begin
    Obs.enable_stats ();
    Obs.Prof.enable ();
    if chrome then Obs.enable_trace ()
  end;
  let before = if on then Ledger.capture () else Ledger.empty in
  Fun.protect
    ~finally:(fun () ->
      if on then begin
        Obs.disable ();
        Obs.Prof.disable ()
      end)
    (fun () ->
      let r = f () in
      (r, if on then Ledger.diff ~before ~after:(Ledger.capture ()) else Ledger.empty))

let digest_lines lines =
  Digest.to_hex (Digest.string (String.concat "\n" (List.sort String.compare lines)))

(* ------------------------------------------------------------------ *)
(* The corpus population: the committed manifest's (seed 42, 100
   designs).  The population is fixed rather than drawn from the run's
   seed because per-design cost is heavy-tailed — one large design costs
   a quarter of a whole sweep — so populations drawn from other seeds
   differ by ~20% in total cost and would swamp every bound. *)

let manifest_seed = 42
let population () = Corpus.plan ~count:Corpus.default_count ~seed:manifest_seed ()

(* The CLI's auto grid: 8 clocks around the design's own period, both
   flows, the manifest's II constraint. *)
let clocks_of (e : Corpus.entry) =
  List.init 8 (fun k -> e.Corpus.clock_ps *. (0.8 +. (0.1 *. float_of_int k)))

let grid_of (e : Corpus.entry) =
  let iis = if e.Corpus.ii > 0 then [ Some e.Corpus.ii ] else [ None ] in
  match
    Explore_grid.make ~clocks:(clocks_of e)
      ~flows:[ Flows.Conventional; Flows.Slack_based ]
      ~iis ~recover:[ true ] ()
  with
  | Ok g -> g
  | Error m -> failwith m

let build_of (e : Corpus.entry) () = (Corpus.design e).Random_design.dfg

(* The journal record of every point, as a distributed sweep's merged
   journal holds it. *)
let record_lines (o : Explore.outcome) =
  let config = Explore.config_fingerprint Flows.default_config in
  List.map
    (fun (r : Explore.point_result) ->
      Eval_cache.entry_line
        (Eval_cache.key ~digest:o.Explore.digest ~lib:(Library.name Library.default) ~config
           ~point_key:r.Explore.pkey)
        r.Explore.summary)
    o.Explore.results

let sweep ~jobs (e : Corpus.entry) =
  Explore.run ~jobs ~lib:Library.default ~config:Flows.default_config ~name:e.Corpus.name
    ~build:(build_of e) (grid_of e)

let vmhwm_mb pid =
  match
    In_channel.with_open_text (Printf.sprintf "/proc/%d/status" pid) In_channel.input_lines
  with
  | exception Sys_error _ -> 0.0
  | lines ->
    List.fold_left
      (fun acc l ->
        match String.split_on_char ':' l with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> Option.value ~default:acc (Option.map (fun k -> k /. 1024.0) (float_of_string_opt kb))
          | [] -> acc)
        | _ -> acc)
      0.0 lines
