(* serve: what `hlsc request` and dispatch callers wait on.  One
   `hlsc serve --corpus M --jobs 2` daemon per round, two closed-loop
   client threads with one connection each (every real caller blocks on
   its reply).  The keys are the auto-grid run points (clock x flow) of the
   corpus selection's designs outside the large class.  A seeded hot set of
   16 keys of tiny designs is warmed in set-up; each round's request stream
   then asks for every other key once (a miss: evaluate, then insert into
   the cache) and for four hot keys per miss (hits), in a fresh seeded
   order.  p50 prices protocol, admission and the cache read; p99 prices
   evaluate-and-insert.  The set of distinct keys is the same for every
   seed, so area and feasibility do not depend on it. *)

open Common

type key = { design : string; klass : Corpus.klass; clock : float; flow : string }

let key_name k = Printf.sprintf "%s@%.3f/%s" k.design k.clock k.flow

let keys size =
  List.concat_map
    (fun (e : Corpus.entry) ->
      if e.Corpus.klass = Corpus.Large then []
      else
        List.concat_map
          (fun clock ->
            List.map
              (fun flow -> { design = e.Corpus.name; klass = e.Corpus.klass; clock; flow })
              [ "conv"; "slack" ])
          (clocks_of e))
    (take (match size with Full -> 20 | Smoke -> 3) (population ()))

let hot_count = function Full -> 16 | Smoke -> 4
let hits_per_miss = 4

(* A hit still rebuilds and digests its design's DFG, so its cost follows
   the design's size, and hot sets drawn at random gave seeds p50s up to
   17% apart.  The hot keys are dealt round-robin over the tiny designs, and a
   hit picks a design uniformly, then one of its hot keys: every seed
   weighs the designs alike.  Returns the hot keys grouped by design. *)
let hot_set rng size all =
  let tiny = List.filter (fun k -> k.klass = Corpus.Tiny) all in
  let designs = shuffle rng (List.sort_uniq String.compare (List.map (fun k -> k.design) tiny)) in
  let dealt =
    List.concat
      (List.mapi
         (fun j d -> List.mapi (fun i k -> ((i, j), k)) (shuffle rng (List.filter (fun k -> k.design = d) tiny)))
         designs)
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map snd |> take (hot_count size)
  in
  List.filter_map
    (fun d -> match List.filter (fun k -> k.design = d) dealt with [] -> None | ks -> Some (Array.of_list ks))
    designs
  |> Array.of_list

let payload ~id k =
  Obs.Json.to_string
    (Protocol.request_to_json
       {
         Protocol.id;
         deadline_s = None;
         trace = None;
         req = Protocol.Run { design = k.design; clock = Some k.clock; flow = k.flow };
       })

(* A reply with its id removed: hit and miss answers for one key must be
   byte-identical apart from the id. *)
let answer body =
  match Proc.reply_fields body with
  | Error m -> Error m
  | Ok (status, fields) ->
    Ok (status, Obs.Json.to_string (Obs.Json.Obj (List.filter (fun (n, _) -> n <> "id") fields)))

let area_of body =
  match Proc.reply_fields body with
  | Ok (_, f) -> ( match List.assoc_opt "area" f with Some (Obs.Json.Float a) -> a | Some (Obs.Json.Int a) -> float_of_int a | _ -> 0.0)
  | Error _ -> 0.0

type sample = { k : key; hit : bool; ms : float; reply : (string, string) result }

(* Drive [chunk] through [conns], one closed-loop client thread each. *)
let drive conns chunk =
  let chunk = Array.of_list chunk in
  let next = Atomic.make 0 in
  let out = Array.make (Array.length chunk) None in
  let client conn =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < Array.length chunk then begin
        let id, k, hit = chunk.(i) in
        let t0 = Obs.now_ns () in
        let reply = Client.request ~deadline_s:120.0 conn (payload ~id k) in
        let t1 = Obs.now_ns () in
        Obs.note_span ~name:"bench.serve.request" ~t0_ns:t0 ~t1_ns:t1 ();
        out.(i) <- Some { k; hit; ms = Int64.to_float (Int64.sub t1 t0) /. 1e6; reply };
        loop ()
      end
    in
    loop ()
  in
  List.iter Thread.join (List.map (Thread.create client) conns);
  Array.to_list (Array.map Option.get out)

(* The stream is driven in chunks of this many requests, with a machine-
   speed calibration between chunks.  At each cut one client idles while
   the other finishes its request: with chunks of 80, throughput differed
   by up to 8% between seeds, the same on repeated runs. *)
let chunk_size = 160

let rec chunks l = if l = [] then [] else take chunk_size l :: chunks (List.filteri (fun i _ -> i >= chunk_size) l)

let run ~size ~seed ~seconds ~traced ~chrome =
  let failures = ref [] in
  let fail m = failures := m :: !failures in
  let rng = Splitmix.create seed in
  let all = keys size in
  let by_design = hot_set rng size all in
  let hot = List.concat_map Array.to_list (Array.to_list by_design) in
  let fresh = List.filter (fun k -> not (List.mem k hot)) all in
  let pick a = a.(Splitmix.int rng (Array.length a)) in
  (* A fresh order every round: the median round then does not hang on
     how one order pairs up the two clients' misses. *)
  let stream () =
    shuffle rng
      (List.map (fun k -> (k, false)) fresh
      @ List.init (hits_per_miss * List.length fresh) (fun _ -> (pick (pick by_design), true)))
    |> List.mapi (fun i (k, hit) -> (string_of_int i, k, hit))
    |> chunks
  in
  let recheck = take 16 (shuffle rng fresh) in
  let answers = Hashtbl.create 512 in
  (* The first answer for each key is the reference every later answer —
     hit, miss, or in a later round from a fresh daemon — must equal. *)
  let record k body =
    match answer body with
    | Error m -> fail (key_name k ^ ": " ^ m)
    | Ok (status, a) -> (
      if status <> "ok" then fail (Printf.sprintf "%s: status %s" (key_name k) status);
      match Hashtbl.find_opt answers k with
      | None -> Hashtbl.replace answers k (a, area_of body)
      | Some (a0, _) -> if a <> a0 then fail (key_name k ^ ": answer differs from the first one"))
  in
  let setups = ref [] and bench_rss = ref 0.0 and daemon_rss = ref [] in
  let plain_ms = ref [] and hit_t = ref [] and miss_t = ref [] and pings = ref [] in
  let ledger = ref Ledger.empty in
  let server = ref (0, 0.0) in
  let round i =
    let traced = traced_round ~traced i in
    let stream = stream () in
    (* Set-up: write the manifest, start the daemon, warm the hot set. *)
    let d, setup_s =
      set_up ~probe:both_cores (fun () ->
          let manifest = Proc.path "serve-manifest.tsv" in
          Corpus.save ~path:manifest ~seed:manifest_seed (population ());
          let d =
            Proc.start_daemon ~name:(Printf.sprintf "serve-%d" i)
              ([ "--corpus"; manifest; "--jobs"; "2" ] @ if traced then [ "--stats" ] else [])
          in
          List.iter
            (fun k ->
              record k
                (Result.value ~default:"" (Client.one_shot ~deadline_s:120.0 d.Proc.addr (payload ~id:"warm" k))))
            hot;
          d)
    in
    setups := setup_s :: !setups;
    Fun.protect ~finally:(fun () -> Proc.stop d.Proc.pid) @@ fun () ->
    let ping_us =
      if traced then
        List.init 50 (fun _ ->
            let t = now () in
            ignore (Client.one_shot ~deadline_s:5.0 d.Proc.addr Proc.ping);
            ms_since t *. 1000.0)
      else []
    in
    let conns =
      List.init 2 (fun _ -> match Client.connect d.Proc.addr with Ok c -> c | Error m -> failwith m)
    in
    let driven, _ =
      Fun.protect
        ~finally:(fun () -> List.iter Client.close conns)
        (fun () ->
          with_stats ~on:traced ~chrome:(chrome && i = 1) (fun () ->
              calibrated_each ~probe:both_cores (drive conns) stream))
    in
    let samples = List.concat_map (fun (ss, _, k) -> List.map (fun s -> { s with ms = s.ms *. k }) ss) driven in
    let wall = List.fold_left (fun t (_, w, _) -> t +. w) 0.0 driven in
    let speed = List.fold_left (fun t (_, w, k) -> t +. (w *. k)) 0.0 driven /. wall in
    List.iter
      (fun s ->
        (match s.reply with Ok body -> record s.k body | Error m -> fail (key_name s.k ^ ": " ^ m));
        if not traced then plain_ms := s.ms :: !plain_ms
        else if s.hit then hit_t := s.ms :: !hit_t
        else miss_t := s.ms :: !miss_t)
      samples;
    pings := List.map (( *. ) speed) ping_us @ !pings;
    (* Fresh keys are cached now: their hit answers must equal the misses. *)
    List.iter
      (fun k -> record k (Result.value ~default:"" (Client.one_shot ~deadline_s:120.0 d.Proc.addr (payload ~id:"recheck" k))))
      recheck;
    if i = 0 then bench_rss := vmhwm_mb (Unix.getpid ());
    daemon_rss := vmhwm_mb d.Proc.pid :: !daemon_rss;
    if traced then (
      match Proc.telemetry d with
      | Error m -> fail ("telemetry: " ^ m)
      | Ok snap ->
        ledger := Ledger.add !ledger (Ledger.of_telemetry snap);
        match List.assoc_opt "serve.latency.run" snap.Obs.Telemetry.dists with
        | Some s ->
          let n, total = !server in
          server := (n + s.Obs.n, total +. (s.Obs.mean *. float_of_int s.Obs.n *. speed))
        | None -> ());
    {
      traced;
      items = List.length samples;
      wall_s = wall;
      speed;
      compile = List.filter_map (fun s -> if s.hit then None else Some (key_name s.k, s.ms)) samples;
    }
  in
  let rounds = repeat ~size ~seconds ~traced round in
  let l = !ledger in
  let results = Hashtbl.fold (fun k v acc -> (key_name k, v) :: acc) answers [] |> List.sort compare in
  let server_ms = let n, total = !server in ratio total (float_of_int n) in
  let client_ms = mean (!hit_t @ !miss_t) in
  {
    attempted = List.fold_left (fun n r -> n + r.items) 0 rounds;
    failures = List.rev !failures;
    setups = !setups;
    shape = Concurrent;
    rounds;
    latencies = !plain_ms;
    areas = List.filter_map (fun (_, (_, a)) -> if a > 0.0 then Some a else None) results;
    distinct = List.length results;
    rss_mb = !bench_rss +. median !daemon_rss;
    digest = digest_lines (List.map (fun (k, (a, _)) -> k ^ " " ^ a) results);
    owned =
      [
        ("serve.ping_rtt_us", median !pings);
        ("serve.hit_rtt_ms", median !hit_t);
        ("serve.miss_rtt_ms", median !miss_t);
        ("serve.server_ms", server_ms);
        ("serve.overhead_ms", client_ms -. server_ms);
        ( "explore.cache_hit_frac",
          ratio (Ledger.counter l "explore.cache.hits")
            (Ledger.counter l "explore.cache.hits" +. Ledger.counter l "explore.cache.misses") );
      ];
    ledger = l;
  }
