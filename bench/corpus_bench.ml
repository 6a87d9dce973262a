(* Corpus & sharding section: plan the 100-design manifest population,
   partition the grid x corpus key space, and merge per-shard journals —
   the distribution machinery timed at the paper's §VII scale.  Counters
   (corpus.generated, shard.planned/merged/duplicates) land in the
   baseline snapshot, so the work totals are gated exactly. *)

open Bench_common

let time f =
  let t0 = Obs.now_ns () in
  let r = f () in
  (Int64.to_float (Int64.sub (Obs.now_ns ()) t0), r)

let summ =
  {
    Eval_cache.status = Eval_cache.Success;
    area = 1000.0;
    steps = 4;
    delay_ps = 10000.0;
    relaxations = 0;
    regrades = 0;
    recoveries = 0;
    error = "";
  }

let run ~quick () =
  section "Corpus & sharding (100-design manifest, paper-scale population)";
  let t_plan, entries = time (fun () -> Corpus.plan ~count:100 ~seed:42 ()) in
  let total_ops =
    List.fold_left (fun n (e : Corpus.entry) -> n + e.Corpus.ops) 0 entries
  in
  Printf.printf "  corpus plan: %d designs, %d ops total, in %s\n"
    (List.length entries) total_ops (pp_ns t_plan);
  (* The key space `hlsc sweep --corpus --shard i/N` partitions: every
     (design, grid point) pair under one configuration fingerprint. *)
  let grid =
    match Explore_grid.of_specs ~clocks:"2000:2700:100" ~flows:"conv,slack" () with
    | Ok g -> g
    | Error m -> failwith m
  in
  let pkeys = List.map Explore_grid.point_key (Explore_grid.points grid) in
  let config = Explore.config_fingerprint Flows.default_config in
  let keys =
    List.concat_map
      (fun (e : Corpus.entry) ->
        List.map
          (fun pk ->
            Eval_cache.key ~digest:e.Corpus.digest ~lib:"default" ~config
              ~point_key:pk)
          pkeys)
      entries
  in
  let shards = if quick then 3 else 8 in
  let t_part, buckets = time (fun () -> Shard.plan ~shards keys) in
  Printf.printf "  shard plan: %d keys -> %d contiguous ranges in %s\n"
    (List.length keys) shards (pp_ns t_part);
  (* One journal per shard (plus one duplicated record in shard 0 — a
     resume artifact the merge must collapse), then reassemble. *)
  let dir = Filename.temp_file "corpus_bench" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let t_write, paths =
        time (fun () ->
            Array.mapi
              (fun i bucket ->
                let path = Filename.concat dir (Printf.sprintf "shard-%d.jnl" i) in
                let w = Eval_cache.start ~path ~fresh:true in
                Fun.protect
                  ~finally:(fun () -> Eval_cache.close w)
                  (fun () ->
                    List.iter (fun key -> Eval_cache.record w ~key summ) bucket;
                    match bucket with
                    | key :: _ when i = 0 -> Eval_cache.record w ~key summ
                    | _ -> ());
                path)
              buckets)
      in
      let output = Filename.concat dir "merged.jnl" in
      let t_merge, stats =
        time (fun () ->
            match Eval_cache.merge ~inputs:(Array.to_list paths) ~output with
            | Ok s -> s
            | Error m -> failwith m)
      in
      Printf.printf
        "  journals: %d records fsync'd in %s   merge: %d journals -> %d \
         records (%d duplicate collapsed) in %s\n"
        (List.length keys + 1)
        (pp_ns t_write) stats.Eval_cache.journals stats.Eval_cache.entries
        stats.Eval_cache.duplicates (pp_ns t_merge);
      if stats.Eval_cache.entries <> List.length keys then
        failwith "merge lost or invented records";
      if stats.Eval_cache.duplicates <> 1 then
        failwith "merge missed the planted duplicate")
