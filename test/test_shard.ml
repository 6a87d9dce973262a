(* Sharded exploration: the plan partition (every key in exactly one
   shard), the Pareto merge algebra `merge-journals` relies on (frontier
   union is associative, commutative, idempotent), and journal merging
   itself — dedup within a journal, rejection of overlap and of foreign
   configurations across journals. *)

(* ------------------------------------------------------------------ *)
(* Shard.plan / Shard.owner. *)

let gen_keys seed =
  let rng = Splitmix.create seed in
  let n = Splitmix.int rng 60 in
  List.init n (fun i -> Printf.sprintf "k%02d-%d" (Splitmix.int rng 30) i)

let prop_plan_exactly_once =
  QCheck.Test.make ~name:"shard plan: every key in exactly one shard" ~count:200
    QCheck.(pair (int_range 0 1_000_000) (int_range 1 8))
    (fun (seed, shards) ->
      let keys = gen_keys seed in
      let buckets = Shard.plan ~shards keys in
      Array.length buckets = shards
      && List.concat (Array.to_list buckets) = List.sort String.compare keys)

let prop_plan_balanced =
  QCheck.Test.make ~name:"shard plan: range sizes differ by at most one" ~count:200
    QCheck.(pair (int_range 0 1_000_000) (int_range 1 8))
    (fun (seed, shards) ->
      let keys = gen_keys seed in
      let sizes =
        Array.to_list (Array.map List.length (Shard.plan ~shards keys))
      in
      let lo = List.fold_left min max_int sizes in
      let hi = List.fold_left max 0 sizes in
      List.fold_left ( + ) 0 sizes = List.length keys && hi - lo <= 1)

let prop_owner_contiguous =
  QCheck.Test.make ~name:"shard owner: monotone, in range, exhaustive" ~count:200
    QCheck.(pair (int_range 1 500) (int_range 1 8))
    (fun (total, shards) ->
      let owners = List.init total (Shard.owner ~shards ~total) in
      List.for_all (fun s -> s >= 0 && s < shards) owners
      && List.sort compare owners = owners
      && List.length (List.sort_uniq compare owners) = min shards total)

let test_plan_validates () =
  Alcotest.check_raises "shards < 1"
    (Invalid_argument "Shard.plan: shards < 1") (fun () ->
      ignore (Shard.plan ~shards:0 [ "a" ]))

let test_plan_on_grid () =
  (* The real surface: partitioning the canonical keys of an explore
     grid, as `hlsc sweep --shard` does for one design (its full keys
     share one prefix, so they sort like the point keys). *)
  let grid =
    match
      Explore_grid.of_specs ~clocks:"2000:3000:250" ~flows:"all" ~iis:"none,2,4"
        ~recover:"both" ()
    with
    | Ok g -> g
    | Error e -> Alcotest.fail e
  in
  let keys = List.map Explore_grid.point_key (Explore_grid.points grid) in
  let buckets = Shard.plan ~shards:3 keys in
  Alcotest.(check int) "grid fully covered" (Explore_grid.size grid)
    (Array.fold_left (fun n b -> n + List.length b) 0 buckets);
  Alcotest.(check (list string))
    "concatenation is the sorted key list"
    (List.sort String.compare keys)
    (List.concat (Array.to_list buckets));
  (* Disjoint: no key appears in two buckets. *)
  let all = List.concat (Array.to_list buckets) in
  Alcotest.(check int) "no key twice" (List.length all)
    (List.length (List.sort_uniq String.compare all))

(* ------------------------------------------------------------------ *)
(* Pareto merge algebra.  merge-journals reassembles a frontier from
   disjoint shard frontiers; that is only sound because frontier union
   is associative, commutative and idempotent on the entry set. *)

let gen_entries ~salt seed =
  let rng = Splitmix.create (seed + (salt * 0x9E3779B9)) in
  let n = 1 + Splitmix.int rng 10 in
  List.init n (fun i ->
      {
        Pareto.key = Printf.sprintf "s%d-%02d" salt i;
        area = float_of_int (1 + Splitmix.int rng 50);
        delay = float_of_int (1 + Splitmix.int rng 50);
        tag = ();
      })

let union a b =
  Pareto.of_list (Pareto.frontier a @ Pareto.frontier b)

let render t =
  String.concat ";"
    (List.map
       (fun (e : unit Pareto.entry) ->
         Printf.sprintf "%s:%g:%g" e.Pareto.key e.Pareto.area e.Pareto.delay)
       (Pareto.frontier t))

let prop_union_commutative =
  QCheck.Test.make ~name:"pareto union: commutative" ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let a = Pareto.of_list (gen_entries ~salt:1 seed) in
      let b = Pareto.of_list (gen_entries ~salt:2 seed) in
      render (union a b) = render (union b a))

let prop_union_associative =
  QCheck.Test.make ~name:"pareto union: associative" ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let a = Pareto.of_list (gen_entries ~salt:1 seed) in
      let b = Pareto.of_list (gen_entries ~salt:2 seed) in
      let c = Pareto.of_list (gen_entries ~salt:3 seed) in
      render (union (union a b) c) = render (union a (union b c)))

let prop_union_idempotent =
  QCheck.Test.make ~name:"pareto union: idempotent" ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let a = Pareto.of_list (gen_entries ~salt:1 seed) in
      render (union a a) = render a)

let prop_union_is_frontier_of_whole =
  QCheck.Test.make
    ~name:"pareto union: sharded fold == frontier of the full set" ~count:300
    QCheck.(pair (int_range 0 1_000_000) (int_range 1 6))
    (fun (seed, shards) ->
      (* Split one entry set into contiguous shards by key range (the
         Shard.plan partition), fold each shard's frontier, union them:
         must equal the frontier of the undivided set. *)
      let entries = gen_entries ~salt:7 seed in
      let keys =
        List.map (fun (e : unit Pareto.entry) -> e.Pareto.key) entries
      in
      let buckets = Shard.plan ~shards keys in
      let whole = Pareto.of_list entries in
      let pieces =
        Array.map
          (fun bucket ->
            Pareto.of_list
              (List.filter
                 (fun (e : unit Pareto.entry) -> List.mem e.Pareto.key bucket)
                 entries))
          buckets
      in
      let folded = Array.fold_left union Pareto.empty pieces in
      render folded = render whole)

(* ------------------------------------------------------------------ *)
(* merge_journals. *)

let summ ?(status = Eval_cache.Success) area =
  {
    Eval_cache.status;
    area;
    steps = 3;
    delay_ps = 7500.0;
    relaxations = 0;
    regrades = 0;
    recoveries = 0;
    error = "";
  }

let full_key ?(digest = "d0") ?(config = "C") pk =
  Eval_cache.key ~digest ~lib:"L" ~config ~point_key:pk

let write_journal path records =
  let w = Eval_cache.start ~path ~fresh:true in
  Fun.protect
    ~finally:(fun () -> Eval_cache.close w)
    (fun () -> List.iter (fun (key, s) -> Eval_cache.record w ~key s) records)

let in_temp_dir f =
  let dir = Filename.temp_file "shard" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f (fun name -> Filename.concat dir name))

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_merge_disjoint () =
  in_temp_dir @@ fun p ->
  write_journal (p "a.jnl") [ (full_key "p1", summ 10.0); (full_key "p3", summ 30.0) ];
  write_journal (p "b.jnl") [ (full_key "p2", summ 20.0) ];
  match Eval_cache.merge ~inputs:[ p "a.jnl"; p "b.jnl" ] ~output:(p "m.jnl") with
  | Error e -> Alcotest.fail e
  | Ok stats ->
    Alcotest.(check int) "journals" 2 stats.Eval_cache.journals;
    Alcotest.(check int) "entries" 3 stats.Eval_cache.entries;
    Alcotest.(check int) "duplicates" 0 stats.Eval_cache.duplicates;
    Alcotest.(check int) "quarantined" 0 stats.Eval_cache.quarantined;
    (match Eval_cache.load_journal ~path:(p "m.jnl") with
    | Error e -> Alcotest.fail e
    | Ok (records, q) ->
      Alcotest.(check int) "merged quarantined" 0 q;
      Alcotest.(check (list string))
        "key-sorted output"
        [ full_key "p1"; full_key "p2"; full_key "p3" ]
        (List.map fst records))

let test_merge_input_order_irrelevant () =
  (* The merged journal is byte-identical whichever order the shard
     journals are presented in — the commutativity the CI cmp rule
     relies on. *)
  in_temp_dir @@ fun p ->
  write_journal (p "a.jnl") [ (full_key "p1", summ 10.0) ];
  write_journal (p "b.jnl")
    [ (full_key "p2", summ ~status:Eval_cache.Infeasible 0.0) ];
  (match Eval_cache.merge ~inputs:[ p "a.jnl"; p "b.jnl" ] ~output:(p "m1.jnl") with
  | Error e -> Alcotest.fail e
  | Ok _ -> ());
  (match Eval_cache.merge ~inputs:[ p "b.jnl"; p "a.jnl" ] ~output:(p "m2.jnl") with
  | Error e -> Alcotest.fail e
  | Ok _ -> ());
  Alcotest.(check string) "byte-identical merges" (read_file (p "m1.jnl"))
    (read_file (p "m2.jnl"))

let test_merge_dedups_within_journal () =
  (* A journal from a resumed shard legitimately records a key twice;
     last write wins and the collapse is counted. *)
  in_temp_dir @@ fun p ->
  write_journal (p "a.jnl")
    [ (full_key "p1", summ 10.0); (full_key "p1", summ 11.0) ];
  match Eval_cache.merge ~inputs:[ p "a.jnl" ] ~output:(p "m.jnl") with
  | Error e -> Alcotest.fail e
  | Ok stats ->
    Alcotest.(check int) "entries" 1 stats.Eval_cache.entries;
    Alcotest.(check int) "duplicates" 1 stats.Eval_cache.duplicates;
    (match Eval_cache.load_journal ~path:(p "m.jnl") with
    | Error e -> Alcotest.fail e
    | Ok (records, _) -> (
      match records with
      | [ (_, s) ] -> Alcotest.(check (float 0.0)) "last write wins" 11.0 s.Eval_cache.area
      | _ -> Alcotest.fail "expected exactly one record"))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_merge_rejects_overlap () =
  in_temp_dir @@ fun p ->
  write_journal (p "a.jnl") [ (full_key "p1", summ 10.0) ];
  write_journal (p "b.jnl") [ (full_key "p1", summ 12.0) ];
  match Eval_cache.merge ~inputs:[ p "a.jnl"; p "b.jnl" ] ~output:(p "m.jnl") with
  | Ok _ -> Alcotest.fail "overlapping journals merged"
  | Error e ->
    Alcotest.(check bool) "names the disjointness contract" true
      (contains e "disjoint")

let test_merge_rejects_foreign_config () =
  in_temp_dir @@ fun p ->
  write_journal (p "a.jnl") [ (full_key ~config:"C1" "p1", summ 10.0) ];
  write_journal (p "b.jnl") [ (full_key ~config:"C2" "p2", summ 20.0) ];
  match Eval_cache.merge ~inputs:[ p "a.jnl"; p "b.jnl" ] ~output:(p "m.jnl") with
  | Ok _ -> Alcotest.fail "mixed-config journals merged"
  | Error e ->
    Alcotest.(check bool) "names both fingerprints" true
      (contains e "fingerprint" && contains e "L|C1" && contains e "L|C2")

let test_merge_allows_multiple_digests () =
  (* A corpus sweep shards grid x designs: keys differ in digest but share
     the config fingerprint, and that must merge. *)
  in_temp_dir @@ fun p ->
  write_journal (p "a.jnl") [ (full_key ~digest:"d1" "p1", summ 10.0) ];
  write_journal (p "b.jnl") [ (full_key ~digest:"d2" "p1", summ 20.0) ];
  match Eval_cache.merge ~inputs:[ p "a.jnl"; p "b.jnl" ] ~output:(p "m.jnl") with
  | Error e -> Alcotest.fail e
  | Ok stats -> Alcotest.(check int) "entries" 2 stats.Eval_cache.entries

let test_fingerprint_of_key () =
  (match Eval_cache.fingerprint_of_key (full_key "p1") with
  | Ok fp -> Alcotest.(check string) "lib|config" "L|C" fp
  | Error e -> Alcotest.fail e);
  match Eval_cache.fingerprint_of_key "not-a-cache-key" with
  | Ok _ -> Alcotest.fail "malformed key accepted"
  | Error _ -> ()

let () =
  Alcotest.run "shard"
    [
      ( "plan",
        [
          QCheck_alcotest.to_alcotest prop_plan_exactly_once;
          QCheck_alcotest.to_alcotest prop_plan_balanced;
          QCheck_alcotest.to_alcotest prop_owner_contiguous;
          Alcotest.test_case "validates shard count" `Quick test_plan_validates;
          Alcotest.test_case "partitions a real grid" `Quick test_plan_on_grid;
        ] );
      ( "pareto-algebra",
        [
          QCheck_alcotest.to_alcotest prop_union_commutative;
          QCheck_alcotest.to_alcotest prop_union_associative;
          QCheck_alcotest.to_alcotest prop_union_idempotent;
          QCheck_alcotest.to_alcotest prop_union_is_frontier_of_whole;
        ] );
      ( "merge-journals",
        [
          Alcotest.test_case "merges disjoint shards key-sorted" `Quick
            test_merge_disjoint;
          Alcotest.test_case "input order irrelevant (bytes)" `Quick
            test_merge_input_order_irrelevant;
          Alcotest.test_case "within-journal dedup, last write wins" `Quick
            test_merge_dedups_within_journal;
          Alcotest.test_case "rejects overlapping journals" `Quick
            test_merge_rejects_overlap;
          Alcotest.test_case "rejects foreign configurations" `Quick
            test_merge_rejects_foreign_config;
          Alcotest.test_case "allows corpus-style multi-digest merges" `Quick
            test_merge_allows_multiple_digests;
          Alcotest.test_case "fingerprint extraction" `Quick
            test_fingerprint_of_key;
        ] );
    ]
