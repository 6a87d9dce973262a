(* CFG structure, edge classification, latency (paper §V Definition 1
   examples), reachability and dominance. *)

let eid = Cfg.Edge_id.to_int

let check_latency cfg e1 e2 expected msg =
  Alcotest.(check (option int)) msg expected (Cfg.latency cfg e1 e2)

(* The resizer CFG of Figure 4(a). *)
let rz = lazy (Resizer.table3 ())

let test_paper_latencies () =
  let r = Lazy.force rz in
  (* latency(e4, e6) = 0; latency(e1, e7) = 2; latency(e3, e4) undefined. *)
  check_latency r.Resizer.cfg r.Resizer.e4 r.Resizer.e6 (Some 0) "latency(e4,e6)";
  check_latency r.Resizer.cfg r.Resizer.e1 r.Resizer.e7 (Some 2) "latency(e1,e7)";
  check_latency r.Resizer.cfg r.Resizer.e3 r.Resizer.e4 None "latency(e3,e4)";
  (* Same edge: zero states. *)
  check_latency r.Resizer.cfg r.Resizer.e1 r.Resizer.e1 (Some 0) "latency(e,e)";
  (* Crossing one state. *)
  check_latency r.Resizer.cfg r.Resizer.e1 r.Resizer.e4 (Some 1) "latency(e1,e4)";
  check_latency r.Resizer.cfg r.Resizer.e6 r.Resizer.e7 (Some 1) "latency(e6,e7)";
  check_latency r.Resizer.cfg r.Resizer.e1 r.Resizer.e6 (Some 1) "latency(e1,e6)"

let test_backward_edges () =
  let r = Lazy.force rz in
  let cfg = r.Resizer.cfg in
  let backs = ref [] in
  Cfg.iter_edges cfg (fun e -> if Cfg.is_backward cfg e then backs := e :: !backs);
  Alcotest.(check int) "exactly one backward edge" 1 (List.length !backs);
  (match !backs with
  | [ e ] ->
    Alcotest.(check bool) "loop back goes bottom -> top" true
      (Cfg.node_kind cfg (Cfg.edge_dst cfg e) = Cfg.Plain)
  | _ -> Alcotest.fail "expected one backward edge");
  (* Forward edge order excludes the back edge and respects reachability. *)
  let topo = Cfg.forward_edges_topo cfg in
  Alcotest.(check int) "forward edges" (Cfg.edge_count cfg - 1) (List.length topo);
  List.iteri
    (fun i e ->
      List.iteri
        (fun j f -> if i < j && not (Cfg.Edge_id.equal e f) then
            Alcotest.(check bool)
              (Printf.sprintf "no back reach e%d<-e%d" (eid e) (eid f))
              false
              (Cfg.reaches cfg f e && not (Cfg.reaches cfg e f)))
        topo)
    topo

let test_reachability () =
  let r = Lazy.force rz in
  let cfg = r.Resizer.cfg in
  Alcotest.(check bool) "e1 reaches e7" true (Cfg.reaches cfg r.Resizer.e1 r.Resizer.e7);
  Alcotest.(check bool) "e2 reaches e4" true (Cfg.reaches cfg r.Resizer.e2 r.Resizer.e4);
  Alcotest.(check bool) "branches are exclusive" false
    (Cfg.reaches cfg r.Resizer.e2 r.Resizer.e5);
  Alcotest.(check bool) "no reach against flow" false
    (Cfg.reaches cfg r.Resizer.e7 r.Resizer.e1)

let test_sink_reachability () =
  let r = Lazy.force rz in
  let cfg = r.Resizer.cfg in
  (* Sinking from a branch edge across the join is forbidden... *)
  Alcotest.(check bool) "e4 cannot sink past join" false
    (Cfg.sink_reaches cfg r.Resizer.e4 r.Resizer.e6);
  Alcotest.(check bool) "e5 cannot sink past join" false
    (Cfg.sink_reaches cfg r.Resizer.e5 r.Resizer.e6);
  (* ... but within a branch and across plain states it is fine. *)
  Alcotest.(check bool) "e2 sinks to e4" true
    (Cfg.sink_reaches cfg r.Resizer.e2 r.Resizer.e4);
  Alcotest.(check bool) "e6 sinks to e7 across a state" true
    (Cfg.sink_reaches cfg r.Resizer.e6 r.Resizer.e7);
  Alcotest.(check bool) "same edge" true (Cfg.sink_reaches cfg r.Resizer.e1 r.Resizer.e1)

let test_dominance () =
  let r = Lazy.force rz in
  let cfg = r.Resizer.cfg in
  Alcotest.(check bool) "e1 dominates e4" true
    (Cfg.edge_dominates cfg r.Resizer.e1 r.Resizer.e4);
  Alcotest.(check bool) "e2 dominates e4" true
    (Cfg.edge_dominates cfg r.Resizer.e2 r.Resizer.e4);
  Alcotest.(check bool) "e3 does not dominate e4" false
    (Cfg.edge_dominates cfg r.Resizer.e3 r.Resizer.e4);
  Alcotest.(check bool) "e2 does not dominate e6" false
    (Cfg.edge_dominates cfg r.Resizer.e2 r.Resizer.e6);
  Alcotest.(check bool) "e1 dominates e6" true
    (Cfg.edge_dominates cfg r.Resizer.e1 r.Resizer.e6);
  Alcotest.(check bool) "self dominance" true
    (Cfg.edge_dominates cfg r.Resizer.e5 r.Resizer.e5)

let test_state_index () =
  let r = Lazy.force rz in
  let cfg = r.Resizer.cfg in
  Alcotest.(check int) "e1 in step 0" 0 (Cfg.state_of_edge cfg r.Resizer.e1);
  Alcotest.(check int) "e2 in step 0" 0 (Cfg.state_of_edge cfg r.Resizer.e2);
  Alcotest.(check int) "e4 in step 1" 1 (Cfg.state_of_edge cfg r.Resizer.e4);
  Alcotest.(check int) "e6 in step 1" 1 (Cfg.state_of_edge cfg r.Resizer.e6);
  Alcotest.(check int) "e7 in step 2" 2 (Cfg.state_of_edge cfg r.Resizer.e7);
  Alcotest.(check int) "max step" 2 (Cfg.max_state_index cfg)

let test_malformed_unreachable () =
  let cfg = Cfg.create () in
  let a = Cfg.add_node cfg Cfg.State in
  let b = Cfg.add_node cfg Cfg.State in
  ignore (Cfg.add_edge cfg (Cfg.start cfg) a);
  (* b is disconnected *)
  ignore b;
  Alcotest.check_raises "unreachable node rejected"
    (Cfg.Malformed "node 2 unreachable from start")
    (fun () -> Cfg.seal cfg)

let test_malformed_combinational_loop () =
  let cfg = Cfg.create () in
  let a = Cfg.add_node cfg Cfg.Plain in
  let b = Cfg.add_node cfg Cfg.Plain in
  ignore (Cfg.add_edge cfg (Cfg.start cfg) a);
  ignore (Cfg.add_edge cfg a b);
  ignore (Cfg.add_edge cfg b a);
  (match Cfg.seal cfg with
  | () -> Alcotest.fail "stateless cycle must be rejected"
  | exception Cfg.Malformed _ -> ())

let test_mutation_after_seal () =
  let r = Lazy.force rz in
  (match Cfg.add_node r.Resizer.cfg Cfg.State with
  | _ -> Alcotest.fail "mutation after seal must fail"
  | exception Invalid_argument _ -> ())

let test_single_start () =
  let cfg = Cfg.create () in
  (match Cfg.add_node cfg Cfg.Start with
  | _ -> Alcotest.fail "second start must be rejected"
  | exception Invalid_argument _ -> ())

let linear_cfg n_states =
  (* start -> s1 -> s2 ... -> exit, one edge between consecutive nodes *)
  let cfg = Cfg.create () in
  let prev = ref (Cfg.start cfg) in
  let edges = ref [] in
  for _ = 1 to n_states do
    let s = Cfg.add_node cfg Cfg.State in
    edges := Cfg.add_edge cfg !prev s :: !edges;
    prev := s
  done;
  let ex = Cfg.add_node cfg Cfg.Exit in
  edges := Cfg.add_edge cfg !prev ex :: !edges;
  Cfg.seal cfg;
  (cfg, List.rev !edges)

let test_linear_latencies () =
  let cfg, edges = linear_cfg 5 in
  let arr = Array.of_list edges in
  for i = 0 to 5 do
    for j = i to 5 do
      check_latency cfg arr.(i) arr.(j) (Some (j - i))
        (Printf.sprintf "linear latency %d->%d" i j)
    done
  done

let prop_latency_triangle =
  (* On random linear chains with random state/plain nodes, latency is the
     count of state nodes between edges and is additive. *)
  QCheck.Test.make ~name:"latency additivity on chains" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 12) bool)
    (fun pattern ->
      let cfg = Cfg.create () in
      let prev = ref (Cfg.start cfg) in
      let edges = ref [] in
      List.iter
        (fun is_state ->
          let n = Cfg.add_node cfg (if is_state then Cfg.State else Cfg.Plain) in
          edges := Cfg.add_edge cfg !prev n :: !edges;
          prev := n)
        pattern;
      let ex = Cfg.add_node cfg Cfg.Exit in
      edges := Cfg.add_edge cfg !prev ex :: !edges;
      Cfg.seal cfg;
      let arr = Array.of_list (List.rev !edges) in
      let n = Array.length arr in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = i to n - 1 do
          for k = j to n - 1 do
            match
              (Cfg.latency cfg arr.(i) arr.(j), Cfg.latency cfg arr.(j) arr.(k),
               Cfg.latency cfg arr.(i) arr.(k))
            with
            | Some a, Some b, Some c -> if a + b <> c then ok := false
            | _ -> ok := false
          done
        done
      done;
      !ok)

(* [Cfg.reaches] is one table lookup.  Oracle: its former definition over
   node reachability recomputed here by a forward-edge walk.  An edge
   reaches itself; otherwise a backward edge reaches, and is reached by,
   nothing; otherwise [e2] is reached when its source is forward-reachable
   from [e1]'s target. *)
let old_reaches cfg =
  let n = Cfg.node_count cfg in
  let src e = Cfg.Node_id.to_int (Cfg.edge_src cfg e)
  and dst e = Cfg.Node_id.to_int (Cfg.edge_dst cfg e) in
  let node_reach =
    Array.init n (fun v ->
        let seen = Array.make n false in
        let rec go u =
          if not seen.(u) then begin
            seen.(u) <- true;
            List.iter
              (fun e -> if not (Cfg.is_backward cfg e) then go (dst e))
              (Cfg.out_edges cfg (Cfg.Node_id.of_int u))
          end
        in
        go v;
        seen)
  in
  fun e1 e2 ->
    Cfg.Edge_id.equal e1 e2
    || (not (Cfg.is_backward cfg e1))
       && (not (Cfg.is_backward cfg e2))
       && node_reach.(dst e1).(src e2)

let test_reaches_oracle () =
  let cfgs =
    [
      ("interpolation", Dfg.cfg (Interpolation.unrolled ()).Interpolation.dfg);
      ("fir8", Dfg.cfg (Fir.build ~taps:8 ~latency:6 ()).Fir.dfg);
      ("idct", Dfg.cfg (Idct.build ~latency:12 ~passes:1 ()).Idct.dfg);
      ("resizer", (Resizer.full ()).Resizer.cfg);
    ]
    @ List.map (fun p -> (p.Idct.id, Dfg.cfg (Idct.instantiate p).Idct.dfg)) Idct.table4_points
    @ List.map
        (fun (e : Corpus.entry) -> (e.Corpus.name, Dfg.cfg (Corpus.design e).Random_design.dfg))
        (Corpus.plan ~count:8 ~seed:42 ())
  in
  let backward = ref 0 and reached = ref 0 and pairs = ref 0 in
  List.iter
    (fun (name, cfg) ->
      let old = old_reaches cfg in
      let edges = List.init (Cfg.edge_count cfg) Cfg.Edge_id.of_int in
      List.iter
        (fun e1 ->
          if Cfg.is_backward cfg e1 then incr backward;
          List.iter
            (fun e2 ->
              incr pairs;
              let want = old e1 e2 in
              if want then incr reached;
              if Cfg.reaches cfg e1 e2 <> want then
                Alcotest.failf "%s: reaches e%d e%d is %b, the definition says %b" name
                  (Cfg.Edge_id.to_int e1) (Cfg.Edge_id.to_int e2) (not want) want)
            edges)
        edges)
    cfgs;
  Alcotest.(check bool)
    (Printf.sprintf "backward edges covered (%d), both answers (%d of %d pairs reach)"
       !backward !reached !pairs)
    true
    (!backward > 0 && !reached > 0 && !reached < !pairs)

let suite =
  [
    Alcotest.test_case "paper latency examples" `Quick test_paper_latencies;
    Alcotest.test_case "backward edge classification" `Quick test_backward_edges;
    Alcotest.test_case "edge reachability" `Quick test_reachability;
    Alcotest.test_case "reaches table equals its definition" `Quick test_reaches_oracle;
    Alcotest.test_case "join-free sink reachability" `Quick test_sink_reachability;
    Alcotest.test_case "edge dominance" `Quick test_dominance;
    Alcotest.test_case "control-step indices" `Quick test_state_index;
    Alcotest.test_case "unreachable node rejected" `Quick test_malformed_unreachable;
    Alcotest.test_case "combinational loop rejected" `Quick test_malformed_combinational_loop;
    Alcotest.test_case "mutation after seal rejected" `Quick test_mutation_after_seal;
    Alcotest.test_case "single start enforced" `Quick test_single_start;
    Alcotest.test_case "linear chain latencies" `Quick test_linear_latencies;
    QCheck_alcotest.to_alcotest prop_latency_triangle;
  ]

let () = Alcotest.run "cfg" [ ("cfg", suite) ]
