(* DFG construction, validation and operation spans (paper Figure 5(a)). *)

let span_testable =
  Alcotest.testable
    (fun ppf (e, l) -> Format.fprintf ppf "{e%d..e%d}" (Cfg.Edge_id.to_int e) (Cfg.Edge_id.to_int l))
    (fun (a, b) (c, d) -> Cfg.Edge_id.equal a c && Cfg.Edge_id.equal b d)

let check_span spans o ~early ~late msg =
  let s = spans.(Dfg.Op_id.to_int o) in
  Alcotest.check span_testable msg (early, late) (s.Dfg.early, s.Dfg.late)

let test_figure5_spans () =
  let r = Resizer.table3 () in
  let spans = Dfg.compute_spans r.Resizer.dfg in
  (* Paper: span(rd_a) = {e1}, span(add) = {e1}, span(div) = {e1,e2,e4},
     span(sub) = {e1,e2,e4}, span(rd_b) = {e5}, span(mul) = {e5},
     span(mux) = {e6}, span(wr) = {e7}. *)
  check_span spans r.Resizer.rd_a ~early:r.Resizer.e1 ~late:r.Resizer.e1 "rd_a";
  check_span spans r.Resizer.add ~early:r.Resizer.e1 ~late:r.Resizer.e1 "add";
  check_span spans r.Resizer.div ~early:r.Resizer.e1 ~late:r.Resizer.e4 "div";
  check_span spans r.Resizer.sub ~early:r.Resizer.e1 ~late:r.Resizer.e4 "sub";
  check_span spans r.Resizer.rd_b ~early:r.Resizer.e5 ~late:r.Resizer.e5 "rd_b";
  check_span spans r.Resizer.mul ~early:r.Resizer.e5 ~late:r.Resizer.e5 "mul";
  check_span spans r.Resizer.mux ~early:r.Resizer.e6 ~late:r.Resizer.e6 "mux";
  check_span spans r.Resizer.wr ~early:r.Resizer.e7 ~late:r.Resizer.e7 "wr";
  (* span(div) as an edge set. *)
  let div_edges = Dfg.span_edges r.Resizer.dfg spans.(Dfg.Op_id.to_int r.Resizer.div) in
  Alcotest.(check (list int)) "div span edges"
    (List.map Cfg.Edge_id.to_int [ r.Resizer.e1; r.Resizer.e2; r.Resizer.e4 ])
    (List.map Cfg.Edge_id.to_int div_edges)

let test_spans_with_pin () =
  let r = Resizer.table3 () in
  (* Pinning div on e4 shrinks nothing else here, but pinning it on e1
     constrains nothing upstream; pin sub on e4 and div's late stays e4. *)
  let pin o =
    if Dfg.Op_id.equal o r.Resizer.div then Some r.Resizer.e2 else None
  in
  let spans = Dfg.compute_spans ~pin r.Resizer.dfg in
  check_span spans r.Resizer.div ~early:r.Resizer.e2 ~late:r.Resizer.e2 "pinned div";
  (* sub's early must now respect div's pinned position. *)
  let s = spans.(Dfg.Op_id.to_int r.Resizer.sub) in
  Alcotest.(check bool) "sub early not before e2" true
    (Cfg.reaches r.Resizer.cfg r.Resizer.e2 s.Dfg.early)

let test_topo_order () =
  let r = Resizer.table3 () in
  let order = Dfg.topo_order r.Resizer.dfg in
  Alcotest.(check int) "all ops in order" (Dfg.op_count r.Resizer.dfg) (List.length order);
  let pos = Hashtbl.create 16 in
  List.iteri (fun i o -> Hashtbl.replace pos (Dfg.Op_id.to_int o) i) order;
  let p o = Hashtbl.find pos (Dfg.Op_id.to_int o) in
  Alcotest.(check bool) "rd_a before add" true (p r.Resizer.rd_a < p r.Resizer.add);
  Alcotest.(check bool) "mux before wr" true (p r.Resizer.mux < p r.Resizer.wr)

(* The adjacency and topological order are cached until the next
   mutation: every mutation after a query must show in the next one. *)
let test_caches_follow_mutation () =
  let r = Resizer.table3 () in
  let dfg = r.Resizer.dfg in
  ignore (Dfg.topo_order dfg);
  let extra =
    Dfg.add_op dfg ~kind:Dfg.Add ~width:8 ~birth:(Dfg.op dfg r.Resizer.add).Dfg.birth ()
  in
  Alcotest.(check bool) "added op in the next order" true
    (List.exists (Dfg.Op_id.equal extra) (Dfg.topo_order dfg));
  Dfg.add_dep dfg ~src:r.Resizer.add ~dst:extra ();
  Alcotest.(check (list int)) "preds lists the new producer"
    [ Dfg.Op_id.to_int r.Resizer.add ]
    (List.map Dfg.Op_id.to_int (Dfg.preds dfg extra));
  ignore (Dfg.topo_order dfg);
  Dfg.add_dep dfg ~src:r.Resizer.wr ~dst:r.Resizer.rd_a ();
  match Dfg.topo_order dfg with
  | _ -> Alcotest.fail "a cycle closed after a query must raise Cyclic"
  | exception Dfg.Cyclic path ->
    Alcotest.(check bool) "witness names the cycle" true (path <> [])

let test_loop_carried_excluded () =
  let r = Resizer.full () in
  (* The loop-carried i -> i dependency must not appear among forward
     deps, and the forward DFG must stay acyclic. *)
  let order = Dfg.topo_order r.Resizer.dfg in
  Alcotest.(check int) "topo covers all" (Dfg.op_count r.Resizer.dfg) (List.length order);
  Dfg.iter_ops r.Resizer.dfg (fun o ->
      List.iter
        (fun p -> if Dfg.Op_id.equal p o.Dfg.id then Alcotest.fail "forward self dep")
        (Dfg.preds r.Resizer.dfg o.Dfg.id))

let test_cyclic_forward_rejected () =
  let r = Resizer.table3 () in
  Dfg.add_dep r.Resizer.dfg ~src:r.Resizer.wr ~dst:r.Resizer.rd_a ();
  (match Dfg.validate r.Resizer.dfg with
  | () -> Alcotest.fail "cyclic forward DFG must be rejected"
  | exception Dfg.Malformed _ -> ())

let test_unrealizable_dep_rejected () =
  let r = Resizer.table3 () in
  (* mul (else branch) feeding sub (then branch) crosses no forward path. *)
  Dfg.add_dep r.Resizer.dfg ~src:r.Resizer.mul ~dst:r.Resizer.sub ();
  (match Dfg.validate r.Resizer.dfg with
  | () -> Alcotest.fail "cross-branch dep must be rejected"
  | exception Dfg.Malformed _ -> ())

let test_fixedness_defaults () =
  let r = Resizer.table3 () in
  let check o expected msg =
    Alcotest.(check bool) msg expected (Dfg.op r.Resizer.dfg o).Dfg.fixed
  in
  check r.Resizer.rd_a true "read fixed";
  check r.Resizer.wr true "write fixed";
  check r.Resizer.mux true "mux fixed";
  check r.Resizer.add false "add movable";
  check r.Resizer.div false "div movable"

let test_interpolation_spans () =
  let ip = Interpolation.unrolled () in
  let spans = Dfg.compute_spans ip.Interpolation.dfg in
  let e1 = ip.Interpolation.step_edges.(0) and e3 = ip.Interpolation.step_edges.(2) in
  (* First x multiplication can be anywhere in the three steps; the write
     is fixed on the last step edge. *)
  check_span spans ip.Interpolation.wr ~early:e3 ~late:e3 "wr fixed";
  let s0 = spans.(Dfg.Op_id.to_int ip.Interpolation.muls_x.(0)) in
  Alcotest.(check int) "mx1 early is step 0" (Cfg.Edge_id.to_int e1)
    (Cfg.Edge_id.to_int s0.Dfg.early);
  Alcotest.(check int) "mx1 late is step 2" (Cfg.Edge_id.to_int e3)
    (Cfg.Edge_id.to_int s0.Dfg.late);
  (* Last add must not move past the write's edge. *)
  let s_a4 = spans.(Dfg.Op_id.to_int ip.Interpolation.adds.(3)) in
  Alcotest.(check int) "a4 late bounded by wr" (Cfg.Edge_id.to_int e3)
    (Cfg.Edge_id.to_int s_a4.Dfg.late)

(* Pins the exact bytes [Dfg.digest] hashes, which every manifest digest,
   evaluation-cache key and journal key is built from: every CFG node kind,
   every op kind (port names and a negative constant included), multi-digit
   numbers, a named and a fixed op, and dependencies inserted out of order
   (one loop-carried, one repeated). *)
let test_digest_pinned () =
  let cfg = Cfg.create () in
  let node = Cfg.add_node cfg in
  let plain = node Cfg.Plain and fork = node Cfg.Fork and s1 = node Cfg.State in
  let s2 = node Cfg.State and join = node Cfg.Join and ex = node Cfg.Exit in
  let edges =
    List.map
      (fun (a, b) -> Cfg.add_edge cfg a b)
      [ (Cfg.start cfg, plain); (plain, fork); (fork, s1); (fork, s2); (s1, join); (s2, join);
        (join, fork); (join, ex) ]
    |> Array.of_list
  in
  let dfg = Dfg.create cfg in
  let kinds =
    Dfg.
      [ Add; Sub; Mul; Div; Modulo; Shl; Shr; Land; Lor; Lxor; Lnot; Cmp Lt; Cmp Le; Cmp Eq;
        Cmp Ne; Cmp Ge; Cmp Gt; Mux; Read "in_a"; Write "out_b"; Const (-42); Const 7 ]
  in
  let widths = [| 1; 9; 10; 32; 1234567 |] in
  let ops =
    List.mapi
      (fun i kind ->
        let name = if i = 3 then Some "acc" else None in
        Dfg.add_op dfg ~kind ~width:widths.(i mod 5) ~birth:edges.(i mod 6) ~fixed:(i = 1)
          ?name ())
      kinds
    |> Array.of_list
  in
  List.iter
    (fun (src, dst, loop_carried) ->
      Dfg.add_dep dfg ~src:ops.(src) ~dst:ops.(dst) ~loop_carried ())
    [ (20, 0, false); (11, 12, false); (3, 2, true); (0, 1, false); (0, 1, false);
      (18, 19, false); (4, 4, true) ];
  Alcotest.(check string) "digest" "f63253a7278fa952c8a54eddc3b1e3d9" (Dfg.digest dfg)

let prop_span_contains_consistent_window =
  (* On random linear-chain DFGs over a linear CFG, every span satisfies
     early reaches late, and spans of dependent ops are ordered. *)
  QCheck.Test.make ~name:"span windows are ordered along chains" ~count:60
    QCheck.(int_range 0 1000000)
    (fun seed ->
      let rng = Splitmix.create seed in
      let n_states = 2 + Splitmix.int rng 4 in
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
      let edges = Array.of_list (List.rev !edges) in
      let dfg = Dfg.create cfg in
      let n_ops = 2 + Splitmix.int rng 8 in
      let ops =
        Array.init n_ops (fun i ->
            let birth = edges.(Splitmix.int rng (Array.length edges)) in
            let fixed = i = 0 || i = n_ops - 1 in
            Dfg.add_op dfg ~kind:Dfg.Add ~width:8 ~birth ~fixed ())
      in
      (* Chain deps in birth-step order to stay realizable. *)
      let by_step =
        Array.to_list ops
        |> List.sort (fun a b ->
               compare
                 (Cfg.state_of_edge cfg (Dfg.op dfg a).Dfg.birth)
                 (Cfg.state_of_edge cfg (Dfg.op dfg b).Dfg.birth))
      in
      let rec chain = function
        | a :: (b :: _ as rest) ->
          Dfg.add_dep dfg ~src:a ~dst:b ();
          chain rest
        | [ _ ] | [] -> ()
      in
      chain by_step;
      Dfg.validate dfg;
      let spans = Dfg.compute_spans dfg in
      Array.for_all
        (fun s -> Cfg.reaches cfg s.Dfg.early s.Dfg.late)
        spans
      &&
      let rec ordered = function
        | a :: (b :: _ as rest) ->
          let sa = spans.(Dfg.Op_id.to_int a) and sb = spans.(Dfg.Op_id.to_int b) in
          Cfg.reaches cfg sa.Dfg.early sb.Dfg.early && ordered rest
        | [ _ ] | [] -> true
      in
      ordered by_step)

let suite =
  [
    Alcotest.test_case "figure 5(a) spans" `Quick test_figure5_spans;
    Alcotest.test_case "spans with pinning" `Quick test_spans_with_pin;
    Alcotest.test_case "topological order" `Quick test_topo_order;
    Alcotest.test_case "caches follow mutation" `Quick test_caches_follow_mutation;
    Alcotest.test_case "loop-carried deps excluded" `Quick test_loop_carried_excluded;
    Alcotest.test_case "cyclic forward DFG rejected" `Quick test_cyclic_forward_rejected;
    Alcotest.test_case "unrealizable dep rejected" `Quick test_unrealizable_dep_rejected;
    Alcotest.test_case "fixedness defaults" `Quick test_fixedness_defaults;
    Alcotest.test_case "interpolation spans" `Quick test_interpolation_spans;
    Alcotest.test_case "digest bytes pinned" `Quick test_digest_pinned;
    QCheck_alcotest.to_alcotest prop_span_contains_consistent_window;
  ]

let () = Alcotest.run "dfg" [ ("dfg", suite) ]
