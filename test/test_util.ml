(* Utility-layer tests: ids, intervals, vectors, RNG, table rendering. *)

module Tid = Id.Make ()

let test_id_roundtrip () =
  Alcotest.(check int) "roundtrip" 42 (Tid.to_int (Tid.of_int 42));
  Alcotest.(check bool) "equal" true (Tid.equal (Tid.of_int 3) (Tid.of_int 3));
  (match Tid.of_int (-1) with
  | _ -> Alcotest.fail "negative id must be rejected"
  | exception Invalid_argument _ -> ())

let test_id_containers () =
  let s = Tid.Set.of_list [ Tid.of_int 1; Tid.of_int 2; Tid.of_int 1 ] in
  Alcotest.(check int) "set dedups" 2 (Tid.Set.cardinal s);
  let m = Tid.Map.singleton (Tid.of_int 7) "x" in
  Alcotest.(check (option string)) "map find" (Some "x") (Tid.Map.find_opt (Tid.of_int 7) m)

let test_interval () =
  let i = Interval.make 2.0 5.0 in
  Alcotest.(check bool) "mem" true (Interval.mem 3.0 i);
  Alcotest.(check bool) "not mem" false (Interval.mem 5.5 i);
  Alcotest.(check (float 1e-9)) "clamp low" 2.0 (Interval.clamp i 0.0);
  Alcotest.(check (float 1e-9)) "clamp high" 5.0 (Interval.clamp i 9.0);
  Alcotest.(check (float 1e-9)) "width" 3.0 (Interval.width i);
  (match Interval.make 5.0 2.0 with
  | _ -> Alcotest.fail "inverted interval must be rejected"
  | exception Invalid_argument _ -> ());
  (match Interval.intersect (Interval.make 0.0 1.0) (Interval.make 2.0 3.0) with
  | None -> ()
  | Some _ -> Alcotest.fail "disjoint intervals intersect to None");
  (match Interval.intersect (Interval.make 0.0 2.0) (Interval.make 1.0 3.0) with
  | Some r ->
    Alcotest.(check (float 1e-9)) "intersect lo" 1.0 (Interval.lo r);
    Alcotest.(check (float 1e-9)) "intersect hi" 2.0 (Interval.hi r)
  | None -> Alcotest.fail "overlapping intervals must intersect")

let test_vec () =
  let v = Vec.create () in
  for i = 0 to 99 do
    Alcotest.(check int) "push index" i (Vec.push v (i * 2))
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get" 84 (Vec.get v 42);
  Vec.set v 42 0;
  Alcotest.(check int) "set" 0 (Vec.get v 42);
  Alcotest.(check int) "fold" (List.length (Vec.to_list v)) 100;
  (match Vec.get v 100 with
  | _ -> Alcotest.fail "out of range get must fail"
  | exception Invalid_argument _ -> ())

let test_splitmix_determinism () =
  let a = Splitmix.create 12345 and b = Splitmix.create 12345 in
  for _ = 1 to 50 do
    Alcotest.(check int64) "same stream" (Splitmix.next_int64 a) (Splitmix.next_int64 b)
  done;
  let c = Splitmix.create 54321 in
  Alcotest.(check bool) "different seed, different stream" true
    (Splitmix.next_int64 a <> Splitmix.next_int64 c)

let test_splitmix_bounds () =
  let rng = Splitmix.create 7 in
  for _ = 1 to 1000 do
    let v = Splitmix.int rng 10 in
    if v < 0 || v >= 10 then Alcotest.fail "int out of bounds";
    let f = Splitmix.float rng 3.0 in
    if f < 0.0 || f >= 3.0 then Alcotest.fail "float out of bounds"
  done

let test_splitmix_shuffle_permutes () =
  let rng = Splitmix.create 99 in
  let arr = Array.init 20 Fun.id in
  Splitmix.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 20 Fun.id) sorted

let test_text_table () =
  let t = Text_table.create ~headers:[ "Des"; "A" ] in
  Text_table.add_row t [ "D1"; "90085" ];
  Text_table.add_row t [ "D2" ];
  let s = Text_table.render t in
  Alcotest.(check bool) "contains header" true (String.length s > 0);
  Alcotest.(check bool) "contains row" true
    (String.length s >= String.length "D1  90085");
  (match Text_table.add_row t [ "a"; "b"; "c" ] with
  | _ -> Alcotest.fail "too many cells must be rejected"
  | exception Invalid_argument _ -> ())

(* Progress lines at supplied timestamps: the first is due one period
   after the start, whatever the clock's origin (zero, large, negative),
   and each later one a period after the last. *)
let test_throttle () =
  let s = 1_000_000_000L in
  let fires start offsets =
    let t = Throttle.create ~now:start in
    List.filter (fun dt -> Throttle.due t ~now:(Int64.add start dt)) offsets
  in
  (* Due at 1 s; at 2.1 s, 1.1 s after that line; not at 3 s, 0.9 s
     after it. *)
  let offsets =
    [ 0L; 500_000_000L; 999_999_999L; s; 1_200_000_000L; 2_100_000_000L; 3_000_000_000L ]
  in
  List.iter
    (fun start ->
      Alcotest.(check (list int64))
        (Printf.sprintf "lines from start %Ld" start)
        [ s; 2_100_000_000L ] (fires start offsets))
    [ 0L; 123_456_789_012L; -5_000_000_000L ]

let prop_interval_clamp =
  QCheck.Test.make ~name:"clamp is in interval" ~count:200
    QCheck.(triple (float_range (-100.) 100.) (float_range 0. 50.) (float_range (-200.) 200.))
    (fun (lo, w, x) ->
      let i = Interval.make lo (lo +. w) in
      Interval.mem (Interval.clamp i x) i)

let suite =
  [
    Alcotest.test_case "id roundtrip" `Quick test_id_roundtrip;
    Alcotest.test_case "id containers" `Quick test_id_containers;
    Alcotest.test_case "interval basics" `Quick test_interval;
    Alcotest.test_case "vec" `Quick test_vec;
    Alcotest.test_case "splitmix determinism" `Quick test_splitmix_determinism;
    Alcotest.test_case "splitmix bounds" `Quick test_splitmix_bounds;
    Alcotest.test_case "splitmix shuffle" `Quick test_splitmix_shuffle_permutes;
    Alcotest.test_case "text table" `Quick test_text_table;
    Alcotest.test_case "progress throttle" `Quick test_throttle;
    QCheck_alcotest.to_alcotest prop_interval_clamp;
  ]

let () = Alcotest.run "util" [ ("util", suite) ]
