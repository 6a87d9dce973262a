type point = { flow : Flows.flow; clock : float; ii : int option; recover : bool }

type t = {
  clocks : float list;        (* ascending, deduplicated *)
  flows : Flows.flow list;    (* first-occurrence order *)
  iis : int option list;
  recover : bool list;
}

let max_points = 100_000

let flow_short = Flows.short_name

let dedup xs =
  List.rev
    (List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] xs)

let make ~clocks ~flows ?(iis = [ None ]) ?(recover = [ true ]) () =
  let clocks = List.sort_uniq Float.compare clocks in
  let flows = dedup flows and iis = dedup iis and recover = dedup recover in
  if clocks = [] then Error "empty clock axis"
  else if flows = [] then Error "empty flow axis"
  else if iis = [] then Error "empty initiation-interval axis"
  else if recover = [] then Error "empty recovery axis"
  else if List.exists (fun c -> not (Float.is_finite c) || c <= 0.0) clocks then
    Error "clock periods must be finite and positive"
  else if List.exists (function Some ii -> ii < 1 | None -> false) iis then
    Error "initiation intervals must be at least 1"
  else
    let size =
      List.length clocks * List.length flows * List.length iis * List.length recover
    in
    if size > max_points then
      Error (Printf.sprintf "grid has %d points (max %d)" size max_points)
    else Ok { clocks; flows; iis; recover }

let size t =
  List.length t.clocks * List.length t.flows * List.length t.iis
  * List.length t.recover

let points t =
  List.concat_map
    (fun flow ->
      List.concat_map
        (fun clock ->
          List.concat_map
            (fun ii -> List.map (fun recover -> { flow; clock; ii; recover }) t.recover)
            t.iis)
        t.clocks)
    t.flows

let point_key p =
  Printf.sprintf "flow=%s,clock=%.3f,ii=%s,recover=%s" (flow_short p.flow) p.clock
    (match p.ii with Some i -> string_of_int i | None -> "none")
    (if p.recover then "on" else "off")

(* ------------------------------------------------------------------ *)
(* Spec parsing *)

let ( let* ) = Result.bind

let split_commas s =
  List.filter (fun x -> x <> "") (String.split_on_char ',' (String.trim s))

let rec map_items f = function
  | [] -> Ok []
  | x :: rest ->
    let* y = f x in
    let* ys = map_items f rest in
    Ok (y :: ys)

let float_item s =
  match float_of_string_opt (String.trim s) with
  | Some f when Float.is_finite f -> Ok f
  | _ -> Error (Printf.sprintf "bad number %S" s)

(* Grid specs are user input straight from the command line: every parser
   bounds the expansion so "1:1e9:1" is a usage error, not a hang. *)
let parse_clocks spec =
  let expand item =
    match String.split_on_char ':' item with
    | [ single ] ->
      let* c = float_item single in
      Ok [ c ]
    | [ lo; hi; step ] ->
      let* lo = float_item lo in
      let* hi = float_item hi in
      let* step = float_item step in
      if step <= 0.0 then Error (Printf.sprintf "bad range %S: step must be positive" item)
      else if lo > hi then Error (Printf.sprintf "bad range %S: lo > hi" item)
      else if (hi -. lo) /. step > float_of_int max_points then
        Error (Printf.sprintf "range %S expands past %d points" item max_points)
      else begin
        let out = ref [] in
        let c = ref lo in
        (* Half-a-step tolerance so "2000:3000:250" includes 3000 despite
           float accumulation. *)
        while !c <= hi +. (step /. 2.0) do
          out := Float.min !c hi :: !out;
          c := !c +. step
        done;
        Ok (List.rev !out)
      end
    | _ -> Error (Printf.sprintf "bad clock item %S (want PS or LO:HI:STEP)" item)
  in
  match split_commas spec with
  | [] -> Error "empty clock spec"
  | items ->
    let* groups = map_items expand items in
    Ok (List.concat groups)

let parse_flows spec =
  match String.trim spec with
  | "all" -> Ok Flows.all
  | _ -> (
    let flow_item s =
      let s = String.trim s in
      match Flows.of_name s with
      | Some flow -> Ok flow
      | None -> Error (Printf.sprintf "unknown flow %S (try: conv, slowest, slack, all)" s)
    in
    match split_commas spec with
    | [] -> Error "empty flow spec"
    | items -> map_items flow_item items)

let parse_iis spec =
  let int_item s =
    match int_of_string_opt (String.trim s) with
    | Some i when i >= 1 -> Ok i
    | _ -> Error (Printf.sprintf "bad initiation interval %S" s)
  in
  let expand item =
    match String.trim item with
    | "none" | "off" -> Ok [ None ]
    | item -> (
      match String.split_on_char ':' item with
      | [ single ] ->
        let* i = int_item single in
        Ok [ Some i ]
      | [ lo; hi ] | [ lo; hi; _ ] as parts ->
        let* lo = int_item lo in
        let* hi = int_item hi in
        let* step =
          match parts with [ _; _; s ] -> int_item s | _ -> Ok 1
        in
        if lo > hi then Error (Printf.sprintf "bad range %S: lo > hi" item)
        else if (hi - lo) / step > max_points then
          Error (Printf.sprintf "range %S expands past %d points" item max_points)
        else begin
          let out = ref [] in
          let i = ref lo in
          while !i <= hi do
            out := Some !i :: !out;
            i := !i + step
          done;
          Ok (List.rev !out)
        end
      | _ -> Error (Printf.sprintf "bad ii item %S (want none, N or LO:HI[:STEP])" item))
  in
  match split_commas spec with
  | [] -> Error "empty ii spec"
  | items ->
    let* groups = map_items expand items in
    Ok (List.concat groups)

let parse_recover spec =
  match String.trim spec with
  | "on" -> Ok [ true ]
  | "off" -> Ok [ false ]
  | "both" -> Ok [ true; false ]
  | other -> Error (Printf.sprintf "bad recovery spec %S (try: on, off, both)" other)

let of_specs ~clocks ~flows ?(iis = "none") ?(recover = "on") () =
  let* clocks = parse_clocks clocks in
  let* flows = parse_flows flows in
  let* iis = parse_iis iis in
  let* recover = parse_recover recover in
  make ~clocks ~flows ~iis ~recover ()
