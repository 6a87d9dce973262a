type status = Success | Infeasible | Timeout | Crash

let status_name = function
  | Success -> "ok"
  | Infeasible -> "infeasible"
  | Timeout -> "timed_out"
  | Crash -> "crashed"

let status_of_name = function
  | "ok" -> Some Success
  | "infeasible" -> Some Infeasible
  | "timed_out" -> Some Timeout
  | "crashed" -> Some Crash
  | _ -> None

type summary = {
  status : status;
  area : float;
  steps : int;
  delay_ps : float;
  relaxations : int;
  regrades : int;
  recoveries : int;
  error : string;
}

let ok s = s.status = Success

(* The table is shared state: the CLI touches it from one thread, but the
   serve daemon keeps one warm cache across concurrent connection threads,
   so every entry access goes through [lock]. *)
type t = {
  entries : (string, summary) Hashtbl.t;
  lock : Mutex.t;
  mutable quarantined : int;
}

let c_hits = Obs.counter "explore.cache.hits"
let c_misses = Obs.counter "explore.cache.misses"
let c_quarantined = Obs.counter "cache.quarantined"

(* v2: the boolean ok column became a four-valued status
   (ok|infeasible|timed_out|crashed) when sweeps grew supervision. *)
let magic = "slackhls-explore-cache v2"

let create () =
  { entries = Hashtbl.create 64; lock = Mutex.create (); quarantined = 0 }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let size t = locked t (fun () -> Hashtbl.length t.entries)
let quarantined t = t.quarantined

let key ~digest ~lib ~config ~point_key =
  String.concat "|" [ digest; lib; config; point_key ]

let find t k =
  match locked t (fun () -> Hashtbl.find_opt t.entries k) with
  | Some _ as hit ->
    Obs.incr c_hits;
    hit
  | None ->
    Obs.incr c_misses;
    None

let add t k s = locked t (fun () -> Hashtbl.replace t.entries k s)

(* One entry per line:
     key \t status \t area \t steps \t delay \t relax \t regrades \t recov \t error
   [%h] floats round-trip exactly; the error message is [String.escaped]
   so it can carry anything the flow printer produced.  The same record
   format is the checkpoint journal's payload ([Journal]). *)
let entry_line k s =
  Printf.sprintf "%s\t%s\t%h\t%d\t%h\t%d\t%d\t%d\t%s" k (status_name s.status)
    s.area s.steps s.delay_ps s.relaxations s.regrades s.recoveries
    (String.escaped s.error)

let parse_line ln =
  match String.split_on_char '\t' ln with
  | [ k; status; area; steps; delay; relax; regrades; recov; error ] -> (
    match
      ( status_of_name status,
        float_of_string_opt area,
        int_of_string_opt steps,
        float_of_string_opt delay,
        int_of_string_opt relax,
        int_of_string_opt regrades,
        int_of_string_opt recov )
    with
    | Some status, Some area, Some steps, Some delay_ps, Some relaxations,
      Some regrades, Some recoveries ->
      let error = try Scanf.unescaped error with Scanf.Scan_failure _ -> error in
      Some
        ( k,
          { status; area; steps; delay_ps; relaxations; regrades; recoveries; error }
        )
    | _ -> None)
  | _ -> None

let load ~path =
  if not (Sys.file_exists path) then Ok (create ())
  else
    match open_in path with
    | exception Sys_error m -> Error m
    | ic -> (
      (* [open_in] on e.g. a directory succeeds on Linux; the Sys_error only
         surfaces at the first read. *)
      try
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            match input_line ic with
            | exception End_of_file -> Error (path ^ ": empty cache file")
            | first when first <> magic ->
              Error (Printf.sprintf "%s: not a %S file" path magic)
            | _ ->
              (* Individually corrupt records (a torn write, a partial fsync)
                 are quarantined — counted and skipped — so one bad line
                 costs one evaluation, not the whole file. *)
              let t = create () in
              let rec go () =
                match input_line ic with
                | exception End_of_file -> Ok t
                | "" -> go ()
                | ln ->
                  (match parse_line ln with
                  | Some (k, s) -> Hashtbl.replace t.entries k s
                  | None ->
                    t.quarantined <- t.quarantined + 1;
                    Obs.incr c_quarantined);
                  go ()
              in
              go ())
      with Sys_error m -> Error (Printf.sprintf "%s: %s" path m))

let save t ~path =
  let entries =
    locked t (fun () -> Hashtbl.fold (fun k s acc -> (k, s) :: acc) t.entries [])
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc magic;
      output_char oc '\n';
      List.iter
        (fun (k, s) ->
          output_string oc (entry_line k s);
          output_char oc '\n')
        entries)
