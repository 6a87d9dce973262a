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
let c_records = Obs.counter "explore.journal.records"
let c_journal_quarantined = Obs.counter "explore.journal.quarantined"

(* Short alias kept in lockstep with the legacy counter: the serve daemon's
   --stats reads [journal.quarantined]; the bench baseline gate pins the
   long name, so both are bumped. *)
let c_journal_quarantined_short = Obs.counter "journal.quarantined"

let c_salvaged = Obs.counter "journal.salvaged"
let c_merged = Obs.counter "shard.merged"
let c_duplicates = Obs.counter "shard.duplicates"

(* Every file the store writes starts with [magic].  Caches written before
   caches and journals shared a header start with [magic_cache_v2]; their
   records are the same, so they still load. *)
let magic = "slackhls-explore-journal v1"
let magic_cache_v2 = "slackhls-explore-cache v2"

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
   so it can carry anything the flow printer produced. *)
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

(* What a record file holds, before a corruption policy judges it: the
   well-formed records in file order, the malformed lines before the last,
   and whether an unterminated last line was dropped. *)
type contents =
  | Missing
  | Empty  (* a kill between openfile and the header fsync *)
  | Torn_header  (* a strict prefix of [magic] and nothing more *)
  | Records of { records : (string * summary) list; corrupt : int; torn_tail : bool }

let not_a_record_file path = Error (Printf.sprintf "%s: not a %S file" path magic)

let read ~path =
  if not (Sys.file_exists path) then Ok Missing
  else
    (* [open_in] on e.g. a directory succeeds on Linux; the Sys_error only
       surfaces at the first read.  Reading the whole file (rather than
       line-by-line) shows whether the last record has its terminating
       newline — [input_line] cannot. *)
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error m -> Error (Printf.sprintf "%s: %s" path m)
    | "" -> Ok Empty
    | contents -> (
      let terminated = String.ends_with ~suffix:"\n" contents in
      let n = String.length contents - Bool.to_int terminated in
      match String.split_on_char '\n' (String.sub contents 0 n) with
      | first :: rest when first = magic || first = magic_cache_v2 ->
        let rec go acc corrupt = function
          | [] -> Records { records = List.rev acc; corrupt; torn_tail = false }
          | [ tail ] when not terminated ->
            (* Dropped even if it happens to parse: without its newline
               the flush may have stopped mid-field. *)
            Records { records = List.rev acc; corrupt; torn_tail = tail <> "" }
          | "" :: tl -> go acc corrupt tl
          | ln :: tl -> (
            match parse_line ln with
            | Some entry -> go (entry :: acc) corrupt tl
            | None -> go acc (corrupt + 1) tl)
        in
        Ok (go [] 0 rest)
      | [ first ]
        when String.length first < String.length magic
             && String.starts_with ~prefix:first magic ->
        Ok Torn_header
      | _ -> not_a_record_file path)

let load ~path =
  match read ~path with
  | Error m -> Error m
  | Ok Missing -> Ok (create ())
  | Ok Empty -> Error (path ^ ": empty cache file")
  | Ok Torn_header -> not_a_record_file path
  | Ok (Records { records; corrupt; torn_tail }) ->
    (* A cache is written whole, so a torn last record is corruption like
       any other: quarantined — counted and skipped — so one bad line costs
       one evaluation, not the whole file. *)
    let t = create () in
    List.iter (fun (k, s) -> Hashtbl.replace t.entries k s) records;
    t.quarantined <- corrupt + Bool.to_int torn_tail;
    Obs.add c_quarantined t.quarantined;
    Ok t

let quarantine_journal_lines n =
  Obs.add c_journal_quarantined n;
  Obs.add c_journal_quarantined_short n

let load_journal ~path =
  match read ~path with
  | Error m -> Error m
  | Ok (Missing | Empty) -> Ok ([], 0)
  | Ok Torn_header ->
    (* A kill during the header write: the journal never recorded a
       point. *)
    quarantine_journal_lines 1;
    Ok ([], 1)
  | Ok (Records { records; corrupt; torn_tail }) ->
    (* Mid-file garbage cannot come from a clean crash: quarantined.  A torn
       tail is what a kill mid-append leaves: salvaged, not quarantined, so
       resume re-evaluates only that point. *)
    quarantine_journal_lines corrupt;
    if torn_tail then Obs.incr c_salvaged;
    Ok (records, corrupt)

(* Key-sorted records to a temporary file beside [path], one fsync, then a
   rename over [path]: a kill at any moment leaves the old file or the new
   one, never a truncated one. *)
let save t ~path =
  let records =
    locked t (fun () -> Hashtbl.fold (fun k s acc -> (k, s) :: acc) t.entries [])
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
  let oc = open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644 tmp in
  try
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc (magic ^ "\n");
        List.iter (fun (k, s) -> output_string oc (entry_line k s ^ "\n")) records;
        flush oc;
        Unix.fsync (Unix.descr_of_out_channel oc));
    Sys.rename tmp path
  with e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise
      (match e with
      | Unix.Unix_error (err, fn, _) ->
        Sys_error (Printf.sprintf "%s: %s: %s" tmp fn (Unix.error_message err))
      | e -> e)

let salvage ~path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> ()
  | s when s = "" || String.ends_with ~suffix:"\n" s -> ()
  | s ->
    (* Unterminated tail: truncate back to the last record boundary so a
       subsequent append cannot splice two records together. *)
    Unix.truncate path (match String.rindex_opt s '\n' with Some i -> i + 1 | None -> 0);
    Obs.incr c_salvaged

type writer = {
  oc : out_channel;
  fd : Unix.file_descr;
  wlock : Mutex.t;  (* pool workers append concurrently *)
  mutable closed : bool;
}

let start ~path ~fresh =
  (* Appending after a crash: drop any torn final record first, or the
     next append would splice onto it and corrupt two records. *)
  if not fresh then salvage ~path;
  let fd =
    Unix.openfile path
      (Unix.O_WRONLY :: Unix.O_CREAT :: Unix.O_APPEND
      :: (if fresh then [ Unix.O_TRUNC ] else []))
      0o644
  in
  let oc = Unix.out_channel_of_descr fd in
  if (Unix.fstat fd).Unix.st_size = 0 then begin
    output_string oc magic;
    output_char oc '\n';
    flush oc;
    Unix.fsync fd
  end;
  { oc; fd; wlock = Mutex.create (); closed = false }

let record w ~key summary =
  Mutex.lock w.wlock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock w.wlock)
    (fun () ->
      if not w.closed then begin
        output_string w.oc (entry_line key summary);
        output_char w.oc '\n';
        flush w.oc;
        (* The fsync is the crash-containment contract: once [record]
           returns, a kill -9 cannot lose this point. *)
        Unix.fsync w.fd;
        Obs.incr c_records
      end)

let close w =
  Mutex.lock w.wlock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock w.wlock)
    (fun () ->
      if not w.closed then begin
        w.closed <- true;
        (* close_out flushes and closes the underlying fd. *)
        close_out_noerr w.oc
      end)

type merge_stats = {
  journals : int;
  entries : int;
  duplicates : int;
  quarantined : int;
}

let fingerprint_of_key key =
  match String.split_on_char '|' key with
  | [ _digest; lib; config; _point ] -> Ok (lib ^ "|" ^ config)
  | _ -> Error (Printf.sprintf "malformed cache key %S" key)

(* Fold one journal's records last-write-wins by key, preserving first-
   appearance order so error messages are stable. *)
let fold_journal records =
  let tbl = Hashtbl.create 64 in
  let order = ref [] in
  let dups = ref 0 in
  List.iter
    (fun (key, summary) ->
      if Hashtbl.mem tbl key then incr dups else order := key :: !order;
      Hashtbl.replace tbl key summary)
    records;
  (List.rev_map (fun k -> (k, Hashtbl.find tbl k)) !order, !dups)

let merge ~inputs ~output =
  match inputs with
  | [] -> Error "merge-journals: no input journals"
  | inputs -> (
    let exception Bad of string in
    try
      let merged = create () in
      let origin = Hashtbl.create 256 in
      let fingerprint = ref None in
      let quarantined = ref 0 in
      let duplicates = ref 0 in
      List.iter
        (fun path ->
          match load_journal ~path with
          | Error e -> raise (Bad e)
          | Ok (records, q) ->
            quarantined := !quarantined + q;
            let folded, dups = fold_journal records in
            duplicates := !duplicates + dups;
            List.iter
              (fun (key, summary) ->
                (match fingerprint_of_key key with
                | Error e -> raise (Bad (Printf.sprintf "%s: %s" path e))
                | Ok fp -> (
                  match !fingerprint with
                  | None -> fingerprint := Some fp
                  | Some fp0 when fp0 = fp -> ()
                  | Some fp0 ->
                    raise
                      (Bad
                         (Printf.sprintf
                            "%s: config fingerprint %S disagrees with %S — journals \
                             come from different sweep configurations"
                            path fp fp0))));
                match Hashtbl.find_opt origin key with
                | Some prev_path ->
                  raise
                    (Bad
                       (Printf.sprintf
                          "%s: key %S already recorded by %s — shard journals must be \
                           disjoint"
                          path key prev_path))
                | None ->
                  Hashtbl.replace origin key path;
                  add merged key summary)
              folded)
        inputs;
      save merged ~path:output;
      let entries = size merged in
      Obs.add c_merged entries;
      Obs.add c_duplicates !duplicates;
      Ok
        {
          journals = List.length inputs;
          entries;
          duplicates = !duplicates;
          quarantined = !quarantined;
        }
    with
    | Bad e -> Error e
    | Sys_error e -> Error e)
