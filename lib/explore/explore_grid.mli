(** Configuration grids for design-space exploration.

    A grid is the cross product of four axes the paper's experiments vary:
    clock period (Table 1 / Fig. 9 x-axis), scheduling flow (Table 4
    columns), pipelining initiation interval (Table 4 D9–D15) and the
    area-recovery policy (§VI step f on/off).  Enumeration order — and the
    canonical per-point key — is fixed, so sweeps are reproducible and
    cacheable. *)

type point = {
  flow : Flows.flow;
  clock : float;    (** clock period, ps *)
  ii : int option;  (** pipelining initiation interval; [None] = unpipelined *)
  recover : bool;   (** run final area recovery *)
}

type t

val make :
  clocks:float list ->
  flows:Flows.flow list ->
  ?iis:int option list ->
  ?recover:bool list ->
  unit ->
  (t, string) result
(** Validates the axes: every list non-empty after deduplication, clocks
    finite and positive, initiation intervals at least 1, and the grid no
    larger than 100,000 points (a guard against runaway range specs). *)

val size : t -> int

val points : t -> point list
(** Cross product in a fixed order: flows (outermost), clocks ascending,
    initiation intervals, recovery policy. *)

val flow_short : Flows.flow -> string
(** ["conv"], ["slowest"] or ["slack"] — the names grid specs and point
    keys use. *)

val point_key : point -> string
(** Canonical key, e.g. ["flow=slack,clock=2500.000,ii=4,recover=on"].
    Injective on points (clocks compare equal iff their keys do at ps
    resolution), stable across runs — the config half of the evaluation
    cache key and the determinism sort key. *)

(** {1 Grid-spec parsing (CLI surface)}

    All parsers return [Error msg] rather than raising; the CLI maps that
    to a usage error (exit code 2). *)

val parse_clocks : string -> (float list, string) result
(** Comma-separated items; each item is a single period ["2500"] or an
    inclusive range ["2000:3000:250"] (lo:hi:step, step > 0). *)

val parse_flows : string -> (Flows.flow list, string) result
(** Comma-separated flow names ([conv]/[conventional], [slowest],
    [slack]), or ["all"]. *)

val parse_iis : string -> (int option list, string) result
(** Comma-separated items: ["none"], a single interval ["4"], or an
    inclusive integer range ["2:8"] / ["2:8:2"]. *)

val parse_recover : string -> (bool list, string) result
(** ["on"], ["off"] or ["both"]. *)

val of_specs :
  clocks:string ->
  flows:string ->
  ?iis:string ->
  ?recover:string ->
  unit ->
  (t, string) result
(** All four parsers plus {!make} in one step — the shared entry point for
    the CLI and the grid fuzzer.  [iis] defaults to ["none"], [recover] to
    ["on"]. *)
