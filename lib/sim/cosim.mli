(** Co-simulation: check that elaboration (and optionally a schedule)
    preserves the behavioral semantics.

    Drives {!Behav_sim} (the language interpreter) and {!Dfg_sim} (the
    elaborated-design simulator, optionally under a schedule) with the same
    pseudo-random input streams and compares the output traces. *)

type mismatch = {
  mport : string;
  iteration : int;   (** index in the write trace *)
  expected : int;
  got : int;
}

type result = {
  iterations : int;
  checked_values : int;
  mismatches : mismatch list;   (** empty = equivalent on this stimulus *)
}

val check :
  ?schedule:Schedule.t -> ?iterations:int -> ?seed:int -> Elaborate.t -> result
(** [iterations] defaults to 32, [seed] to 1.  Inputs are uniform random
    words of each input port's width. *)
