(** The 100-design validation corpus.

    The paper reports results "on over 100 customer designs" (§VII); those
    are confidential, so this module grows a surrogate: a seeded, digest-
    stable population of {!Random_design} instances covering mixed CFG
    shapes (straight-line, diamond, loop, loop nest), size classes,
    operation mixes and II constraints.  The population is fully determined
    by [(seed, count)]; every entry's {!Random_design.digest} is recorded
    in a committed manifest ([corpus/manifest.tsv]) so that any drift in
    the generator — intentional or not — is caught by [hlsc corpus
    --verify] in CI rather than silently changing every frontier. *)

type klass = Tiny | Medium | Large | Mulheavy

val klass_name : klass -> string
(** Lowercase stable name ("tiny", "medium", "large", "mulheavy"). *)

val all_klasses : klass list

val profile_of_klass : klass -> Random_design.profile

type entry = {
  name : string;  (** stable corpus name, e.g. ["c017-diamond-medium"] *)
  seed : int;  (** per-design generator seed (derived from the master) *)
  shape : Random_design.shape;
  klass : klass;
  ii : int;  (** initiation-interval constraint; 0 = unconstrained *)
  clock_ps : float;  (** the design's suggested clock period *)
  ops : int;  (** operation count of the generated DFG *)
  digest : string;  (** {!Random_design.digest} of the generated design *)
}

val default_count : int
(** 100 — the paper's corpus size. *)

val plan : ?count:int -> seed:int -> unit -> entry list
(** Deterministically derive [count] entries from [seed].  Generates each
    design once to record its op count and digest; bumps the
    [corpus.generated] counter per design. *)

val design : entry -> Random_design.t
(** Re-generate the design behind an entry (pure function of the entry's
    seed/shape/klass). *)

val save : path:string -> seed:int -> entry list -> unit
(** Write the manifest TSV (header line carries [seed] and [count] so
    {!verify} can regenerate without external knowledge). *)

val load : path:string -> (int * entry list, string) result
(** Parse a manifest; returns the master seed and the entries. *)

val verify : path:string -> (int, string) result
(** Regenerate the population from the manifest's own header and compare
    every field of every entry.  [Ok n] means all [n] entries reproduce
    bit-exactly; [Error _] names the first divergence. *)
