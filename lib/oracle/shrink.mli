(** Delta-debugging for failing nests.

    Given a predicate that re-runs the failing oracle check, greedily
    apply structure-removing rewrites — drop a statement, prune an
    expression, delete a whole loop level (substituting its lower
    bound), zero or halve subscript constants, reduce coefficient-2
    strides, halve trip counts — keeping a rewrite only while the
    predicate still fails, until a fixpoint or the step budget.  The
    result is a minimal-ish reproducer; [to_snippet] renders it as a
    self-contained OCaml fragment over {!Ujam_ir.Build} and [to_json]
    as structured data, so a bug report is replayable without the
    generator seed. *)

val run :
  ?max_steps:int ->
  still_fails:(Ujam_ir.Nest.t -> bool) ->
  Ujam_ir.Nest.t ->
  Ujam_ir.Nest.t
(** Greedy first-improvement descent; [max_steps] (default 300) bounds
    the number of predicate evaluations.  A predicate that raises is
    treated as "does not fail" (a different failure is not the failure
    being minimised). *)

val to_snippet : Ujam_ir.Nest.t -> string
(** A compilable OCaml expression of type [Ujam_ir.Nest.t] over the
    {!Ujam_ir.Build} combinators. *)

val to_json : Ujam_ir.Nest.t -> Ujam_obs.Json.t
