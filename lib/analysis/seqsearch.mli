(** Search over short legalizing transformation prefixes.

    The safety rule caps the unroll of a level at [d_l - 1] when a
    dependence it carries has a lexicographically negative suffix —
    a recurrence like [A(I,J) = A(I-1,J+1)] fences the outer loop
    completely ([d = (1,-1)], cap 0) and the engine degrades to the
    untransformed nest.  This module derives, from the dependence cone
    itself, the short skew/retime prefixes that straighten such
    distances, gates each through {!Passes.apply_seq} (legality +
    structure + {!Verify}), scores the survivors with the same balance
    tables and pruned search the engine uses, and keeps a prefix only
    when its objective strictly beats the untransformed baseline.

    Candidates (ISSUE 6's depth-≤2 enumeration):
    - an elementary skew per capping cone corner [(l, k)]: level [k] by
      [ceil(-d_k / d_l)] copies of level [l], factors above the
      supported-class coefficient cap discarded;
    - one retiming from the componentwise difference-constraint solve
      over cross-statement edges;
    - each single prefix extended once by the candidates of the
      transformed nest's own cone.

    The search engages only when {!fence_binds} — some outer level has
    zero legal copies; everything else costs one graph inspection. *)

open Ujam_ir
open Ujam_core

type outcome = {
  baseline : Search.choice;     (** pruned search on the original nest *)
  sequence : Passes.step list;  (** chosen prefix with why-legal notes;
                                    empty when no prefix improved *)
  nest : Nest.t;                (** the legalized nest ([= input] when
                                    [sequence] is empty) *)
  choice : Search.choice;       (** pruned search on [nest] *)
  candidates : int;             (** prefixes enumerated *)
  diagnostics : Diagnostic.t list;
      (** one [UJ026] Info (with per-step notes) when a prefix won *)
}

val fence_binds : Analysis_ctx.t -> bool
(** Some non-innermost level has safety cap 0. *)

val candidates : Ujam_depend.Graph.t -> Transform.t list
(** The depth-1 candidate transforms for this cone (exposed for tests
    and [ujc explain]). *)

val search :
  ?bound:int ->
  ?max_loops:int ->
  ?cache:bool ->
  ?max_candidates:int ->
  machine:Ujam_machine.Machine.t ->
  Nest.t ->
  outcome
(** Defaults match {!Ujam_core.Analysis_ctx.create}: [bound] 10,
    [max_loops] 2, [cache] true; [max_candidates] (default 12) bounds
    the enumeration. *)

val steps_json : Passes.step list -> Ujam_obs.Json.t
(** [[{"pass": .., "spec": .., "why": ..}, ...]] — the rendering the
    engine and [ujc] embed in reports. *)
