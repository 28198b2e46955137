(** Typed oracle disagreements.

    Each of the three oracle layers reports its findings in one shape so
    the fuzz report, the JSON emitter, and the regression tests can treat
    them uniformly.  A mismatch may carry an [explained] note: the
    comparison diverged for a documented modelling reason (e.g. the
    dependence-based strategy is a coarser approximation), so it counts
    as expected rather than as a table bug. *)

open Ujam_linalg

type kind =
  | Recount of { u : Vec.t; field : string; predicted : int; measured : int }
      (** A UGS-table prediction disagrees with the recount on the
          materialized unrolled body. *)
  | Sim_order of {
      u_better : Vec.t;
      u_worse : Vec.t;
      predicted_better : float;
      predicted_worse : float;
      measured_better : float;
      measured_worse : float;
    }
      (** The miss tables ranked [u_better] clearly ahead of [u_worse],
          but the cache simulator measured the opposite order (rates are
          misses per original iteration). *)
  | Model_divergence of {
      model : string;
      u : Vec.t;
      objective : float;
      reference_u : Vec.t;
      reference_objective : float;
    }
      (** A strategy's chosen vector lands measurably farther from
          machine balance than the exhaustive reference choice. *)
  | Verify of { u : Vec.t; rule : string; detail : string }
      (** The transformation verifier ({!Ujam_analysis.Verify})
          rejected the materialised unroll-and-jam at [u]: the
          transformed nest does not preserve the per-array access
          multisets.  [rule] is the diagnostic id (UJ020). *)
  | Native of {
      variant : string;
      array_name : string;
      native : float;
      expected : float;
    }
      (** The compiled-and-executed variant's checksum for one array
          disagrees with the reference interpreter run of the same
          nest beyond the native tolerance ([native] is NaN when the
          emitted program never reported the array at all). *)
  | Cachepred of {
      level : string;
      floor : float;
      predicted : float;
      measured : float;
    }
      (** The static reuse-distance predictor's
          [[floor, predicted]] miss-ratio interval for one hierarchy
          level ({!Ujam_analysis.Cachecheck.predicted_ratios}) misses
          the hierarchy simulator's measurement beyond the calibration
          tolerance. *)

type t = {
  nest : string;
  machine : string;
  kind : kind;
  explained : string option;
}

val make :
  nest:string -> machine:string -> ?explained:string -> kind -> t

val is_explained : t -> bool

val layer : t -> string
(** ["recount"], ["sim"], ["cross-model"], ["verify"], ["native"] or
    ["cachepred"]. *)

val pp : Format.formatter -> t -> unit
val to_json : t -> Ujam_obs.Json.t
