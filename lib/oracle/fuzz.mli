(** The fuzzing front end: generate nests, run the oracle layers over
    the engine's parallel work queue, shrink failures, report.

    A run draws routines from {!Ujam_workload.Generator} under a seed,
    checks each nest with the configured layers ({!Recount},
    {!Simcheck}, {!Crossmodel}, and the transformation verifier
    {!Ujam_analysis.Verify} over every materialised unroll vector), and — when a check reports an
    unexplained mismatch or an analysis crash — greedily shrinks the
    nest to a minimal reproducer ({!Shrink}) emitted as an OCaml
    snippet plus JSON.  Results are deterministic for a given config:
    generation is sequential, checks are pure, and the work queue slots
    results by input index whatever the domain count. *)

open Ujam_linalg

type layer = Recount | Sim | Cross_model | Verify | Native | Cachepred

val layer_name : layer -> string

val all_layers : layer list
(** The default layer set.  {!Native} is not in it: compiling and
    executing each nest through the host toolchain ({!Ujam_native}) is
    orders of magnitude slower than the analytical layers, so the
    ground-truth column stays opt-in ([ujc fuzz --native]).  Without a
    toolchain the layer degrades to a skip count, never a failure.
    {!Cachepred} (the static per-level miss-ratio predictor vs. the
    hierarchy simulator, {!Cachepred.check}) is in it. *)

type config = {
  n : int;  (** nests to check *)
  seed : int;
  max_depth : int;  (** deeper generated nests are skipped *)
  bound : int;  (** per-level unroll bound of the searched space *)
  max_loops : int;
  machine : Ujam_machine.Machine.t;
  domains : int;
  layers : layer list;
  shrink : bool;
  deep : bool;
      (** deep-space mode: the generator also draws 4-deep nests;
          combine with a raised [bound]/[max_depth] (the CLI's
          [--deep-space] sets bound >= 8, max_depth >= 4) *)
  recurrent : bool;
      (** recurrent mode: the generator draws fence-binding
          anti-diagonal and cross-statement recurrences instead of the
          corpus mix — fodder for the skew/retime sequence legalizer *)
  dedup : bool;
      (** skip generated nests whose {!Ujam_ir.Canon.digest} was
          already queued this run — duplicates re-check nothing, so the
          [n] budget buys [n] distinct problems *)
}

val default_config : ?machine:Ujam_machine.Machine.t -> unit -> config
(** n 200, seed 1997, max_depth 3, bound 4, max_loops 2, machine alpha,
    domains 1, all layers (verify included), shrinking on, deep-space,
    recurrent and dedup off. *)

type failure = {
  routine : string;
  nest : Ujam_ir.Nest.t;
  error : Ujam_engine.Error.t option;  (** a layer crashed outright *)
  mismatches : Mismatch.t list;
  reduced : Ujam_ir.Nest.t option;  (** shrunk reproducer *)
}

type report = {
  config : config;
  nests : int;  (** nests checked *)
  routines : int;  (** routines drawn *)
  draws : int;  (** generator nest draws, including re-rolls *)
  rejected : int;  (** out-of-class draws re-rolled by the generator *)
  skipped_depth : int;  (** nests over [max_depth], not checked *)
  deduped : int;  (** canonical duplicates skipped (0 unless [dedup]) *)
  digest_s : float;
      (** time spent consing and digesting drawn nests (0 unless
          [dedup]); duplicates intern to an already-digested
          representative, so this grows with {e distinct} nests only *)
  digest_unique : int;
      (** distinct digests actually computed during the draw loop
          ({!Ujam_ir.Canon.memo_stats} miss delta; 0 unless [dedup]) *)
  digest_reused : int;
      (** digest requests served O(1) from the memo — the re-encodes
          the run did {e not} pay for (0 unless [dedup]) *)
  fenced : int;
      (** emitted nests whose safety cap binds at a non-innermost level
          (only counted in recurrent mode) *)
  sim_checked : int;  (** nests the simulator layer replayed *)
  cachepred_checked : int;
      (** nests whose per-level miss predictions the cachepred layer
          compared against the hierarchy simulator *)
  verify_checked : int;  (** unrolled bodies checked by the verifier *)
  verify_failed : int;  (** verifier rejections (multiset mismatches) *)
  native_checked : int;
      (** variants compiled, executed and checksum-validated by the
          native layer (0 unless {!Native} is configured) *)
  native_skipped : int;
      (** nests the native layer skipped for lack of a toolchain *)
  total_mismatches : int;
  unexplained : int;
  failures : failure list;
}

val run :
  ?perturb:(Vec.t -> Counts.t -> Counts.t) ->
  ?native_drop_copy:bool ->
  config ->
  report
(** [perturb] is threaded to the recount layer and [native_drop_copy]
    to the native layer's emitter (it drops the final statement of every
    multi-statement body — the classic lost-jammed-copy bug); both are
    fault injection for the oracle's own regression tests.  Shrinking
    re-runs failing layers with the same injections. *)

val ok : report -> bool
(** No unexplained mismatch and no crashed layer. *)

val pp : Format.formatter -> report -> unit
val to_json : report -> Ujam_obs.Json.t
