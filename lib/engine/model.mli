(** The four selection strategies behind one module signature.

    Each strategy consumes a shared {!Ujam_core.Analysis_ctx} — so every
    comparison (and every timing) runs on identical precomputed inputs —
    and produces the common {!Ujam_core.Search.choice} shape.  Callers
    select strategies by name through {!find} instead of hard-wiring
    divergent call paths. *)

module type MODEL = sig
  val name : string
  val description : string

  val cache : bool
  (** Whether the strategy's balance includes the cache-miss term. *)

  val prunes : bool
  (** Whether [analyze] relies on the pruned register-bound search —
      i.e. on the register table being pointwise monotone.  The engine
      runs {!Ujam_analysis.Monotone.check_registers} for exactly these
      strategies and forces [~exhaustive:true] when the certificate
      fails. *)

  val analyze :
    ?exhaustive:bool -> Ujam_core.Analysis_ctx.t -> Ujam_core.Search.choice
  (** [exhaustive] (default false) forces the unpruned scan; meaningful
      only when {!prunes}, ignored by the other strategies. *)
end

module Ugs_tables : MODEL
(** The paper's model: GTS/GSS/RRS tables plus the balance search. *)

module Dep_based : MODEL
(** The dependence-based reuse model (Carr, PACT'96) — rebuilds the
    dependence graph of every unrolled candidate. *)

module Brute_force : MODEL
(** Materialise and re-analyse every unrolled body (Wolf-Maydan-Chen). *)

module No_cache : MODEL
(** UGS tables under the all-hits Carr-Kennedy balance model. *)

module Ugs_l2 : MODEL
(** UGS tables with the balance priced at hierarchy level 2
    ({!Ujam_core.Balance.loop_balance} [~level]) — jam for the L2 working
    set instead of the L1.  Falls back to the machine's deepest level
    when no level 2 exists. *)

val at_level : int -> (module MODEL)
(** Generalisation of {!Ugs_l2} to any 1-based level. *)

val all : (module MODEL) list
(** The registry, in presentation order. *)

val name : (module MODEL) -> string
val names : string list

val find : string -> (module MODEL) option
(** Look a strategy up by name or alias ("ugs", "dep", "brute",
    "no-cache", ...). *)

val choice_of_metrics :
  machine:Ujam_machine.Machine.t ->
  cache:bool ->
  Ujam_linalg.Vec.t * Ujam_core.Bruteforce.metrics ->
  Ujam_core.Search.choice
