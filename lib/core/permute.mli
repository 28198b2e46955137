(** Loop permutation as a pre-pass to unroll-and-jam.

    Wolf, Maydan and Chen consider permutation together with
    unroll-and-jam (Sec. 2 / 5.3); this module provides the combination
    within our framework: pick the legal loop order with the best
    innermost locality (McKinley–Carr–Tseng loop cost); callers then run
    the balance-driven unroll-and-jam analysis on the permuted nest. *)

type choice = {
  permutation : int array;        (** new level -> old level *)
  cost : float;                   (** Equation-1 memory cost per iteration *)
  original_cost : float;          (** cost of the given loop order *)
  permuted : Ujam_ir.Nest.t;
}

val best_legal :
  machine:Ujam_machine.Machine.t -> Ujam_ir.Nest.t -> choice
(** The lowest-cost permutation that is both expressible (triangular
    bounds keep their outer loops) and dependence-legal.  The identity
    permutation is always a candidate, so this never fails. *)
