(** The integer optimisation of Sec. 3.3: choose the unroll vector that
    brings loop balance closest to machine balance without exceeding the
    register file.

    {v min |beta_L(u) - beta_M|  s.t.  R(u) <= machine registers v}

    Ties prefer fewer body copies (less code growth), then lexicographic
    order.  If no vector satisfies the register constraint the zero
    vector is returned (the original loop). *)

open Ujam_linalg

type choice = {
  u : Vec.t;
  balance : float;
  objective : float;  (** |beta_L - beta_M| *)
  registers : int;
  memory_ops : int;
  flops : int;
}

val best :
  ?prune:bool ->
  ?level:Ujam_machine.Machine.Level.t ->
  cache:bool ->
  Balance.t ->
  choice
(** [prune] (default true) skips the upward box above any [u] whose
    register count already exceeds the register file — sound because
    [R] is pointwise monotone — and records the number of skipped cells
    in the [search.pruned_cells] histogram.  [~prune:false] forces the
    exhaustive scan; both return the same choice.  [level] prices the
    balance at one hierarchy level ({!Balance.loop_balance} [~level]),
    overriding [cache]. *)

val evaluate :
  ?level:Ujam_machine.Machine.Level.t ->
  cache:bool ->
  Balance.t ->
  Vec.t ->
  choice
