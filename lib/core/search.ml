open Ujam_linalg
module Obs = Ujam_obs.Obs

(* Cells skipped per search by the monotone-register pruning. *)
let h_pruned = Obs.histogram "search.pruned_cells"

type choice = {
  u : Vec.t;
  balance : float;
  objective : float;
  registers : int;
  memory_ops : int;
  flops : int;
}

let evaluate ?level ~cache b u =
  let beta_m = Ujam_machine.Machine.balance (Balance.machine b) in
  let balance = Balance.loop_balance ?level b ~cache u in
  { u;
    balance;
    objective = Float.abs (balance -. beta_m);
    registers = Balance.registers b u;
    memory_ops = Balance.memory_ops b u;
    flops = Balance.flops b u }

let better a b =
  (* Smaller objective wins; ties prefer fewer copies, then lex order. *)
  let c = Float.compare a.objective b.objective in
  if c <> 0 then c < 0
  else
    let c =
      compare (Unroll_space.copies a.u) (Unroll_space.copies b.u)
    in
    if c <> 0 then c < 0 else Vec.compare a.u b.u < 0

(* R(u) is pointwise monotone in u (unrolling more never frees a
   register), so the infeasible set {u | R(u) > max_regs} is upward
   closed and [iter_pruned] may skip whole boxes above the first
   violation.  Feasible candidates are enumerated in the same lex order
   as the plain [iter], so pruning never changes the chosen vector —
   the QCheck soundness suite and [~prune:false] keep that honest. *)
let best ?(prune = true) ?level ~cache b =
  let max_regs = (Balance.machine b).Ujam_machine.Machine.fp_registers in
  let best = ref None in
  let consider u =
    let c = evaluate ?level ~cache b u in
    if c.registers <= max_regs then
      match !best with
      | None -> best := Some c
      | Some cur -> if better c cur then best := Some c
  in
  let pruned =
    if prune then
      Unroll_space.iter_pruned (Balance.space b)
        ~prune:(fun u -> Balance.registers b u > max_regs)
        consider
    else begin
      Unroll_space.iter (Balance.space b) consider;
      0
    end
  in
  Obs.Histogram.record h_pruned (float_of_int pruned);
  match !best with
  | Some c -> c
  | None ->
      evaluate ?level ~cache b (Vec.zero (Unroll_space.depth (Balance.space b)))
