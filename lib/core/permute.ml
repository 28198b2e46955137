open Ujam_ir
open Ujam_machine

type choice = {
  permutation : int array;
  cost : float;
  original_cost : float;
  permuted : Nest.t;
}

let best_legal ~machine nest =
  let line = machine.Machine.cache_line in
  let graph = Ujam_depend.Graph.build ~include_input:false nest in
  let d = Nest.depth nest in
  let identity = Array.init d Fun.id in
  let original_cost = Ujam_reuse.Locality.permutation_cost ~line nest identity in
  let ranked = Ujam_reuse.Locality.rank_permutations ~line nest in
  let rec pick = function
    | [] -> (identity, original_cost)
    | (perm, cost) :: rest ->
        if Ujam_depend.Safety.legal_permutation graph perm then (perm, cost)
        else pick rest
  in
  let permutation, cost = pick ranked in
  { permutation; cost; original_cost;
    permuted = Transform.apply_exn (Transform.Interchange permutation) nest }
