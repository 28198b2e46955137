(* Loop interchange, permutation legality, and the permute-then-unroll
   combination. *)

open Ujam_ir
open Ujam_ir.Build
open Ujam_core

let test_permutations () =
  Alcotest.(check int) "3! permutations" 6 (List.length (Interchange.permutations 3));
  Alcotest.(check bool) "identity included" true
    (List.exists (fun p -> p = [| 0; 1; 2 |]) (Interchange.permutations 3))

let test_apply_swaps_everything () =
  let nest = Ujam_kernels.Kernels.mmjik ~n:8 () in
  (* JIK -> JKI: swap levels 1 and 2 *)
  let swapped = Interchange.apply nest [| 0; 2; 1 |] in
  Alcotest.(check string) "new middle loop" "K" (Nest.var_name swapped 1);
  Alcotest.(check string) "new inner loop" "I" (Nest.var_name swapped 2);
  (* C(I,J) must now use level 2 in its first subscript *)
  let c = List.hd (List.filter (fun (r, _) -> Aref.base r = "C") (Nest.refs swapped)) in
  Alcotest.(check bool) "subscripts follow" true
    (Affine.uses_level (fst c).Aref.subs.(0) 2);
  (* and it is textually the jki kernel *)
  Alcotest.(check string) "equal to the jki kernel"
    (Nest.to_string (Ujam_kernels.Kernels.mmjki ~n:8 ()))
    (Nest.to_string swapped)

let test_apply_validation () =
  let jac = Ujam_kernels.Kernels.jacobi ~n:8 () in
  Alcotest.check_raises "not a permutation"
    (Invalid_argument "Interchange.apply: not a permutation of the nest levels")
    (fun () -> ignore (Interchange.apply jac [| 0; 0 |]));
  (* triangular: inner bound mentions the outer loop, so the swap is
     inexpressible *)
  let d = 2 in
  let i = var d 0 and j = var d 1 in
  let tri =
    nest "tri"
      [ loop d "I" ~level:0 ~lo:1 ~hi:8 ();
        loop_aff "J" ~level:1 ~lo:(var d 0) ~hi:(cst d 8) () ]
      [ aref "A" [ i; j ] <<- f 0.0 ]
  in
  Alcotest.check_raises "triangular bound blocks interchange"
    (Invalid_argument "Interchange.apply: a loop bound would refer to an inner loop")
    (fun () -> ignore (Interchange.apply tri [| 1; 0 |]))

let test_semantics_preserved () =
  (* independent iterations: interchange must preserve the result *)
  let nest = Ujam_kernels.Kernels.mmjik ~n:10 () in
  let swapped = Interchange.apply nest [| 1; 0; 2 |] in
  Alcotest.(check bool) "interchange preserves matmul" true
    (Test_unroll.stores_equal (Test_unroll.interpret nest) (Test_unroll.interpret swapped))

let test_legality () =
  let d = 2 in
  let j = var d 0 and i = var d 1 in
  let graph n = Ujam_depend.Graph.build ~include_input:false n in
  (* (1,-1) skew: interchange reverses the dependence *)
  let skew =
    nest "skew"
      [ loop d "J" ~level:0 ~lo:2 ~hi:9 (); loop d "I" ~level:1 ~lo:2 ~hi:9 () ]
      [ aref "A" [ i; j ] <<- rd "A" [ i +$ 1; j -$ 1 ] +: f 1.0 ]
  in
  Alcotest.(check bool) "skew blocks interchange" false
    (Ujam_depend.Safety.legal_permutation (graph skew) [| 1; 0 |]);
  Alcotest.(check bool) "identity always legal" true
    (Ujam_depend.Safety.legal_permutation (graph skew) [| 0; 1 |]);
  (* (1,1) forward dependence survives the swap *)
  let fwd =
    nest "fwd"
      [ loop d "J" ~level:0 ~lo:2 ~hi:9 (); loop d "I" ~level:1 ~lo:2 ~hi:9 () ]
      [ aref "A" [ i; j ] <<- rd "A" [ i -$ 1; j -$ 1 ] +: f 1.0 ]
  in
  Alcotest.(check bool) "diagonal dependence permits interchange" true
    (Ujam_depend.Safety.legal_permutation (graph fwd) [| 1; 0 |]);
  (* semantic cross-check of both verdicts *)
  let same n perm =
    Test_unroll.stores_equal
      (Test_unroll.interpret n)
      (Test_unroll.interpret (Interchange.apply n perm))
  in
  Alcotest.(check bool) "fwd swap is really safe" true (same fwd [| 1; 0 |]);
  Alcotest.(check bool) "skew swap really breaks" false (same skew [| 1; 0 |])

let test_rank_permutations () =
  (* dmxpy1 walks M along rows; making I innermost (the dmxpy0 order)
     must rank strictly better *)
  let nest = Ujam_kernels.Kernels.dmxpy1 ~n:16 () in
  let ranked = Ujam_reuse.Locality.rank_permutations ~line:4 nest in
  Alcotest.(check int) "both orders ranked" 2 (List.length ranked);
  (match ranked with
  | (best, bc) :: (_, wc) :: _ ->
      Alcotest.(check bool) "swap preferred" true (best = [| 1; 0 |]);
      Alcotest.(check bool) "strictly better" true (bc < wc)
  | _ -> Alcotest.fail "expected two permutations")

let test_permute_optimize () =
  let machine = Ujam_machine.Presets.alpha in
  let dm = Ujam_kernels.Kernels.dmxpy1 ~n:24 () in
  let choice = Permute.best_legal ~machine dm in
  let permuted = choice.Permute.permuted in
  let transformed =
    Gen.transformed permuted (Gen.analyze_ok ~bound:4 ~machine permuted)
  in
  Alcotest.(check bool) "permutation applied" true
    (choice.Permute.permutation = [| 1; 0 |]);
  Alcotest.(check bool) "cost improved" true
    (choice.Permute.cost < choice.Permute.original_cost);
  Alcotest.(check string) "engine ran on the permuted nest" "I"
    (Nest.var_name transformed 1);
  (* legality is respected: sor's permutation candidates include the
     illegal swap; best_legal must not pick it *)
  let d = 2 in
  let j = var d 0 and i = var d 1 in
  let skew =
    nest "skew"
      [ loop d "J" ~level:0 ~lo:2 ~hi:9 (); loop d "I" ~level:1 ~lo:2 ~hi:9 () ]
      [ aref "A" [ i; j ] <<- rd "A" [ i +$ 1; j -$ 1 ] +: rd "B" [ j; i ] ]
  in
  let c = Permute.best_legal ~machine skew in
  Alcotest.(check bool) "illegal permutation rejected" true
    (c.Permute.permutation = [| 0; 1 |])

let prop_interchange_preserves_refs =
  QCheck2.Test.make ~name:"interchange: reference multiset preserved" ~count:100
    (Gen.nest_gen ()) (fun nest ->
      let d = Nest.depth nest in
      List.for_all
        (fun perm ->
          match Interchange.apply nest perm with
          | permuted ->
              List.length (Nest.refs permuted) = List.length (Nest.refs nest)
          | exception Invalid_argument _ -> true)
        (Interchange.permutations d))

let prop_legal_interchange_semantics =
  QCheck2.Test.make ~name:"interchange: legal permutations preserve semantics"
    ~count:40 ~print:Gen.nest_print (Gen.nest_gen ~max_depth:2 ())
    (fun nest ->
      let graph = Ujam_depend.Graph.build ~include_input:false nest in
      let reference = Test_unroll.interpret nest in
      List.for_all
        (fun perm ->
          if Ujam_depend.Safety.legal_permutation graph perm then
            match Interchange.apply nest perm with
            | permuted -> Test_unroll.stores_equal reference (Test_unroll.interpret permuted)
            | exception Invalid_argument _ -> true
          else true)
        (Interchange.permutations (Nest.depth nest)))

let suite =
  [ Alcotest.test_case "permutations" `Quick test_permutations;
    Alcotest.test_case "apply" `Quick test_apply_swaps_everything;
    Alcotest.test_case "validation" `Quick test_apply_validation;
    Alcotest.test_case "semantics preserved" `Quick test_semantics_preserved;
    Alcotest.test_case "legality" `Quick test_legality;
    Alcotest.test_case "permutation ranking" `Quick test_rank_permutations;
    Alcotest.test_case "permute + unroll-and-jam" `Quick test_permute_optimize;
    Gen.to_alcotest prop_interchange_preserves_refs;
    Gen.to_alcotest prop_legal_interchange_semantics ]
