(* The end-to-end pipeline through the engine and the model baselines
   (brute force, dependence model). *)

open Ujam_linalg
open Ujam_core
open Ujam_machine
module Engine = Ujam_engine.Engine

let v = Vec.of_list

let unroll_levels ?max_loops ~bound nest =
  Analysis_ctx.unroll_levels
    (Analysis_ctx.create ~bound ?max_loops ~machine:Presets.alpha nest)

let test_driver_report () =
  let nest = Ujam_kernels.Kernels.mmjki ~n:12 () in
  let machine = Presets.alpha in
  let r = Gen.analyze_ok ~bound:4 ~machine nest in
  Alcotest.(check bool) "chose to unroll" true (not (Vec.is_zero r.Engine.u));
  Alcotest.(check bool) "safety allows it" true
    (Ujam_depend.Safety.is_safe
       (Ujam_depend.Graph.build ~include_input:false nest)
       r.Engine.u);
  Alcotest.(check bool) "balance improved" true
    (r.Engine.objective
    <= Float.abs (r.Engine.balance_before -. Machine.balance machine));
  Alcotest.(check int) "at most two loops unrolled" 2
    (max 2 (List.length (unroll_levels ~bound:4 nest)));
  Alcotest.(check bool) "registers within machine" true
    (r.Engine.registers <= 32);
  let copies = Vec.fold (fun a x -> a * (x + 1)) 1 r.Engine.u in
  Alcotest.(check int) "transformed body size"
    (copies * List.length (Ujam_ir.Nest.body nest))
    (List.length (Ujam_ir.Nest.body (Gen.transformed nest r)));
  Alcotest.(check bool) "speedup estimate positive" true (r.Engine.speedup > 0.0)

let test_driver_respects_safety () =
  (* vpenta's J loop carries distance-1 and -2 flow dependences; they do
     not block unroll-and-jam (inner suffix is zero), but a (1,-1) skew
     does. *)
  let d = 2 in
  let open Ujam_ir.Build in
  let j = var d 0 and i = var d 1 in
  let skew =
    nest "skew"
      [ loop d "J" ~level:0 ~lo:2 ~hi:17 (); loop d "I" ~level:1 ~lo:2 ~hi:17 () ]
      [ aref "A" [ i; j ] <<- rd "A" [ i +$ 1; j -$ 1 ] +: rd "B" [ i; j ] ]
  in
  let r = Gen.analyze_ok ~bound:4 ~machine:Presets.alpha skew in
  Alcotest.(check bool) "blocked loop not unrolled" true (Vec.is_zero r.Engine.u)

let test_driver_single_loop () =
  (* depth-1 nests have no outer loop to unroll; the engine must still
     produce a coherent report. *)
  let d = 1 in
  let open Ujam_ir.Build in
  let i = var d 0 in
  let nest1 =
    nest "axpy"
      [ loop d "I" ~level:0 ~lo:1 ~hi:64 () ]
      [ aref "Y" [ i ] <<- rd "Y" [ i ] +: (s "A" *: rd "X" [ i ]) ]
  in
  let r = Gen.analyze_ok ~bound:4 ~machine:Presets.alpha nest1 in
  Alcotest.(check bool) "u = 0" true (Vec.is_zero r.Engine.u);
  Alcotest.(check int) "no unroll levels" 0
    (List.length (unroll_levels ~bound:4 nest1))

let test_max_loops () =
  (* 3-deep nest where all three outer candidates carry reuse *)
  let nest = Ujam_kernels.Kernels.mmjki ~n:12 () in
  let one = Gen.analyze_ok ~bound:2 ~max_loops:1 ~machine:Presets.alpha nest in
  let two = Gen.analyze_ok ~bound:2 ~max_loops:2 ~machine:Presets.alpha nest in
  Alcotest.(check int) "one loop" 1
    (List.length (unroll_levels ~bound:2 ~max_loops:1 nest));
  Alcotest.(check int) "two loops (paper default)" 2
    (List.length (unroll_levels ~bound:2 ~max_loops:2 nest));
  Alcotest.(check bool) "more loops never hurt the objective" true
    (two.Engine.objective <= one.Engine.objective +. 1e-12)

let test_no_cache_model_matches_paper_example () =
  (* Section 3.3's example: A(J) = A(J) + B(I).  Original balance 1 (one
     B load per iteration, one flop); unrolling J by 1 gives 2 flops and
     still one load: balance 0.5. *)
  let d = 2 in
  let open Ujam_ir.Build in
  let j = var d 0 and i = var d 1 in
  let nest0 =
    nest "sec33"
      [ loop d "J" ~level:0 ~lo:1 ~hi:16 (); loop d "I" ~level:1 ~lo:1 ~hi:16 () ]
      [ aref "A" [ j ] <<- rd "A" [ j ] +: rd "B" [ i ] ]
  in
  let b = Balance.prepare ~machine:Presets.alpha (Unroll_space.make ~bounds:[| 3; 0 |]) nest0 in
  Alcotest.(check (float 1e-9)) "beta_L(0) = 1" 1.0
    (Balance.loop_balance b ~cache:false (v [ 0; 0 ]));
  Alcotest.(check (float 1e-9)) "beta_L(1) = 0.5" 0.5
    (Balance.loop_balance b ~cache:false (v [ 1; 0 ]))

let test_bruteforce_metrics_consistency () =
  let nest = Ujam_kernels.Kernels.dmxpy0 ~n:12 () in
  let m = Bruteforce.metrics ~machine:Presets.alpha nest (v [ 2; 0 ]) in
  Alcotest.(check int) "flops" 6 m.Bruteforce.flops;
  Alcotest.(check bool) "streams >= memory ops" true
    (m.Bruteforce.streams >= m.Bruteforce.memory_ops);
  Alcotest.(check bool) "balance consistent" true
    (m.Bruteforce.balance_cache >= m.Bruteforce.balance_nocache)

let test_depmodel_agrees_on_siv_suite () =
  let machine = Presets.alpha in
  List.iter
    (fun (e : Ujam_kernels.Catalogue.entry) ->
      if not (String.equal e.Ujam_kernels.Catalogue.name "afold") then begin
        let nest = e.Ujam_kernels.Catalogue.build ~n:12 () in
        let d = Ujam_ir.Nest.depth nest in
        let bounds = Array.make d 2 in
        bounds.(d - 1) <- 0;
        let space = Unroll_space.make ~bounds in
        Unroll_space.iter space (fun u ->
            let bf = Bruteforce.metrics ~machine nest u in
            let dm = Depmodel.metrics ~machine nest u in
            Alcotest.(check (pair int int))
              (Printf.sprintf "%s %s V_M,R" e.Ujam_kernels.Catalogue.name
                 (Vec.to_string u))
              (bf.Bruteforce.memory_ops, bf.Bruteforce.registers)
              (dm.Bruteforce.memory_ops, dm.Bruteforce.registers);
            Alcotest.(check (float 1e-9))
              (Printf.sprintf "%s %s misses" e.Ujam_kernels.Catalogue.name
                 (Vec.to_string u))
              bf.Bruteforce.misses dm.Bruteforce.misses)
      end)
    Ujam_kernels.Catalogue.all

let test_depmodel_coupled_divergence () =
  (* afold's C(I+J-1) is coupled: the dependence-vector abstraction
     treats its self-dependence as innermost-invariant and drops the
     load, the linear-algebra model keeps it — the paper's reason for
     restricting the comparison to separable SIV. *)
  let nest = Ujam_kernels.Kernels.afold ~n:12 () in
  let machine = Presets.alpha in
  let u = v [ 0; 0 ] in
  let bf = Bruteforce.metrics ~machine nest u in
  let dm = Depmodel.metrics ~machine nest u in
  Alcotest.(check bool) "known divergence on coupled subscripts" true
    (bf.Bruteforce.memory_ops <> dm.Bruteforce.memory_ops)

let test_depmodel_graph_cost () =
  let nest = Ujam_kernels.Kernels.jacobi ~n:12 () in
  let with_input, without = Depmodel.graph_cost nest (v [ 0; 0 ]) in
  Alcotest.(check bool) "input dominates jacobi" true (with_input > 2 * without);
  let wi2, wo2 = Depmodel.graph_cost nest (v [ 3; 0 ]) in
  Alcotest.(check bool) "unrolling grows the graph" true (wi2 > with_input && wo2 >= without)

let test_model_choices_agree () =
  let machine = Presets.alpha in
  List.iter
    (fun name ->
      let e = Option.get (Ujam_kernels.Catalogue.find name) in
      let nest = e.Ujam_kernels.Catalogue.build ~n:12 () in
      let d = Ujam_ir.Nest.depth nest in
      let bounds = Array.make d 3 in
      bounds.(d - 1) <- 0;
      let space = Unroll_space.make ~bounds in
      let b = Balance.prepare ~machine space nest in
      let c = Search.best ~cache:true b in
      let u_dep, _ = Depmodel.best ~cache:true ~machine space nest in
      Alcotest.(check bool)
        (Printf.sprintf "%s: UGS and dependence models pick the same u" name)
        true (Vec.equal c.Search.u u_dep))
    [ "mmjki"; "mmjik"; "dmxpy0"; "dmxpy1"; "jacobi"; "sor"; "vpenta.7" ]

let prop_driver_outcome_valid =
  QCheck2.Test.make ~name:"driver: choice is safe and within registers" ~count:40
    (Gen.nest_gen ~max_depth:2 ()) (fun nest ->
      let machine = Presets.alpha in
      let r = Gen.analyze_ok ~bound:3 ~machine nest in
      let g = Ujam_depend.Graph.build ~include_input:false nest in
      Ujam_depend.Safety.is_safe g r.Engine.u
      && r.Engine.registers <= machine.Machine.fp_registers)

let suite =
  [ Alcotest.test_case "driver report" `Quick test_driver_report;
    Alcotest.test_case "driver respects safety" `Quick test_driver_respects_safety;
    Alcotest.test_case "single-loop nest" `Quick test_driver_single_loop;
    Alcotest.test_case "max_loops knob" `Quick test_max_loops;
    Alcotest.test_case "paper Sec 3.3 example" `Quick test_no_cache_model_matches_paper_example;
    Alcotest.test_case "bruteforce metrics" `Quick test_bruteforce_metrics_consistency;
    Alcotest.test_case "dependence model agrees (SIV suite)" `Slow
      test_depmodel_agrees_on_siv_suite;
    Alcotest.test_case "dependence model diverges on coupled" `Quick
      test_depmodel_coupled_divergence;
    Alcotest.test_case "graph cost" `Quick test_depmodel_graph_cost;
    Alcotest.test_case "model choices agree" `Quick test_model_choices_agree;
    Gen.to_alcotest prop_driver_outcome_valid ]
