(* End-to-end semantic verification: the interpreter executes the
   original nest and the fully lowered result (unroll-and-jam + scalar
   replacement + chain-priming preheader) and the stores must be
   identical.  This is the strongest statement the repository makes
   about the transformation pipeline. *)

open Ujam_linalg
open Ujam_ir
open Ujam_core
open Ujam_sim

let lower nest u =
  let t = Unroll.unroll_and_jam nest u in
  let plan = Scalar_replace.plan t in
  let body = Scalar_replace.apply t plan in
  let pre = Scalar_replace.preheader t plan in
  (body, fun _iv -> pre)

let check_equal name nest u =
  let reference = Interp.run nest in
  let body, preheader = lower nest (Vec.of_list u) in
  let transformed = Interp.run ~preheader body in
  Alcotest.(check bool)
    (Printf.sprintf "%s at u=%s" name (String.concat "," (List.map string_of_int u)))
    true
    (Interp.equal reference transformed)

(* Kernel sizes are chosen so every unrolled loop's trip count divides
   the factor (the cleanup loop is out of scope, as in the paper). *)
let test_suite_semantics () =
  check_equal "mmjki" (Ujam_kernels.Kernels.mmjki ~n:12 ()) [ 1; 2; 0 ];
  check_equal "mmjik" (Ujam_kernels.Kernels.mmjik ~n:12 ()) [ 2; 3; 0 ];
  check_equal "dmxpy0" (Ujam_kernels.Kernels.dmxpy0 ~n:12 ()) [ 3; 0 ];
  check_equal "dmxpy1" (Ujam_kernels.Kernels.dmxpy1 ~n:12 ()) [ 2; 0 ];
  check_equal "jacobi" (Ujam_kernels.Kernels.jacobi ~n:14 ()) [ 2; 0 ];
  check_equal "cond7" (Ujam_kernels.Kernels.cond7 ~n:14 ()) [ 3; 0 ];
  check_equal "cond9" (Ujam_kernels.Kernels.cond9 ~n:13 ()) [ 2; 0 ];
  check_equal "vpenta" (Ujam_kernels.Kernels.vpenta7 ~n:14 ()) [ 1; 0 ];
  check_equal "afold" (Ujam_kernels.Kernels.afold ~n:12 ()) [ 1; 0 ];
  check_equal "btrix1" (Ujam_kernels.Kernels.btrix1 ~n:11 ()) [ 1; 0; 0 ];
  check_equal "btrix7" (Ujam_kernels.Kernels.btrix7 ~n:11 ()) [ 1; 0; 0 ];
  check_equal "btrix7-j" (Ujam_kernels.Kernels.btrix7 ~n:12 ()) [ 0; 3; 0 ];
  check_equal "gmtry3" (Ujam_kernels.Kernels.gmtry3 ~n:12 ()) [ 2; 1; 0 ];
  check_equal "dflux17" (Ujam_kernels.Kernels.dflux17 ~n:14 ()) [ 3; 0 ];
  check_equal "collc2" (Ujam_kernels.Kernels.collc2 ~n:12 ()) [ 2; 0 ];
  check_equal "shal" (Ujam_kernels.Kernels.shal ~n:14 ()) [ 2; 0 ]

let test_scalar_replacement_alone () =
  (* u = 0: the lowering is pure scalar replacement *)
  List.iter
    (fun (e : Ujam_kernels.Catalogue.entry) ->
      let nest = e.Ujam_kernels.Catalogue.build ~n:10 () in
      let d = Nest.depth nest in
      check_equal e.Ujam_kernels.Catalogue.name nest
        (List.init d (fun _ -> 0)))
    Ujam_kernels.Catalogue.all

let test_reduction_scalar () =
  (* accumulation through the invariant scalar must preserve the sum *)
  let open Ujam_ir.Build in
  let d = 2 in
  let j = var d 0 and i = var d 1 in
  let nest =
    nest "red"
      [ loop d "J" ~level:0 ~lo:1 ~hi:6 (); loop d "I" ~level:1 ~lo:1 ~hi:8 () ]
      [ aref "A" [ j ] <<- rd "A" [ j ] +: rd "B" [ i; j ] ]
  in
  check_equal "reduction" nest [ 0; 0 ];
  check_equal "reduction unrolled" nest [ 2; 0 ]

let test_interp_basics () =
  let open Ujam_ir.Build in
  let d = 1 in
  let i = var d 0 in
  let nest =
    nest "copy"
      [ loop d "I" ~level:0 ~lo:1 ~hi:4 () ]
      [ aref "A" [ i ] <<- f 2.0 *: rd "B" [ i ] ]
  in
  let st = Interp.run nest in
  Alcotest.(check int) "4 locations written" 4 (Interp.written st);
  Alcotest.(check bool) "A(1) defined" true (Option.is_some (Interp.read st "A" [ 1 ]));
  Alcotest.(check bool) "B never written" true (Option.is_none (Interp.read st "B" [ 1 ]));
  Alcotest.(check bool) "checksum stable" true
    (Float.abs (Interp.checksum st -. Interp.checksum (Interp.run nest)) < 1e-12);
  Alcotest.(check bool) "self equal" true (Interp.equal st (Interp.run nest))

let lower_vec nest u =
  let t = Unroll.unroll_and_jam nest u in
  let plan = Scalar_replace.plan t in
  let body = Scalar_replace.apply t plan in
  let pre = Scalar_replace.preheader t plan in
  (body, fun _iv -> pre)

let prop_driver_pipeline_semantics =
  (* For random nests, take the engine's own (safety-bounded) choice,
     restricted to factors dividing the trip counts, and verify the full
     lowering semantically. *)
  QCheck2.Test.make ~name:"pipeline: driver choice + lowering preserves semantics"
    ~count:40 ~print:Gen.nest_print (Gen.nest_gen ~max_depth:2 ())
    (fun nest ->
      let machine = Ujam_machine.Presets.alpha in
      let r = Gen.analyze_ok ~bound:3 ~machine nest in
      let trips = Option.get (Nest.trip_counts nest) in
      let u =
        Vec.init (Nest.depth nest) (fun k ->
            let want = Vec.get r.Ujam_engine.Engine.u k + 1 in
            let rec fit f = if f >= 1 && trips.(k) mod f = 0 then f else fit (f - 1) in
            fit want - 1)
      in
      let reference = Interp.run nest in
      let body, preheader = lower_vec nest u in
      Interp.equal reference (Interp.run ~preheader body))

let suite =
  [ Alcotest.test_case "interp basics" `Quick test_interp_basics;
    Alcotest.test_case "suite semantics under unroll+scalar-replace" `Quick
      test_suite_semantics;
    Alcotest.test_case "scalar replacement alone" `Quick test_scalar_replacement_alone;
    Alcotest.test_case "reduction through scalar" `Quick test_reduction_scalar;
    Gen.to_alcotest prop_driver_pipeline_semantics ]
