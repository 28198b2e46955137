(* The unified engine: strategy parity against the bare core pipeline,
   deterministic parallel corpus runs, and per-routine error
   degradation. *)

open Ujam_linalg
open Ujam_core
open Ujam_machine
open Ujam_engine
module Json = Ujam_obs.Json

let presets = [ ("alpha", Presets.alpha); ("hppa", Presets.hppa) ]

let report_exn = function
  | Ok r -> r
  | Error e -> Alcotest.failf "unexpected engine error: %s" (Error.to_string e)

(* The bare core pipeline: balance tables of a fresh context, then the
   register-bounded search. *)
let core_choice ~cache ~machine nest =
  Search.best ~cache
    (Analysis_ctx.balance (Analysis_ctx.create ~bound:4 ~machine nest))

(* Table-2 parity: for every kernel on both evaluation machines, the
   Ugs_tables strategy through the engine (supported-class check,
   monotonicity guard, memo) picks the same unroll vector and balance as
   the core pipeline at the same bound. *)
let test_parity () =
  List.iter
    (fun (mname, machine) ->
      List.iter
        (fun (e : Ujam_kernels.Catalogue.entry) ->
          let nest = e.Ujam_kernels.Catalogue.build ~n:12 () in
          let c = core_choice ~cache:true ~machine nest in
          let outcome =
            Engine.analyze ~bound:4 ~machine
              ~routine:e.Ujam_kernels.Catalogue.name nest
          in
          let rep = report_exn outcome in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s: same unroll vector" mname
               e.Ujam_kernels.Catalogue.name)
            true
            (Vec.equal rep.Engine.u c.Search.u);
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "%s/%s: same balance" mname
               e.Ujam_kernels.Catalogue.name)
            c.Search.balance rep.Engine.balance_after)
        Ujam_kernels.Catalogue.all)
    presets

(* The no-cache strategy must likewise match the core all-hits
   search. *)
let test_parity_no_cache () =
  List.iter
    (fun (e : Ujam_kernels.Catalogue.entry) ->
      let nest = e.Ujam_kernels.Catalogue.build ~n:12 () in
      let machine = Presets.alpha in
      let c = core_choice ~cache:false ~machine nest in
      let rep =
        report_exn
          (Engine.analyze ~bound:4 ~model:(module Model.No_cache) ~machine
             ~routine:e.Ujam_kernels.Catalogue.name nest)
      in
      Alcotest.(check bool)
        (Printf.sprintf "no-cache/%s: same unroll vector"
           e.Ujam_kernels.Catalogue.name)
        true
        (Vec.equal rep.Engine.u c.Search.u))
    Ujam_kernels.Catalogue.all

(* Unsupported nests: a non-unit loop step and an out-of-class subscript
   coefficient. *)
let bad_step_nest () =
  let d = 2 in
  let open Ujam_ir.Build in
  let j = var d 0 and i = var d 1 in
  nest "strided"
    [ loop d "J" ~level:0 ~lo:1 ~hi:16 ~step:2 ();
      loop d "I" ~level:1 ~lo:1 ~hi:16 () ]
    [ aref "A" [ i; j ] <<- rd "A" [ i; j ] +: rd "B" [ i ] ]

let bad_coef_nest () =
  let d = 2 in
  let open Ujam_ir.Build in
  let j = var d 0 and i = var d 1 in
  nest "scaled"
    [ loop d "J" ~level:0 ~lo:1 ~hi:16 (); loop d "I" ~level:1 ~lo:1 ~hi:16 () ]
    [ aref "A" [ i; j ] <<- rd "A" [ 3 *$ i; j ] +: rd "B" [ i ] ]

let test_check_supported () =
  let reject name nest =
    match Error.check_supported ~routine:name nest with
    | Ok () -> Alcotest.failf "%s should be rejected" name
    | Error e ->
        Alcotest.(check string) (name ^ " stage") "validate"
          (Error.stage_name e.Error.stage)
  in
  reject "strided" (bad_step_nest ());
  reject "scaled" (bad_coef_nest ());
  (* the doubled multigrid stride stays inside the modelled class *)
  List.iter
    (fun (e : Ujam_kernels.Catalogue.entry) ->
      match
        Error.check_supported ~routine:e.Ujam_kernels.Catalogue.name
          (e.Ujam_kernels.Catalogue.build ~n:12 ())
      with
      | Ok () -> ()
      | Error err ->
          Alcotest.failf "kernel %s wrongly rejected: %s"
            e.Ujam_kernels.Catalogue.name (Error.to_string err))
    Ujam_kernels.Catalogue.all

(* A corpus with injected unsupported routines: the batch completes with
   per-routine error records, never an exception, and 1-domain vs
   2-domain runs render byte-identically. *)
let corpus_with_injected () =
  let good = Ujam_workload.Generator.corpus ~seed:1997 ~count:200 () in
  let bad =
    [ { Ujam_workload.Generator.name = "inject-strided";
        nests = [ bad_step_nest () ] };
      { Ujam_workload.Generator.name = "inject-scaled";
        nests = [ bad_coef_nest () ] } ]
  in
  good @ bad

let test_corpus_degrades () =
  let routines = corpus_with_injected () in
  let report =
    Engine.run_corpus ~bound:3 ~machine:Presets.alpha routines
  in
  Alcotest.(check int) "every routine reported" (List.length routines)
    (Array.length report.Engine.routines);
  Alcotest.(check int) "both injected routines failed" 2 report.Engine.failed;
  Array.iter
    (fun r ->
      if String.length r.Engine.routine >= 6
         && String.equal (String.sub r.Engine.routine 0 6) "inject"
      then
        List.iter
          (function
            | Ok _ -> Alcotest.failf "%s should fail" r.Engine.routine
            | Error e ->
                Alcotest.(check string)
                  (r.Engine.routine ^ " fails validation")
                  "validate"
                  (Error.stage_name e.Error.stage))
          r.Engine.nests)
    report.Engine.routines

let test_corpus_deterministic () =
  let routines = corpus_with_injected () in
  let run domains =
    Engine.to_string
      (Engine.run_corpus ~domains ~bound:3 ~machine:Presets.alpha routines)
  in
  let one = run 1 in
  Alcotest.(check string) "1 domain = 2 domains" one (run 2);
  Alcotest.(check string) "1 domain = 4 domains" one (run 4)

(* A strategy's search plus the evaluation of the original loop (what
   the engine's speedup reads) must build the balance tables exactly
   once. *)
let test_tables_built_once () =
  let nest = Ujam_kernels.Kernels.mmjki ~n:12 () in
  let ctx = Analysis_ctx.create ~bound:4 ~machine:Presets.alpha nest in
  let (_ : Search.choice) = Model.Ugs_tables.analyze ctx in
  Alcotest.(check int) "one build after the search" 1
    (Analysis_ctx.table_builds ctx);
  let (_ : Search.choice) =
    Search.evaluate ~cache:true (Analysis_ctx.balance ctx) (Vec.zero 3)
  in
  Alcotest.(check int) "still one build after evaluating u = 0" 1
    (Analysis_ctx.table_builds ctx)

(* A context shared by several strategies is reused, not rebuilt. *)
let test_ctx_shared_across_calls () =
  let nest = Ujam_kernels.Kernels.dmxpy0 ~n:12 () in
  let ctx = Analysis_ctx.create ~bound:4 ~machine:Presets.alpha nest in
  let c1 = Model.Ugs_tables.analyze ctx in
  let c2 = Model.Ugs_tables.analyze ctx in
  let (_ : Search.choice) = Model.No_cache.analyze ctx in
  Alcotest.(check int) "one table build for three searches" 1
    (Analysis_ctx.table_builds ctx);
  Alcotest.(check bool) "same choice" true (Vec.equal c1.Search.u c2.Search.u)

let test_registry () =
  Alcotest.(check (list string)) "registry order"
    [ "ugs"; "dep"; "brute"; "no-cache"; "ugs-l2" ]
    Model.names;
  List.iter
    (fun (alias, expect) ->
      match Model.find alias with
      | Some m -> Alcotest.(check string) alias expect (Model.name m)
      | None -> Alcotest.failf "alias %s not found" alias)
    [ ("ugs-tables", "ugs"); ("dependence", "dep"); ("bruteforce", "brute");
      ("carr-kennedy", "no-cache"); ("UGS", "ugs") ];
  Alcotest.(check bool) "unknown name rejected" true
    (Option.is_none (Model.find "magic"))

(* The strategy matrix on DEC Alpha at n = 12 and bound 3: every
   registered model (in [Model.names] order) analyses one shared
   context per kernel.  Only the all-hits model diverges, on the three
   kernels whose reuse it cannot see. *)
let strategy_matrix =
  [ ("dmxpy0", [ "(3,0)"; "(3,0)"; "(3,0)"; "(3,0)"; "(3,0)" ]);
    ("mmjki", [ "(2,3,0)"; "(2,3,0)"; "(2,3,0)"; "(1,1,0)"; "(2,3,0)" ]);
    ("sor", [ "(3,0)"; "(3,0)"; "(3,0)"; "(0,0)"; "(3,0)" ]);
    ("jacobi", [ "(3,0)"; "(3,0)"; "(3,0)"; "(0,0)"; "(3,0)" ]) ]

let test_strategy_matrix () =
  List.iter
    (fun (kernel, expect) ->
      let e = Option.get (Ujam_kernels.Catalogue.find kernel) in
      let ctx =
        Analysis_ctx.create ~bound:3 ~machine:Presets.alpha
          (e.Ujam_kernels.Catalogue.build ~n:12 ())
      in
      let choice m =
        let module M = (val m : Model.MODEL) in
        Vec.to_string (M.analyze ctx).Search.u
      in
      Alcotest.(check (list string)) kernel expect (List.map choice Model.all))
    strategy_matrix

(* JSON rendering stays valid on edge values (inf balance from
   zero-flop nests must become null, not a bare inf token). *)
let test_json_non_finite () =
  Alcotest.(check string) "inf -> null" "null"
    (Json.to_string (Json.Float infinity));
  Alcotest.(check string) "nan -> null" "null"
    (Json.to_string (Json.Float nan));
  Alcotest.(check string) "escaping" {|"a\"b\\c"|}
    (Json.to_string (Json.Str {|a"b\c|}))

let suite =
  [ Alcotest.test_case "Table-2 parity on both machines" `Quick test_parity;
    Alcotest.test_case "no-cache parity" `Quick test_parity_no_cache;
    Alcotest.test_case "check_supported" `Quick test_check_supported;
    Alcotest.test_case "corpus degrades per-routine" `Quick test_corpus_degrades;
    Alcotest.test_case "corpus deterministic across domains" `Quick
      test_corpus_deterministic;
    Alcotest.test_case "tables built once" `Quick test_tables_built_once;
    Alcotest.test_case "shared context reused" `Quick test_ctx_shared_across_calls;
    Alcotest.test_case "model registry" `Quick test_registry;
    Alcotest.test_case "strategy matrix (n=12, bound 3)" `Quick
      test_strategy_matrix;
    Alcotest.test_case "json edge values" `Quick test_json_non_finite ]
