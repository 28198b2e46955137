(* The differential oracle: clean runs stay clean, injected table bugs
   are caught and shrunk to small reproducers. *)

open Ujam_linalg
open Ujam_ir
open Ujam_oracle

let machine = Ujam_machine.Presets.alpha

(* ---- the three layers on known-good kernels -------------------------- *)

let test_recount_kernels () =
  List.iter
    (fun nest ->
      Alcotest.(check int)
        (Printf.sprintf "%s: tables match materialized recount"
           (Nest.name nest))
        0
        (List.length (Recount.check ~machine nest)))
    [ Ujam_kernels.Kernels.mmjki ~n:12 ();
      Ujam_kernels.Kernels.dmxpy0 ~n:24 ();
      Ujam_kernels.Kernels.jacobi ~n:14 ();
      Ujam_kernels.Kernels.sor ~n:14 () ]

let test_crossmodel_kernels () =
  List.iter
    (fun nest ->
      let unexplained =
        List.filter
          (fun m -> not (Mismatch.is_explained m))
          (Crossmodel.check ~machine nest)
      in
      Alcotest.(check int)
        (Printf.sprintf "%s: no unexplained model divergence" (Nest.name nest))
        0 (List.length unexplained))
    [ Ujam_kernels.Kernels.mmjki ~n:12 ();
      Ujam_kernels.Kernels.dmxpy0 ~n:24 () ]

let test_simcheck_kernel () =
  let o = Simcheck.check ~machine (Ujam_kernels.Kernels.dmxpy0 ~n:24 ()) in
  Alcotest.(check bool) "candidates replayed" true (o.Simcheck.simulated > 1);
  Alcotest.(check int) "no rank inversion" 0 (List.length o.Simcheck.mismatches)

(* ---- clean fuzz run --------------------------------------------------- *)

let test_clean_run () =
  let cfg = { (Fuzz.default_config ~machine ()) with Fuzz.n = 20; seed = 5 } in
  let r = Fuzz.run cfg in
  Alcotest.(check int) "all requested nests checked" 20 r.Fuzz.nests;
  Alcotest.(check int) "no mismatches" 0 r.Fuzz.total_mismatches;
  Alcotest.(check bool) "report ok" true (Fuzz.ok r);
  Alcotest.(check bool) "sim layer exercised" true (r.Fuzz.sim_checked > 0)

let test_deterministic () =
  let cfg =
    { (Fuzz.default_config ~machine ()) with
      Fuzz.n = 10;
      seed = 9;
      layers = [ Fuzz.Recount; Fuzz.Cross_model ] }
  in
  let render r = Format.asprintf "%a" Fuzz.pp r in
  Alcotest.(check string)
    "same config, same report"
    (render (Fuzz.run cfg))
    (render (Fuzz.run cfg))

(* ---- fault injection: a deliberate table bug must be caught and
   shrunk to a small reproducer (the PR's acceptance regression). ------- *)

let test_injected_bug_caught_and_shrunk () =
  (* Pretend V_M over-counts by one on every non-trivial unroll vector:
     the recount layer must flag it on any nest with a real search
     space, and shrinking must keep only enough structure to reproduce
     (a non-trivial space needs two loops; one statement with one read
     suffices). *)
  let perturb u (c : Counts.t) =
    if Vec.is_zero u then c
    else { c with Counts.memory_ops = c.Counts.memory_ops + 1 }
  in
  let cfg =
    { (Fuzz.default_config ~machine ()) with
      Fuzz.n = 12;
      seed = 42;
      layers = [ Fuzz.Recount ];
      shrink = true }
  in
  let r = Fuzz.run ~perturb cfg in
  Alcotest.(check bool) "bug caught" true (r.Fuzz.unexplained > 0);
  Alcotest.(check bool) "report not ok" true (not (Fuzz.ok r));
  let reduced = List.filter_map (fun f -> f.Fuzz.reduced) r.Fuzz.failures in
  Alcotest.(check bool) "reproducers produced" true (reduced <> []);
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: reproducer has at most 2 loops" (Nest.name n))
        true
        (Nest.depth n <= 2);
      Alcotest.(check bool)
        (Printf.sprintf "%s: reproducer has at most 3 refs" (Nest.name n))
        true
        (List.length (Nest.refs n) <= 3);
      (* the reproducer still fails the injected check *)
      Alcotest.(check bool)
        (Printf.sprintf "%s: reproducer still failing" (Nest.name n))
        true
        (Recount.check ~perturb ~machine n
        |> List.exists (fun m -> not (Mismatch.is_explained m))))
    reduced

(* ---- the shrinker on a hand-written predicate ------------------------ *)

let has_coef2 nest =
  List.exists
    (fun ((r : Aref.t), _) ->
      Array.exists
        (fun (s : Affine.t) -> Array.exists (fun c -> abs c = 2) s.Affine.coefs)
        r.Aref.subs)
    (Nest.refs nest)

let test_shrink_minimises () =
  let open Ujam_ir.Build in
  let d = 3 in
  let big =
    nest "big"
      [ loop d "I" ~level:0 ~lo:1 ~hi:12 ();
        loop d "J" ~level:1 ~lo:1 ~hi:12 ();
        loop d "K" ~level:2 ~lo:1 ~hi:12 () ]
      [ aref "A" [ var d 0; var d 1 ]
        <<- (rd "B" [ 2 *$ var d 2 ] +: rd "C" [ var d 0; var d 1 ])
            +: rd "A" [ var d 0; var d 1 ];
        aref "D" [ var d 2 ] <<- rd "D" [ var d 2 ] *: rd "C" [ var d 1; var d 2 ] ]
  in
  Alcotest.(check bool) "predicate holds on the input" true (has_coef2 big);
  let small = Shrink.run ~still_fails:has_coef2 big in
  Alcotest.(check bool) "predicate preserved" true (has_coef2 small);
  Alcotest.(check int) "one loop left" 1 (Nest.depth small);
  Alcotest.(check int) "one statement left" 1 (List.length (Nest.body small));
  Alcotest.(check int) "two refs left" 2 (List.length (Nest.refs small));
  match Nest.trip_counts small with
  | Some trips ->
      Alcotest.(check bool) "trip count shrunk" true
        (Array.for_all (fun t -> t <= 4) trips)
  | None -> Alcotest.fail "constant bounds expected"

let test_shrink_rejects_different_failure () =
  (* A predicate that raises must be treated as "not the same failure":
     the input comes back unchanged. *)
  let nest = Ujam_kernels.Kernels.jacobi ~n:14 () in
  let boom _ = failwith "different failure" in
  let out = Shrink.run ~still_fails:boom nest in
  Alcotest.(check string) "unchanged" (Nest.to_string nest)
    (Nest.to_string out)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let test_snippet () =
  let open Ujam_ir.Build in
  let d = 2 in
  let n =
    nest "repro"
      [ loop d "I" ~level:0 ~lo:1 ~hi:4 (); loop d "J" ~level:1 ~lo:1 ~hi:4 () ]
      [ aref "A" [ var d 0; var d 1 ] <<- rd "B" [ var d 1; (2 *$ var d 0) +$ 1 ] ]
  in
  let s = Shrink.to_snippet n in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "snippet mentions %s" needle)
        true
        (contains s needle))
    [ "let open Ujam_ir.Build in"; "nest \"repro\""; "rd \"B\"";
      "(2 *$ var d 0) +$ 1"; "~lo:1 ~hi:4" ];
  match Shrink.to_json n with
  | Ujam_obs.Json.Obj fields ->
      Alcotest.(check bool) "json has loops and snippet" true
        (List.mem_assoc "loops" fields && List.mem_assoc "snippet" fields)
  | _ -> Alcotest.fail "object expected"

let suite =
  [ Alcotest.test_case "recount: kernels" `Quick test_recount_kernels;
    Alcotest.test_case "cross-model: kernels" `Quick test_crossmodel_kernels;
    Alcotest.test_case "simcheck: kernel" `Quick test_simcheck_kernel;
    Alcotest.test_case "fuzz: clean run" `Quick test_clean_run;
    Alcotest.test_case "fuzz: deterministic" `Quick test_deterministic;
    Alcotest.test_case "fuzz: injected bug caught+shrunk" `Quick
      test_injected_bug_caught_and_shrunk;
    Alcotest.test_case "shrink: minimises" `Quick test_shrink_minimises;
    Alcotest.test_case "shrink: different failure" `Quick
      test_shrink_rejects_different_failure;
    Alcotest.test_case "shrink: snippet + json" `Quick test_snippet ]
