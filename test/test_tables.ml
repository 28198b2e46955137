(* The paper's table computations (Figures 2, 3, 5) and their exact
   counterparts, validated against literal materialisation of the
   unrolled body — the central correctness statement of this
   reproduction. *)

open Ujam_linalg
open Ujam_ir
open Ujam_ir.Build
open Ujam_core
open Ujam_reuse

let v = Vec.of_list
let innermost d = Subspace.span_dims ~dim:d [ d - 1 ]

(* Ground truth: group counts of the literally unrolled body. *)
let materialized_counts nest u =
  let unrolled = Unroll.unroll_and_jam nest u in
  let d = Nest.depth unrolled in
  let localized = innermost d in
  List.fold_left
    (fun (gt, gs) g ->
      ( gt + Groups.count (Groups.group_temporal ~localized g),
        gs + Groups.count (Groups.group_spatial ~localized g) ))
    (0, 0) (Ugs.of_nest unrolled)

let table_counts nest space u =
  let d = Nest.depth nest in
  let localized = innermost d in
  List.fold_left
    (fun (gt, gs) g ->
      ( gt + Tables.gts_exact space ~localized g u,
        gs + Tables.gss_exact space ~localized g u ))
    (0, 0) (Ugs.of_nest nest)

let incremental_counts nest space u =
  let d = Nest.depth nest in
  let localized = innermost d in
  List.fold_left
    (fun (gt, gs) g ->
      ( gt + Tables.total (Tables.gts_table space ~localized g) u,
        gs + Tables.total (Tables.gss_table space ~localized g) u ))
    (0, 0) (Ugs.of_nest nest)

let test_paper_example () =
  (* Figure 1 of the paper: A(I,J) store and A(I-2,J) read; unrolling the
     I loop merges the copies from offset 2 on. *)
  let d = 2 in
  let i = var d 0 and j = var d 1 in
  let nest =
    nest "fig1"
      [ loop d "I" ~level:0 ~lo:3 ~hi:18 (); loop d "J" ~level:1 ~lo:1 ~hi:16 () ]
      [ aref "A" [ i; j ] <<- rd "A" [ i -$ 2; j ] +: f 1.0 ]
  in
  let space = Unroll_space.make ~bounds:[| 3; 0 |] in
  let a = List.hd (Ugs.of_nest nest) in
  let gts u = Tables.gts_exact space ~localized:(innermost d) a u in
  Alcotest.(check int) "2 GTSs originally" 2 (gts (v [ 0; 0 ]));
  Alcotest.(check int) "u=1: 4 (no merge yet)" 4 (gts (v [ 1; 0 ]));
  Alcotest.(check int) "u=2: first copy merges" 5 (gts (v [ 2; 0 ]));
  Alcotest.(check int) "u=3: still leader+copies" 6 (gts (v [ 3; 0 ]));
  (* and the incremental table agrees *)
  let t = Tables.gts_table space ~localized:(innermost d) a in
  List.iter
    (fun u -> Alcotest.(check int) "incremental" (gts (v u)) (Tables.total t (v u)))
    [ [ 0; 0 ]; [ 1; 0 ]; [ 2; 0 ]; [ 3; 0 ] ]

let test_invariant_direction () =
  (* C(I,J) in a (J,K,I) nest: unrolling K never multiplies the groups. *)
  let nest = Ujam_kernels.Kernels.mmjki ~n:12 () in
  let d = Nest.depth nest in
  let space = Unroll_space.make ~bounds:[| 3; 3; 0 |] in
  let c =
    List.find (fun (g : Ugs.t) -> String.equal g.Ugs.base "C") (Ugs.of_nest nest)
  in
  let gts u = Tables.gts_exact space ~localized:(innermost d) c u in
  Alcotest.(check int) "K-unrolling collapses" 1 (gts (v [ 0; 3; 0 ]));
  Alcotest.(check int) "J-unrolling multiplies" 4 (gts (v [ 3; 0; 0 ]));
  Alcotest.(check int) "mixed" 4 (gts (v [ 3; 3; 0 ]))

let test_kernel_suite_exact_vs_materialized () =
  List.iter
    (fun (e : Ujam_kernels.Catalogue.entry) ->
      let nest = e.Ujam_kernels.Catalogue.build ~n:12 () in
      let d = Nest.depth nest in
      let bounds = Array.make d 2 in
      bounds.(d - 1) <- 0;
      let space = Unroll_space.make ~bounds in
      Unroll_space.iter space (fun u ->
          let gt_m, gs_m = materialized_counts nest u in
          let gt_t, gs_t = table_counts nest space u in
          Alcotest.(check (pair int int))
            (Printf.sprintf "%s at %s" e.Ujam_kernels.Catalogue.name (Vec.to_string u))
            (gt_m, gs_m) (gt_t, gs_t)))
    Ujam_kernels.Catalogue.all

let test_kernel_suite_incremental_vs_exact () =
  List.iter
    (fun (e : Ujam_kernels.Catalogue.entry) ->
      let nest = e.Ujam_kernels.Catalogue.build ~n:12 () in
      let d = Nest.depth nest in
      let bounds = Array.make d 3 in
      bounds.(d - 1) <- 0;
      let space = Unroll_space.make ~bounds in
      Unroll_space.iter space (fun u ->
          Alcotest.(check (pair int int))
            (Printf.sprintf "%s at %s" e.Ujam_kernels.Catalogue.name (Vec.to_string u))
            (table_counts nest space u)
            (incremental_counts nest space u)))
    Ujam_kernels.Catalogue.all

let test_rrs_partition () =
  (* vpenta: F(I,J) read+write split at the definition; F(I,J-1) and
     F(I,J-2) are their own streams. *)
  let nest = Ujam_kernels.Kernels.vpenta7 ~n:12 () in
  let d = Nest.depth nest in
  let streams = Rrs.partition ~localized:(innermost d) nest in
  Alcotest.(check int) "six streams" 6 (List.length streams);
  let f_streams =
    List.filter (fun (s : Streams.stream) -> String.equal s.Streams.base "F") streams
  in
  Alcotest.(check int) "F splits into read + def + 2 lagged" 4
    (List.length f_streams)

let test_rrs_paper_figure6 () =
  (* Figure 6: def A(I+1,J), two uses A(I,J); before unrolling the def
     cannot feed the uses in the innermost loop (reuse crosses the I
     loop), after unrolling I by 1 it can. *)
  let d = 2 in
  let i = var d 0 and j = var d 1 in
  let nest =
    nest "fig6"
      [ loop d "I" ~level:0 ~lo:1 ~hi:16 (); loop d "J" ~level:1 ~lo:1 ~hi:16 () ]
      [ aref "B" [ i; j ] <<- rd "A" [ i; j ] +: rd "A" [ i; j ];
        aref "A" [ i +$ 1; j ] <<- rd "B" [ i; j ] *: f 2.0 ]
  in
  let space = Unroll_space.make ~bounds:[| 2; 0 |] in
  let mem = Rrs.memory_table space ~localized:(innermost d) nest in
  (* u=0: one A load (the two uses share it), the A def's store, the B
     def's store (its same-iteration read comes from the register) *)
  Alcotest.(check int) "original memory ops" 3
    (Unroll_space.Table.get mem (v [ 0; 0 ]));
  (* u=1: copy 1's A(I+1,J) uses are fed by copy 0's A(I+1,J) def — the
     Figure 6 merge.  Memory ops: 1 surviving A load + 2 A stores + 2 B
     stores. *)
  Alcotest.(check int) "unrolled memory ops" 5
    (Unroll_space.Table.get mem (v [ 1; 0 ]));
  (* u=2 adds one more def/copy pair but still a single A load *)
  Alcotest.(check int) "u=2 memory ops" 7
    (Unroll_space.Table.get mem (v [ 2; 0 ]))

let test_register_table_spans () =
  (* A(I,J) = A(I,J-2): value must survive two innermost iterations ->
     3 registers for the chain, 1 for the def stream. *)
  let d = 2 in
  let i = var d 0 and j = var d 1 in
  let nest =
    nest "lag2"
      [ loop d "I" ~level:0 ~lo:1 ~hi:8 (); loop d "J" ~level:1 ~lo:3 ~hi:18 () ]
      [ aref "A" [ i; j ] <<- rd "A" [ i; j -$ 2 ] +: f 1.0 ]
  in
  let space = Unroll_space.make ~bounds:[| 1; 0 |] in
  let reg = Rrs.register_table space ~localized:(innermost d) nest in
  Alcotest.(check int) "lag-2 chain needs 3 registers" 3
    (Unroll_space.Table.get reg (v [ 0; 0 ]));
  Alcotest.(check int) "independent copies double it" 6
    (Unroll_space.Table.get reg (v [ 1; 0 ]))

let prop_streams_match_materialization =
  QCheck2.Test.make ~name:"tables: streams == materialised body (random SIV nests)"
    ~count:60
    ~print:(fun (nest, space) ->
      Printf.sprintf "%s\nbounds=%s" (Gen.nest_print nest)
        (String.concat ","
           (Array.to_list (Array.map string_of_int (Unroll_space.bounds space)))))
    (Gen.nest_and_space_gen ())
    (fun (nest, space) ->
      let d = Nest.depth nest in
      let localized = innermost d in
      let ok = ref true in
      Unroll_space.iter space (fun u ->
          let m =
            Streams.summarize
              (Streams.of_body ~localized (Unroll.unroll_and_jam nest u))
          in
          let t =
            Streams.summarize (Streams.of_nest_unrolled space ~localized nest u)
          in
          if m <> t then ok := false);
      !ok)

let prop_groups_match_materialization =
  QCheck2.Test.make ~name:"tables: exact group counts == materialised body"
    ~count:60
    ~print:(fun (nest, space) ->
      Printf.sprintf "%s\nbounds=%s" (Gen.nest_print nest)
        (String.concat ","
           (Array.to_list (Array.map string_of_int (Unroll_space.bounds space)))))
    (Gen.nest_and_space_gen ())
    (fun (nest, space) ->
      let ok = ref true in
      Unroll_space.iter space (fun u ->
          if materialized_counts nest u <> table_counts nest space u then ok := false);
      !ok)

let prop_incremental_matches_exact =
  QCheck2.Test.make ~name:"tables: incremental tables == exact counts" ~count:60
    ~print:(fun (nest, space) ->
      Printf.sprintf "%s\nbounds=%s" (Gen.nest_print nest)
        (String.concat ","
           (Array.to_list (Array.map string_of_int (Unroll_space.bounds space)))))
    (Gen.nest_and_space_gen ())
    (fun (nest, space) ->
      let d = Nest.depth nest in
      let localized = innermost d in
      (* the incremental algorithm shares the paper's domain restriction:
         merge keys must be orientable (Sec. 5) *)
      QCheck2.assume
        (List.for_all
           (fun g -> Tables.gts_applicable space ~localized g)
           (Ugs.of_nest nest));
      let ok = ref true in
      Unroll_space.iter space (fun u ->
          if incremental_counts nest space u <> table_counts nest space u then
            ok := false);
      !ok)

let prop_incremental_rrs_matches_streams =
  QCheck2.Test.make ~name:"tables: Figure-5 RRS table == stream count" ~count:60
    ~print:(fun (nest, space) ->
      Printf.sprintf "%s\nbounds=%s" (Gen.nest_print nest)
        (String.concat ","
           (Array.to_list (Array.map string_of_int (Unroll_space.bounds space)))))
    (Gen.nest_and_space_gen ())
    (fun (nest, space) ->
      let d = Nest.depth nest in
      let localized = innermost d in
      let exact = Rrs.stream_table space ~localized nest in
      let inc = Rrs.incremental_rrs_table space ~localized nest in
      let ok = ref true in
      Unroll_space.iter space (fun u ->
          if Unroll_space.Table.get exact u <> Unroll_space.Table.get inc u then
            ok := false);
      !ok)

let prop_summary_fn_matches_streams =
  QCheck2.Test.make
    ~name:"tables: summary closure == summarised stream construction" ~count:60
    ~print:(fun (nest, space) ->
      Printf.sprintf "%s\nbounds=%s" (Gen.nest_print nest)
        (String.concat ","
           (Array.to_list (Array.map string_of_int (Unroll_space.bounds space)))))
    (Gen.nest_and_space_gen ())
    (fun (nest, space) ->
      let d = Nest.depth nest in
      let localized = innermost d in
      let ok = ref true in
      List.iter
        (fun g ->
          let fast = Streams.unrolled_summary_fn space ~localized g in
          let slow = Streams.unrolled_fn space ~localized g in
          Unroll_space.iter space (fun u ->
              if fast u <> Streams.summarize (slow u) then ok := false))
        (Ugs.of_nest nest);
      !ok)

(* The per-[u] summary query walks flat arrays: beyond its 4-word
   result record it allocates nothing, however many classes it visits. *)
let test_summary_query_allocation () =
  let nest = Ujam_kernels.Kernels.mmjki ~n:12 () in
  let d = Nest.depth nest in
  let space = Unroll_space.make ~bounds:[| 3; 3; 0 |] in
  let fns =
    List.map
      (fun g -> Streams.unrolled_summary_fn space ~localized:(innermost d) g)
      (Ugs.of_nest nest)
  in
  let us = Unroll_space.vectors space in
  let queries = List.length fns * List.length us in
  let w0 = Gc.minor_words () in
  List.iter (fun fn -> List.iter (fun u -> ignore (Sys.opaque_identity (fn u))) us) fns;
  let per_query = (Gc.minor_words () -. w0) /. float_of_int queries in
  if per_query > 4.5 then
    Alcotest.failf "summary query: %.1f minor words, want the 4-word result only"
      per_query

(* The definition the class keys replace: [p ~ r] when some [x] in the
   localized space solves [H_solve x = H (p - r)] (contiguous row
   dropped for the spatial variant); the witness's innermost component
   is the time shift. *)
let reference_equiv ~h_apply ~h_solve ~localized ~truncate p r =
  let rhs = Mat.apply h_apply (Vec.sub p r) in
  let rhs = if truncate && Vec.dim rhs > 0 then Vec.set rhs 0 0 else rhs in
  Option.map
    (fun x -> Vec.get x (Mat.cols h_apply - 1))
    (Subspace.solution_in h_solve rhs localized)

let point_class_case_gen =
  let open QCheck2.Gen in
  let* depth = int_range 1 4 in
  let* rows = int_range 1 3 in
  let* zero_innermost = bool in
  let* entries = array_size (return (rows * depth)) (int_range (-3) 3) in
  let h =
    Mat.init ~rows ~cols:depth (fun i j ->
        if zero_innermost && j = depth - 1 then 0 else entries.((i * depth) + j))
  in
  let* b = array_size (return depth) (int_range (-3) 3) in
  let* localized =
    oneofl
      [ Subspace.span_dims ~dim:depth [ depth - 1 ];
        Subspace.trivial depth;
        Subspace.of_basis ~dim:depth [ Vec.make b ] ]
  in
  let big = int_range (-(1 lsl 30)) (1 lsl 30) in
  let* p = array_size (return depth) big in
  (* r is p moved along the lattice (equivalent), then possibly
     perturbed a little (sometimes within ker H) or a lot. *)
  let* y = int_range (-1000) 1000 in
  let* perturb =
    oneof
      [ return (Array.make depth 0);
        array_size (return depth) (int_range (-2) 2);
        array_size (return depth) big ]
  in
  let step =
    match Subspace.basis localized with [ g ] -> Vec.scale y g | _ -> Vec.zero depth
  in
  let r = Vec.add (Vec.add (Vec.make p) step) (Vec.make perturb) in
  return (h, localized, Vec.make p, r)

let prop_point_class_matches_solver =
  QCheck2.Test.make ~name:"solvers: point class keys == rational solve" ~count:500
    ~print:(fun (h, localized, p, r) ->
      Format.asprintf "H=%a@ L=%a@ p=%a@ r=%a" Mat.pp h Subspace.pp localized
        Vec.pp p Vec.pp r)
    point_class_case_gen
    (fun (h, localized, p, r) ->
      let agrees cls ~h_solve ~truncate =
        let kp, tp = cls p and kr, tr = cls r in
        match reference_equiv ~h_apply:h ~h_solve ~localized ~truncate p r with
        | None -> not (Vec.equal kp kr)
        | Some shift -> Vec.equal kp kr && tp - tr = shift
      in
      agrees (Solvers.temporal_point_class ~h ~localized) ~h_solve:h
        ~truncate:false
      && agrees
           (Solvers.spatial_point_class ~h ~localized)
           ~h_solve:(Selfreuse.spatial_matrix h) ~truncate:true)

let test_point_class_domain () =
  let h = Mat.identity 3 in
  Alcotest.check_raises "2-D localized space"
    (Invalid_argument "Solvers.point_class: localized space of dimension > 1")
    (fun () ->
      let (_ : Solvers.point_class) =
        Solvers.temporal_point_class ~h
          ~localized:(Subspace.span_dims ~dim:3 [ 1; 2 ])
      in
      ())

let suite =
  [ Alcotest.test_case "paper Figure 1 example" `Quick test_paper_example;
    Alcotest.test_case "kernel directions collapse" `Quick test_invariant_direction;
    Alcotest.test_case "suite: exact vs materialised" `Slow
      test_kernel_suite_exact_vs_materialized;
    Alcotest.test_case "suite: incremental vs exact" `Slow
      test_kernel_suite_incremental_vs_exact;
    Alcotest.test_case "RRS partition" `Quick test_rrs_partition;
    Alcotest.test_case "paper Figure 6 example" `Quick test_rrs_paper_figure6;
    Alcotest.test_case "register spans" `Quick test_register_table_spans;
    Gen.to_alcotest prop_streams_match_materialization;
    Gen.to_alcotest prop_summary_fn_matches_streams;
    Gen.to_alcotest prop_groups_match_materialization;
    Gen.to_alcotest prop_incremental_matches_exact;
    Gen.to_alcotest prop_incremental_rrs_matches_streams;
    Gen.to_alcotest prop_point_class_matches_solver;
    Alcotest.test_case "point class: 2-D localized space rejected" `Quick
      test_point_class_domain;
    Alcotest.test_case "summary query allocates only its result" `Quick
      test_summary_query_allocation ]
