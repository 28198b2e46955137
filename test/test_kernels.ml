(* The Table 2 suite: catalogue shape and per-kernel structural facts. *)

open Ujam_ir
open Ujam_kernels

let test_catalogue () =
  Alcotest.(check int) "19 loops" 19 (List.length Catalogue.all);
  List.iteri
    (fun i (e : Catalogue.entry) ->
      Alcotest.(check int) "numbered in order" (i + 1) e.Catalogue.num)
    Catalogue.all;
  Alcotest.(check bool) "find" true (Option.is_some (Catalogue.find "mmjki"));
  Alcotest.(check bool) "find fails" true (Option.is_none (Catalogue.find "nope"));
  (* all names unique *)
  let names = List.map (fun (e : Catalogue.entry) -> e.Catalogue.name) Catalogue.all in
  Alcotest.(check int) "unique names" 19 (List.length (List.sort_uniq compare names))

let test_all_buildable_and_wellformed () =
  List.iter
    (fun (e : Catalogue.entry) ->
      let nest = e.Catalogue.build ~n:12 () in
      Alcotest.(check bool)
        (e.Catalogue.name ^ " has flops")
        true
        (Nest.flops_per_iteration nest > 0);
      Alcotest.(check bool)
        (e.Catalogue.name ^ " has refs")
        true
        (List.length (Nest.refs nest) > 0);
      (* every kernel iterates *)
      let count = ref 0 in
      Nest.iter_index_vectors nest (fun _ -> incr count);
      Alcotest.(check bool) (e.Catalogue.name ^ " iterates") true (!count > 0))
    Catalogue.all

let test_depths () =
  let depth name =
    Nest.depth ((Option.get (Catalogue.find name)).Catalogue.build ~n:8 ())
  in
  Alcotest.(check int) "jacobi 2-deep" 2 (depth "jacobi");
  Alcotest.(check int) "mm 3-deep" 3 (depth "mmjik");
  Alcotest.(check int) "btrix 3-deep" 3 (depth "btrix.1");
  Alcotest.(check int) "gmtry 3-deep" 3 (depth "gmtry.3")

let test_stride_one_innermost () =
  (* Fortran discipline: where a kernel has a contiguous-dimension walk,
     the innermost loop performs it.  Check a representative set. *)
  List.iter
    (fun name ->
      let nest = (Option.get (Catalogue.find name)).Catalogue.build ~n:8 () in
      let d = Nest.depth nest in
      let walks_contiguous =
        List.exists
          (fun (r, _) ->
            Aref.rank r >= 1 && Affine.uses_level r.Aref.subs.(0) (d - 1))
          (Nest.refs nest)
      in
      Alcotest.(check bool) (name ^ " walks contiguously") true walks_contiguous)
    [ "jacobi"; "mmjik"; "mmjki"; "dmxpy0"; "vpenta.7"; "sor"; "shal"; "btrix.1" ]

let test_separable_suite () =
  (* all kernels except afold (coupled C(I+J-1)) are separable SIV *)
  List.iter
    (fun (e : Catalogue.entry) ->
      let nest = e.Catalogue.build ~n:8 () in
      let separable =
        List.for_all (fun (r, _) -> Aref.is_separable_siv r) (Nest.refs nest)
      in
      Alcotest.(check bool)
        (e.Catalogue.name ^ " separability")
        (not (String.equal e.Catalogue.name "afold"))
        separable)
    Catalogue.all

let test_collc_strides () =
  (* collc.2 carries coefficient-2 subscripts (coarse-grid transfer) *)
  let nest = Kernels.collc2 ~n:8 () in
  let has_coef2 =
    List.exists
      (fun (r, _) ->
        Array.exists (fun (s : Affine.t) -> Array.exists (fun c -> c = 2) s.Affine.coefs) r.Aref.subs)
      (Nest.refs nest)
  in
  Alcotest.(check bool) "stride-2 subscripts" true has_coef2

let test_reductions_are_reductions () =
  (* dmxpy and afold write a 1-D target under a 2-deep nest *)
  List.iter
    (fun name ->
      let nest = (Option.get (Catalogue.find name)).Catalogue.build ~n:8 () in
      let w = List.filter_map (fun (r, k) -> if k = `Write then Some r else None) (Nest.refs nest) in
      Alcotest.(check int) (name ^ " writes one vector") 1 (List.length w);
      Alcotest.(check int) (name ^ " rank 1 target") 1 (Aref.rank (List.hd w)))
    [ "dmxpy0"; "dmxpy1"; "afold" ]

let test_table2_rendering () =
  let out = Format.asprintf "%a" Catalogue.pp_table () in
  List.iter
    (fun (e : Catalogue.entry) ->
      let contains =
        let n = String.length e.Catalogue.name in
        let rec go i =
          if i + n > String.length out then false
          else if String.sub out i n = e.Catalogue.name then true
          else go (i + 1)
        in
        go 0
      in
      Alcotest.(check bool) (e.Catalogue.name ^ " listed") true contains)
    Catalogue.all

let test_extras () =
  Alcotest.(check int) "nine extra kernels" 9 (List.length Extras.all);
  List.iter
    (fun (name, build) ->
      let nest = build ?n:(Some 8) () in
      Alcotest.(check bool) (name ^ " has refs") true
        (List.length (Nest.refs nest) > 0);
      let count = ref 0 in
      Nest.iter_index_vectors nest (fun _ -> incr count);
      Alcotest.(check bool) (name ^ " iterates") true (!count > 0))
    Extras.all;
  Alcotest.(check int) "conv2d is 4-deep" 4 (Nest.depth (Extras.conv2d ~n:6 ()));
  (* the two matmul orders are interchange images of each other *)
  Alcotest.(check bool) "mmijk permutes to mmikj" true
    (String.equal
       (Nest.to_string (Extras.mmikj ~n:8 ()))
       (Nest.to_string (Interchange.apply (Extras.mmijk ~n:8 ()) [| 0; 2; 1 |])))

let test_extras_optimizable () =
  let machine = Ujam_machine.Presets.alpha in
  List.iter
    (fun (name, build) ->
      let nest = build ?n:(Some 8) () in
      let r = Gen.analyze_ok ~bound:2 ~machine nest in
      Alcotest.(check bool) (name ^ " optimizes") true
        (r.Ujam_engine.Engine.registers <= 32))
    Extras.all

let suite =
  [ Alcotest.test_case "catalogue" `Quick test_catalogue;
    Alcotest.test_case "buildable and well-formed" `Quick test_all_buildable_and_wellformed;
    Alcotest.test_case "depths" `Quick test_depths;
    Alcotest.test_case "stride-1 innermost" `Quick test_stride_one_innermost;
    Alcotest.test_case "separable SIV suite" `Quick test_separable_suite;
    Alcotest.test_case "collc strides" `Quick test_collc_strides;
    Alcotest.test_case "reductions" `Quick test_reductions_are_reductions;
    Alcotest.test_case "table 2 rendering" `Quick test_table2_rendering;
    Alcotest.test_case "extra kernels" `Quick test_extras;
    Alcotest.test_case "extras optimizable" `Quick test_extras_optimizable ]
