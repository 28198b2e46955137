(* The transformation algebra: structural correctness of skew/retime,
   the composition laws of Transform sequences, normal-form properties,
   and the gated pipeline (Passes) on kernels and random nests. *)

open Ujam_ir
open Ujam_linalg
open Ujam_depend
open Ujam_analysis

(* ---- helpers ---------------------------------------------------------- *)

(* The multiset of (array, kind, element) accesses performed by a full
   execution — the ground truth a pure iteration-space relabelling like
   skewing must preserve exactly. *)
let accesses nest =
  let out = ref [] in
  Nest.iter_index_vectors nest (fun iv ->
      List.iter
        (fun ((r : Aref.t), kind) ->
          let cell =
            ( Aref.base r,
              kind = `Write,
              Array.to_list (Array.map (fun s -> Affine.eval s iv) r.Aref.subs) )
          in
          out := cell :: !out)
        (Nest.refs nest));
  List.sort compare !out

let no_errors what = function
  | [] -> ()
  | ds ->
      Alcotest.failf "%s: unexpected diagnostics:@ %s" what
        (String.concat "; "
           (List.map (fun d -> d.Diagnostic.message) ds))

(* A(I,J) = A(I-1,J+1) * S — the canonical anti-diagonal recurrence:
   distance (1,-1) caps unrolling of the outer loop at 0 copies until a
   factor-1 skew turns the distance into (1,0). *)
let antidiag ?(n = 8) () =
  let depth = 2 in
  let loops =
    [ Loop.make_const ~var:"I" ~level:0 ~depth ~lo:1 ~hi:n ();
      Loop.make_const ~var:"J" ~level:1 ~depth ~lo:1 ~hi:n () ]
  in
  let v k = Affine.var ~depth k in
  let lhs = Aref.make "A" [ v 0; v 1 ] in
  let read =
    Aref.make "A" [ Affine.add_const (v 0) (-1); Affine.add_const (v 1) 1 ]
  in
  Nest.make ~name:"antidiag" ~loops
    ~body:[ Stmt.store lhs (Expr.Bin (Expr.Mul, Expr.Read read, Expr.Scalar "S")) ]

(* S0: A(I,J) = B(I-1,J+1); S1: B(I,J) = C(I,J) — a cross-statement
   (1,-1) flow edge that retiming statement 0 by (0,1) straightens. *)
let cross_pair ?(n = 8) () =
  let depth = 2 in
  let loops =
    [ Loop.make_const ~var:"I" ~level:0 ~depth ~lo:1 ~hi:n ();
      Loop.make_const ~var:"J" ~level:1 ~depth ~lo:1 ~hi:n () ]
  in
  let v k = Affine.var ~depth k in
  let a = Aref.make "A" [ v 0; v 1 ] in
  let b_read =
    Aref.make "B" [ Affine.add_const (v 0) (-1); Affine.add_const (v 1) 1 ]
  in
  let b_write = Aref.make "B" [ v 0; v 1 ] in
  let c = Aref.make "C" [ v 0; v 1 ] in
  Nest.make ~name:"crosspair" ~loops
    ~body:
      [ Stmt.store a (Expr.Read b_read); Stmt.store b_write (Expr.Read c) ]

let caps nest = Safety.max_safe_unroll (Graph.build ~include_input:false nest)

(* ---- skew ------------------------------------------------------------- *)

let test_skew_inverse () =
  let s = [| [| 1; 0; 0 |]; [| 2; 1; 0 |]; [| -1; 2; 1 |] |] in
  let inv = Skew.inverse s in
  let prod = Array.init 3 (fun i ->
      Array.init 3 (fun j ->
          let acc = ref 0 in
          for k = 0 to 2 do acc := !acc + (s.(i).(k) * inv.(k).(j)) done;
          !acc))
  in
  Alcotest.(check bool) "S * S^-1 = I" true
    (prod = [| [| 1; 0; 0 |]; [| 0; 1; 0 |]; [| 0; 0; 1 |] |])

let test_skew_relabels () =
  let nest = antidiag () in
  let s = Skew.elementary ~depth:2 ~target:1 ~source:0 ~factor:1 in
  let skewed = Skew.apply nest s in
  Alcotest.(check bool) "same access multiset" true
    (accesses nest = accesses skewed);
  Alcotest.(check bool) "stays in the supported class" true
    (Result.is_ok (Supported.check skewed));
  no_errors "Verify.skew" (Verify.skew ~original:nest ~s skewed)

let test_skew_lifts_cap () =
  let nest = antidiag () in
  Alcotest.(check int) "outer cap before skew" 0 (caps nest).(0);
  let s = Skew.elementary ~depth:2 ~target:1 ~source:0 ~factor:1 in
  let skewed = Skew.apply nest s in
  Alcotest.(check bool) "outer cap lifted by skew" true
    ((caps skewed).(0) > 0)

let test_skew_verify_catches () =
  let nest = antidiag () in
  let s = Skew.elementary ~depth:2 ~target:1 ~source:0 ~factor:1 in
  let skewed = Skew.apply nest s in
  (* Claiming a different skew must fail the post-condition. *)
  let s2 = Skew.elementary ~depth:2 ~target:1 ~source:0 ~factor:2 in
  match Verify.skew ~original:nest ~s:s2 skewed with
  | [] -> Alcotest.fail "wrong skew matrix accepted"
  | d :: _ -> Alcotest.(check string) "rule" "UJ023" d.Diagnostic.rule

(* ---- retime ----------------------------------------------------------- *)

let test_retime_straightens () =
  let nest = cross_pair () in
  Alcotest.(check int) "outer cap before retime" 0 (caps nest).(0);
  let shifts = [| [| 0; 1 |]; [| 0; 0 |] |] in
  let retimed = Retime.apply nest shifts in
  no_errors "Verify.retime" (Verify.retime ~original:nest ~shifts retimed);
  Alcotest.(check bool) "outer cap lifted by retime" true
    ((caps retimed).(0) > 0);
  (* The gate agrees the shifts are legal... *)
  let graph = Graph.build ~include_input:false nest in
  (match Passes.legality ~graph (Transform.Retime shifts) with
  | Ok _ -> ()
  | Error why -> Alcotest.failf "legal retime rejected: %s" why);
  (* ...and rejects shifts that push the leading component negative. *)
  let bad = [| [| 0; 0 |]; [| 2; 0 |] |] in
  match Passes.legality ~graph (Transform.Retime bad) with
  | Ok why -> Alcotest.failf "illegal retime accepted: %s" why
  | Error _ -> ()

let test_retime_verify_catches () =
  let nest = cross_pair () in
  let shifts = [| [| 0; 1 |]; [| 0; 0 |] |] in
  let retimed = Retime.apply nest shifts in
  let wrong = [| [| 0; 2 |]; [| 0; 0 |] |] in
  match Verify.retime ~original:nest ~shifts:wrong retimed with
  | [] -> Alcotest.fail "wrong shifts accepted"
  | d :: _ -> Alcotest.(check string) "rule" "UJ024" d.Diagnostic.rule

(* ---- the algebra ------------------------------------------------------ *)

let transform_gen ~depth =
  let open QCheck2.Gen in
  let unroll =
    let* amounts =
      flatten_l
        (List.init depth (fun k ->
             if k = depth - 1 then return 0 else int_range 0 2))
    in
    return (Transform.Unroll (Vec.of_list amounts))
  in
  let interchange =
    let* perm = shuffle_a (Array.init depth Fun.id) in
    return (Transform.Interchange perm)
  in
  let skew =
    if depth < 2 then unroll
    else
      let* target = int_range 1 (depth - 1) in
      let* source = int_range 0 (target - 1) in
      let* factor = int_range 0 2 in
      return (Transform.Skew (Skew.elementary ~depth ~target ~source ~factor))
  in
  oneof [ unroll; interchange; skew ]

let seq_gen =
  let open QCheck2.Gen in
  let* nest = Gen.nest_gen () in
  let depth = Nest.depth nest in
  let* steps = list_size (int_range 0 3) (transform_gen ~depth) in
  return (nest, steps)

let seq_print (nest, steps) =
  Printf.sprintf "%s\nseq: %s" (Nest.to_string nest)
    (String.concat "; " (List.map Transform.to_string steps))

let prop_apply_seq_is_composition =
  QCheck2.Test.make ~name:"apply_seq [a;..] == fold apply" ~count:300
    ~print:seq_print seq_gen (fun (nest, steps) ->
      let via_seq = Transform.apply_seq steps nest in
      let via_fold =
        List.fold_left
          (fun acc t -> Result.bind acc (fun n ->
               Result.map_error (fun r -> (0, t, r)) (Transform.apply t n)))
          (Ok nest) steps
      in
      match (via_seq, via_fold) with
      | Ok a, Ok b -> a = b
      | Error _, Error _ -> true
      | _ -> false)

(* Fusing adjacent unrolls reorders the jammed copies (combined offsets
   enumerate in one lexicographic pass), so normalization preserves the
   nest up to statement order in the body — headers exactly. *)
let canon nest =
  (Nest.name nest, Nest.loops nest, List.sort compare (Nest.body nest))

let prop_normalize_preserves =
  QCheck2.Test.make ~name:"normalize preserves apply_seq" ~count:300
    ~print:seq_print seq_gen (fun (nest, steps) ->
      match Transform.apply_seq steps nest with
      | Error _ -> QCheck2.assume_fail ()
      | Ok direct -> (
          match Transform.apply_seq (Transform.normalize steps) nest with
          | Error _ -> false
          | Ok normed -> canon direct = canon normed))

let prop_normalize_idempotent =
  QCheck2.Test.make ~name:"normalize idempotent" ~count:500 ~print:seq_print
    seq_gen (fun (_, steps) ->
      let once = Transform.normalize steps in
      List.equal Transform.equal once (Transform.normalize once))

let test_fusion_laws () =
  let u = Vec.of_list [ 1; 0 ] and v = Vec.of_list [ 3; 0 ] in
  (match Transform.fuse (Transform.Unroll u) (Transform.Unroll v) with
  | Some (Transform.Unroll w) ->
      Alcotest.(check bool) "unroll fusion (u+1)(v+1)-1" true
        (Vec.equal w (Vec.of_list [ 7; 0 ]))
  | _ -> Alcotest.fail "unroll pair must fuse");
  (match
     Transform.fuse
       (Transform.Interchange [| 1; 0; 2 |])
       (Transform.Interchange [| 2; 1; 0 |])
   with
  | Some (Transform.Interchange p) ->
      Alcotest.(check bool) "interchange composition" true (p = [| 2; 0; 1 |])
  | _ -> Alcotest.fail "interchange pair must fuse");
  Alcotest.(check bool) "mixed pair does not fuse" true
    (Transform.fuse (Transform.Unroll u) (Transform.Interchange [| 0; 1 |])
    = None);
  Alcotest.(check bool) "identity elimination" true
    (Transform.normalize
       [ Transform.Unroll (Vec.zero 2); Transform.Interchange [| 0; 1 |] ]
    = [])

(* ---- the gated pipeline ----------------------------------------------- *)

let test_passes_gates_unsafe_unroll () =
  let nest = antidiag () in
  let u = Vec.of_list [ 1; 0 ] in
  (match Passes.apply_seq nest [ Transform.Unroll u ] with
  | Ok _ -> Alcotest.fail "unsafe unroll passed the gate"
  | Error (d :: _) -> Alcotest.(check string) "rule" "UJ025" d.Diagnostic.rule
  | Error [] -> Alcotest.fail "empty rejection");
  (* The same unroll is accepted after the legalizing skew prefix. *)
  let s = Skew.elementary ~depth:2 ~target:1 ~source:0 ~factor:1 in
  match Passes.apply_seq nest [ Transform.Skew s; Transform.Unroll u ] with
  | Error ds -> no_errors "skew-then-unroll" ds
  | Ok (_, trace) ->
      Alcotest.(check int) "two gated steps" 2 (List.length trace);
      List.iter
        (fun (st : Passes.step) ->
          Alcotest.(check bool) "step has a why-legal note" true
            (String.length st.Passes.note > 0))
        trace

let test_passes_located_rejection () =
  let nest = antidiag () in
  match Passes.apply_seq nest [ Transform.Unroll (Vec.of_list [ 1; 0 ]) ] with
  | Ok _ -> Alcotest.fail "unsafe unroll passed the gate"
  | Error (d :: _) ->
      Alcotest.(check bool) "diagnostic carries the nest location" true
        (d.Diagnostic.loc.Loc.nest = Some "antidiag")
  | Error [] -> Alcotest.fail "empty rejection"

(* Every kernel x machine: the engine's chosen unroll vector flows
   through the gated pipeline — legality, structure and Verify all
   agree with the one-shot path. *)
let test_kernels_through_gates () =
  List.iter
    (fun machine ->
      List.iter
        (fun (e : Ujam_kernels.Catalogue.entry) ->
          let nest = e.Ujam_kernels.Catalogue.build ~n:12 () in
          let u = (Gen.analyze_ok ~bound:4 ~machine nest).Ujam_engine.Engine.u in
          match Passes.apply_seq nest [ Transform.Unroll u ] with
          | Ok (transformed, _) ->
              Alcotest.(check bool)
                (e.Ujam_kernels.Catalogue.name ^ ": gated == one-shot")
                true
                (transformed = Unroll.unroll_and_jam nest u)
          | Error ds ->
              Alcotest.failf "%s: engine choice rejected: %s"
                e.Ujam_kernels.Catalogue.name
                (String.concat "; "
                   (List.map (fun d -> d.Diagnostic.message) ds)))
        Ujam_kernels.Catalogue.all)
    [ Ujam_machine.Presets.alpha; Ujam_machine.Presets.hppa ]

(* ---- the sequence search ---------------------------------------------- *)

let test_seqsearch_legalizes_antidiag () =
  let nest = antidiag ~n:16 () in
  let machine = Ujam_machine.Presets.alpha in
  let out = Seqsearch.search ~bound:4 ~machine nest in
  Alcotest.(check bool) "baseline is fenced to the zero vector" true
    (Vec.is_zero out.Seqsearch.baseline.Ujam_core.Search.u);
  Alcotest.(check bool) "a legalizing prefix was found" true
    (out.Seqsearch.sequence <> []);
  Alcotest.(check bool) "certified unroll vector is non-zero" true
    (not (Vec.is_zero out.Seqsearch.choice.Ujam_core.Search.u));
  Alcotest.(check bool) "objective strictly improves" true
    (out.Seqsearch.choice.Ujam_core.Search.objective
    < out.Seqsearch.baseline.Ujam_core.Search.objective);
  match out.Seqsearch.diagnostics with
  | [ d ] ->
      Alcotest.(check string) "UJ026 info" "UJ026" d.Diagnostic.rule;
      Alcotest.(check bool) "info severity" true
        (d.Diagnostic.severity = Diagnostic.Info);
      Alcotest.(check bool) "carries why-legal notes" true
        (d.Diagnostic.notes <> [])
  | ds -> Alcotest.failf "expected one UJ026, got %d diagnostics" (List.length ds)

let test_seqsearch_quiet_on_kernels () =
  (* Kernels whose fence does not bind must come back untouched. *)
  let machine = Ujam_machine.Presets.alpha in
  List.iter
    (fun (e : Ujam_kernels.Catalogue.entry) ->
      let nest = e.Ujam_kernels.Catalogue.build ~n:12 () in
      let out = Seqsearch.search ~bound:4 ~machine nest in
      if out.Seqsearch.sequence = [] then begin
        Alcotest.(check bool)
          (e.Ujam_kernels.Catalogue.name ^ ": nest untouched")
          true
          (out.Seqsearch.nest == nest);
        Alcotest.(check bool)
          (e.Ujam_kernels.Catalogue.name ^ ": choice is the baseline")
          true
          (out.Seqsearch.choice = out.Seqsearch.baseline)
      end
      else
        (* A kernel may genuinely be legalizable; then the sequence must
           be Verify-certified and strictly better. *)
        Alcotest.(check bool)
          (e.Ujam_kernels.Catalogue.name ^ ": improvement is strict")
          true
          (out.Seqsearch.choice.Ujam_core.Search.objective
          < out.Seqsearch.baseline.Ujam_core.Search.objective))
    Ujam_kernels.Catalogue.all

(* ISSUE 6 acceptance: fuzz-generated recurrent nests the plain engine
   degrades to the zero vector are legalized by a skew or retime prefix
   and receive a Verify-certified unroll vector with a strictly better
   objective.  Pure-skew prefixes must also preserve the per-array
   access multiset (they are iteration-space relabellings). *)
let test_recurrent_generator_legalized () =
  let machine = Ujam_machine.Presets.alpha in
  let stats = Ujam_workload.Generator.stats () in
  let st = Random.State.make [| 42 |] in
  let found = ref 0 in
  for idx = 0 to 39 do
    let r = Ujam_workload.Generator.routine ~recurrent:true ~stats st idx in
    List.iter
      (fun nest ->
        if !found < 3 then begin
          let out = Seqsearch.search ~bound:4 ~machine nest in
          if
            Vec.is_zero out.Seqsearch.baseline.Ujam_core.Search.u
            && out.Seqsearch.sequence <> []
          then begin
            incr found;
            Alcotest.(check bool) "non-zero certified vector" true
              (not (Vec.is_zero out.Seqsearch.choice.Ujam_core.Search.u));
            Alcotest.(check bool) "objective strictly better" true
              (out.Seqsearch.choice.Ujam_core.Search.objective
              < out.Seqsearch.baseline.Ujam_core.Search.objective);
            if
              List.for_all
                (fun (s : Passes.step) ->
                  match s.Passes.transform with
                  | Transform.Skew _ -> true
                  | _ -> false)
                out.Seqsearch.sequence
            then
              Alcotest.(check bool) "skew prefix preserves accesses" true
                (accesses nest = accesses out.Seqsearch.nest)
          end
        end)
      r.Ujam_workload.Generator.nests
  done;
  Alcotest.(check bool) "generator produced fence-binding nests" true
    (stats.Ujam_workload.Generator.fenced > 0);
  Alcotest.(check bool) "at least one recurrent nest was legalized" true
    (!found >= 1)

(* The engine layer: ~seq:true reopens skewrec's fenced space and the
   report carries the sequence plus its UJ026 certificate; without it
   the plain pipeline still degrades to the zero vector. *)
let test_engine_seq_report () =
  let machine = Ujam_machine.Presets.alpha in
  let nest = Ujam_kernels.Extras.skewrec ~n:16 () in
  (match Ujam_engine.Engine.analyze ~bound:8 ~machine nest with
  | Ok r ->
      Alcotest.(check bool) "plain engine degrades to zero" true
        (Vec.is_zero r.Ujam_engine.Engine.u);
      Alcotest.(check bool) "no sequence without seq mode" true
        (r.Ujam_engine.Engine.sequence = [])
  | Error _ -> Alcotest.fail "plain analyze failed");
  match Ujam_engine.Engine.analyze ~bound:8 ~seq:true ~machine nest with
  | Ok r ->
      Alcotest.(check bool) "seq engine finds a non-zero vector" true
        (not (Vec.is_zero r.Ujam_engine.Engine.u));
      Alcotest.(check bool) "report carries the sequence" true
        (r.Ujam_engine.Engine.sequence <> []);
      Alcotest.(check bool) "UJ026 certificate attached" true
        (List.exists
           (fun (d : Diagnostic.t) -> d.Diagnostic.rule = "UJ026")
           r.Ujam_engine.Engine.diagnostics)
  | Error _ -> Alcotest.fail "seq analyze failed"

let suite =
  [ Alcotest.test_case "skew inverse" `Quick test_skew_inverse;
    Alcotest.test_case "skew is a pure relabelling" `Quick test_skew_relabels;
    Alcotest.test_case "skew lifts the safety cap" `Quick test_skew_lifts_cap;
    Alcotest.test_case "skew post-condition catches wrong matrix" `Quick
      test_skew_verify_catches;
    Alcotest.test_case "retime straightens a cross-statement edge" `Quick
      test_retime_straightens;
    Alcotest.test_case "retime post-condition catches wrong shifts" `Quick
      test_retime_verify_catches;
    Alcotest.test_case "fusion laws and identity elimination" `Quick
      test_fusion_laws;
    Alcotest.test_case "gate rejects unsafe unroll, accepts after skew" `Quick
      test_passes_gates_unsafe_unroll;
    Alcotest.test_case "rejections carry locations" `Quick
      test_passes_located_rejection;
    Alcotest.test_case "19 kernels x 2 machines through the gates" `Quick
      test_kernels_through_gates;
    Alcotest.test_case "seq search legalizes the anti-diagonal recurrence"
      `Quick test_seqsearch_legalizes_antidiag;
    Alcotest.test_case "seq search leaves unfenced kernels alone" `Quick
      test_seqsearch_quiet_on_kernels;
    Alcotest.test_case "recurrent generator nests get legalized" `Quick
      test_recurrent_generator_legalized;
    Alcotest.test_case "engine seq report on skewrec" `Quick
      test_engine_seq_report;
    Gen.to_alcotest prop_apply_seq_is_composition;
    Gen.to_alcotest prop_normalize_preserves;
    Gen.to_alcotest prop_normalize_idempotent ]
