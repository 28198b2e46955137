(* Properties of Ir.Hashcons over generated nests: consing changes
   neither structure nor canonical digest, physical equality of consed
   representatives coincides with structural equality, consing is
   idempotent, float constants merge by bit pattern only, and the
   engine work queue built on the work-stealing Par renders
   byte-identically at every domain count.  (The serve daemon's
   1-vs-N-domain byte identity lives in Test_serve.) *)

open Ujam_ir

(* Structural equality including names and labels — exactly the
   equivalence the hashcons tables intern by.  The component [equal]s
   raise on mismatched array lengths (depth or subscript count), which
   here just means "different structure". *)
let nest_equal (a : Nest.t) (b : Nest.t) =
  try
    String.equal (Nest.name a) (Nest.name b)
    && Array.length (Nest.loops a) = Array.length (Nest.loops b)
    && Array.for_all2
         (fun (la : Loop.t) (lb : Loop.t) ->
           String.equal la.Loop.var lb.Loop.var
           && la.Loop.level = lb.Loop.level
           && la.Loop.step = lb.Loop.step
           && Affine.equal la.Loop.lo lb.Loop.lo
           && Affine.equal la.Loop.hi lb.Loop.hi)
         (Nest.loops a) (Nest.loops b)
    && List.equal Stmt.equal (Nest.body a) (Nest.body b)
  with Invalid_argument _ -> false

let structure_preserved =
  QCheck2.Test.make ~name:"consed nest structurally equals the plain nest"
    ~count:200 ~print:Gen.nest_print (Gen.nest_gen ())
    (fun nest -> nest_equal nest (Hashcons.nest nest))

let digest_preserved =
  QCheck2.Test.make ~name:"consing never moves the canonical digest"
    ~count:200 ~print:Gen.nest_print (Gen.nest_gen ())
    (fun nest ->
      let consed = Hashcons.nest nest in
      String.equal (Canon.digest nest) (Canon.digest consed)
      && String.equal (Canon.digest consed) (Canon.digest_uncached consed))

let phys_iff_structural =
  QCheck2.Test.make
    ~name:"consed reps physically equal iff structurally equal" ~count:200
    ~print:(fun (a, b) -> Gen.nest_print a ^ "\n--- vs ---\n" ^ Gen.nest_print b)
    (QCheck2.Gen.pair (Gen.nest_gen ()) (Gen.nest_gen ()))
    (fun (a, b) ->
      Bool.equal (Hashcons.nest a == Hashcons.nest b) (nest_equal a b))

let idempotent =
  QCheck2.Test.make ~name:"consing is idempotent" ~count:200
    ~print:Gen.nest_print (Gen.nest_gen ())
    (fun nest ->
      let c = Hashcons.nest nest in
      Hashcons.nest c == c
      && Hashcons.is_consed_nest c
      && Hashcons.id_nest c <> None)

(* A structurally identical rebuild — fresh objects throughout — must
   intern to the same representative under the same id. *)
let test_fresh_copy_merges () =
  let parse src =
    match Parse.nest src with
    | Ok n -> n
    | Error e -> Alcotest.failf "parse: %a" Parse.pp_error e
  in
  let src = "DO I = 1, 10\nDO J = 1, 8\n A(I,J) = A(I,J-1) + 1.0\nENDDO\nENDDO" in
  let a = Hashcons.nest (parse src) in
  let b = Hashcons.nest (parse src) in
  Alcotest.(check bool) "same representative" true (a == b);
  Alcotest.(check (option int)) "same id" (Hashcons.id_nest a)
    (Hashcons.id_nest b)

(* Float constants merge by IEEE bit pattern, never by [=]: -0.0 and
   0.0 print differently, so conflating them would corrupt rendered
   output; two NaNs with the same payload are the same constant. *)
let test_float_bits () =
  let pos = Hashcons.expr (Expr.Const 0.0) in
  let neg = Hashcons.expr (Expr.Const (-0.0)) in
  Alcotest.(check bool) "-0.0 kept apart from 0.0" false (pos == neg);
  let n1 = Hashcons.expr (Expr.Const Float.nan) in
  let n2 = Hashcons.expr (Expr.Const Float.nan) in
  Alcotest.(check bool) "identical NaNs merge" true (n1 == n2)

(* The corpus runner on the work-stealing queue: every domain count
   must render the identical report.  The process-wide outcome memo is
   cleared between runs so each one does its own full work. *)
let test_corpus_domain_identity () =
  let machine = Ujam_machine.Presets.alpha in
  let routines = Ujam_workload.Generator.corpus ~seed:42 ~count:30 () in
  let render domains =
    Ujam_engine.Engine.memo_clear ();
    Ujam_engine.Engine.to_string
      (Ujam_engine.Engine.run_corpus ~domains ~bound:3 ~machine routines)
  in
  let one = render 1 in
  Alcotest.(check string) "1 = 2 domains" one (render 2);
  Alcotest.(check string) "1 = 4 domains" one (render 4)

(* Deterministic sharing and digest-memo gate over the 19 catalogue
   kernels (n = 12) plus the pinned 200-routine corpus (generator seed
   1997), consed into emptied tables.  At least [sharing_floor] of all
   intern operations must find an existing representative: the run
   measures 0.7121, and the floor is that rounded down.  Consing
   precomputes every digest, so re-digesting the consed nests must be
   answered by the identity memo alone: one hit per nest and no miss,
   that is, no re-encode.  A hit measures 4 minor words, and
   [memo_hit_words] pins that. *)
let sharing_floor = 0.71
let memo_hit_words = 4.0

let test_sharing_and_digest_memo () =
  Hashcons.clear ();
  Canon.memo_clear ();
  let kernels =
    List.map
      (fun (e : Ujam_kernels.Catalogue.entry) ->
        e.Ujam_kernels.Catalogue.build ~n:12 ())
      Ujam_kernels.Catalogue.all
  in
  let corpus =
    Ujam_workload.Generator.corpus ~seed:1997 ~count:200 ()
    |> List.concat_map (fun (r : Ujam_workload.Generator.routine) ->
           r.Ujam_workload.Generator.nests)
  in
  let consed = List.map Hashcons.nest (kernels @ corpus) in
  let ratio = Hashcons.sharing_ratio () in
  let hits0, misses0 = Canon.memo_stats () in
  let w0 = Gc.minor_words () in
  List.iter (fun n -> ignore (Canon.digest n : string)) consed;
  let words = Gc.minor_words () -. w0 in
  let hits1, misses1 = Canon.memo_stats () in
  let n = List.length consed in
  if ratio < sharing_floor then
    Alcotest.failf "sharing ratio %.4f below the floor %.2f" ratio
      sharing_floor;
  Alcotest.(check int) "memo hits" n (hits1 - hits0);
  Alcotest.(check int) "memo misses" 0 (misses1 - misses0);
  let per_hit = words /. float_of_int n in
  if per_hit > memo_hit_words then
    Alcotest.failf "digest memo hit: %.1f minor words, ceiling %.0f" per_hit
      memo_hit_words

let suite =
  [ Gen.to_alcotest structure_preserved;
    Gen.to_alcotest digest_preserved;
    Gen.to_alcotest phys_iff_structural;
    Gen.to_alcotest idempotent;
    Alcotest.test_case "fresh structural copy merges" `Quick
      test_fresh_copy_merges;
    Alcotest.test_case "float constants merge by bits" `Quick test_float_bits;
    Alcotest.test_case "corpus 1 vs N domains" `Quick
      test_corpus_domain_identity;
    Alcotest.test_case "sharing and digest memo gate" `Quick
      test_sharing_and_digest_memo ]
