(* QCheck generators shared by the property-based suites.

   The central generator produces random separable-SIV loop nests — the
   class the paper's algorithms target (Sec. 3.5) — with stencil offsets,
   reductions, invariant references and multiple statements, so the
   table-vs-materialisation equivalence properties explore well beyond
   the 19 hand-written kernels. *)

open Ujam_ir

let small_offset = QCheck2.Gen.oneofl [ -3; -2; -1; 0; 1; 2; 3 ]

let vec_gen ~dim ~lo ~hi =
  QCheck2.Gen.map
    (fun l -> Ujam_linalg.Vec.of_list l)
    (QCheck2.Gen.list_size (QCheck2.Gen.return dim) (QCheck2.Gen.int_range lo hi))

(* A separable-SIV reference over [depth] loops: an injective partial map
   from array dimensions to loop levels, each with a stencil offset;
   unmapped dimensions are constants. *)
let aref_gen ~depth ~base =
  let open QCheck2.Gen in
  let* rank = int_range 1 (min 3 (depth + 1)) in
  let* perm =
    (* random injective assignment of levels (or None) to dims *)
    let levels = List.init depth Fun.id in
    let* shuffled = shuffle_l levels in
    let padded = List.map (fun l -> Some l) shuffled @ [ None; None; None ] in
    return (Array.of_list padded)
  in
  let* subs =
    flatten_l
      (List.init rank (fun dim ->
           match perm.(dim) with
           | Some level ->
               let* off = small_offset in
               return (Affine.add_const (Affine.var ~depth level) off)
           | None ->
               let* c = int_range 0 3 in
               return (Affine.const ~depth c)))
  in
  return (Aref.make base subs)

(* Several references to the same array sharing one H matrix (a UGS), by
   re-deriving constants over a fixed shape. *)
let ugs_refs_gen ~depth ~base ~count =
  let open QCheck2.Gen in
  let* shape = aref_gen ~depth ~base in
  let h = Aref.h_matrix shape in
  let rank = Aref.rank shape in
  let* consts =
    list_size (return count)
      (list_size (return rank) (int_range (-3) 3))
  in
  return
    (List.map
       (fun cs ->
         Aref.make base
           (List.init rank (fun d ->
                Affine.make
                  ~coefs:(Array.init depth (fun k -> Ujam_linalg.Mat.get h d k))
                  ~const:(List.nth cs d))))
       consts)

let nest_gen ?(max_depth = 3) () =
  let open QCheck2.Gen in
  let* depth = int_range 2 max_depth in
  let loops =
    List.init depth (fun level ->
        Loop.make_const
          ~var:(String.make 1 "IJK".[level])
          ~level ~depth ~lo:1 ~hi:10 ())
  in
  let* n_stmts = int_range 1 3 in
  let* arrays = int_range 1 3 in
  let bases = List.init arrays (fun i -> String.make 1 "ABC".[i]) in
  let* groups =
    flatten_l
      (List.map
         (fun base ->
           let* count = int_range 1 4 in
           ugs_refs_gen ~depth ~base ~count)
         bases)
  in
  let refs = Array.of_list (List.concat groups) in
  let* body =
    flatten_l
      (List.init n_stmts (fun _ ->
           let* lhs_i = int_range 0 (Array.length refs - 1) in
           let* n_reads = int_range 1 3 in
           let* read_is =
             list_size (return n_reads) (int_range 0 (Array.length refs - 1))
           in
           let reads = List.map (fun i -> Expr.Read refs.(i)) read_is in
           let rhs =
             List.fold_left
               (fun acc r -> Expr.Bin (Expr.Add, acc, r))
               (List.hd reads) (List.tl reads)
           in
           return (Stmt.store refs.(lhs_i) rhs)))
  in
  return (Nest.make ~name:"qcheck" ~loops ~body)

let nest_print nest = Nest.to_string nest

(* A bounded unroll space for a nest: unroll one or two of the outer
   levels by up to 3. *)
let space_gen nest =
  let open QCheck2.Gen in
  let depth = Nest.depth nest in
  let* bounds =
    flatten_l
      (List.init depth (fun k ->
           if k = depth - 1 then return 0 else int_range 0 3))
  in
  return (Ujam_core.Unroll_space.make ~bounds:(Array.of_list bounds))

let nest_and_space_gen ?max_depth () =
  let open QCheck2.Gen in
  let* nest = nest_gen ?max_depth () in
  let* space = space_gen nest in
  return (nest, space)

let to_alcotest = QCheck_alcotest.to_alcotest

(* The engine's report for a nest the caller knows is in the supported
   class (every [nest_gen] nest and catalogue kernel is); a typed error
   fails the test with its message. *)
let analyze_ok ?bound ?max_loops ?model ~machine nest =
  match Ujam_engine.Engine.analyze ?bound ?max_loops ?model ~machine nest with
  | Ok r -> r
  | Error e -> failwith (Ujam_engine.Error.to_string e)

(* Unroll-and-jam a nest by the engine's chosen vector. *)
let transformed nest (r : Ujam_engine.Engine.nest_report) =
  Transform.apply_exn (Transform.Unroll r.Ujam_engine.Engine.u) nest
