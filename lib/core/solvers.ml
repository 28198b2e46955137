open Ujam_linalg
open Ujam_reuse

type key = { m : Vec.t; delta : int }

type t = c_from:Vec.t -> c_to:Vec.t -> key option

let solver ~h ~localized ~unroll_levels ~truncate =
  let depth = Mat.cols h in
  let joined = Subspace.join localized (Subspace.span_dims ~dim:depth unroll_levels) in
  let innermost = depth - 1 in
  fun ~c_from ~c_to ->
    let diff = Vec.sub c_to c_from in
    let diff = if truncate && Vec.dim diff > 0 then Vec.set diff 0 0 else diff in
    match Subspace.solution_in h diff joined with
    | None -> None
    | Some x ->
        let m =
          Vec.init depth (fun k ->
              if List.mem k unroll_levels then Vec.get x k else 0)
        in
        Some { m; delta = Vec.get x innermost }

let temporal ~h ~localized ~unroll_levels =
  solver ~h ~localized ~unroll_levels ~truncate:false

let spatial ~h ~localized ~unroll_levels =
  solver ~h:(Selfreuse.spatial_matrix h) ~localized ~unroll_levels ~truncate:true

(* Merge components in discovery order: an item joins the first
   component whose root the solver connects it to (solvability
   differences add, so scanning roots is enough); keys are relative to
   that root, which carries the zero key. *)
let components ~dim ~solver c_of items =
  let comps = Queue.create () in
  List.iter
    (fun x ->
      let c = c_of x in
      let joined =
        Seq.find_map
          (fun (root, members) ->
            Option.map
              (fun k -> members := (x, k) :: !members)
              (solver ~c_from:root ~c_to:c))
          (Queue.to_seq comps)
      in
      if Option.is_none joined then
        Queue.add (c, ref [ (x, { m = Vec.zero dim; delta = 0 }) ]) comps)
    items;
  List.rev (Queue.fold (fun acc (_, members) -> List.rev !members :: acc) [] comps)

let kernel_moves ~h ~localized ~unroll_levels =
  let depth = Mat.cols h in
  let joined = Subspace.join localized (Subspace.span_dims ~dim:depth unroll_levels) in
  let kernel = Subspace.of_basis ~dim:depth (Mat.kernel h) in
  Subspace.basis (Subspace.intersect kernel joined)
  |> List.filter_map (fun v ->
         let projected =
           Vec.init depth (fun k ->
               if List.mem k unroll_levels then Vec.get v k else 0)
         in
         if Vec.is_zero projected then None else Some projected)

(* Floor division: the class index must be monotone across zero, which
   truncating [/] is not. *)
let floor_div a b =
  let q = a / b in
  if a mod b <> 0 && (a < 0) <> (b < 0) then q - 1 else q

type point_class = Vec.t -> Vec.t * int

(* With L = span{b}, p ~ r iff v(p) - v(r) = y·c for an integer y, where
   v = H·p and c = H·b (b primitive, so y·b is integral iff y is).  On
   the first non-zero row i of c, q(p) = floor(v_i / c_i) moves by
   exactly y, so v - q·c is constant on a class and t = q·b_{d-1} steps
   by the witness's innermost component. *)
let point_class ~h ~localized =
  let row_dot k p =
    let s = ref 0 in
    for j = 0 to Mat.cols h - 1 do
      s := !s + (Mat.get h k j * Vec.get p j)
    done;
    !s
  in
  match Subspace.basis localized with
  | [] -> fun p -> (Mat.apply h p, 0)
  | [ b ] -> (
      let c = Mat.apply h b in
      let rows = Vec.dim c in
      let innermost = Vec.get b (Vec.dim b - 1) in
      match List.find_opt (fun i -> Vec.get c i <> 0) (List.init rows Fun.id) with
      | None -> fun p -> (Mat.apply h p, 0)
      | Some i ->
          let ci = Vec.get c i in
          fun p ->
            let q = floor_div (row_dot i p) ci in
            ( Vec.init rows (fun k -> row_dot k p - (q * Vec.get c k)),
              q * innermost ))
  | _ -> invalid_arg "Solvers.point_class: localized space of dimension > 1"

let temporal_point_class ~h ~localized = point_class ~h ~localized

let spatial_point_class ~h ~localized =
  point_class ~h:(Selfreuse.spatial_matrix h) ~localized
