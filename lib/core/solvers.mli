(** Merge-key solvers.

    The table computations all reduce to one question: given two
    references of a UGS with constants [c_from] and [c_to], at which
    unroll offset does a copy of one coincide (temporally or spatially,
    within the localized space) with a copy of the other?  The answer is
    the *merge key*: the unroll-dimension component [m] of an integral
    solution of [H (m + x) = c_to - c_from] with [x] in the localized
    space, together with the innermost component [delta] that positions
    the two value streams relative to each other in time.  Merge keys
    group references into {!components}; within a component, copies of
    references are grouped by the integer {!point_class} key. *)

open Ujam_linalg

type key = {
  m : Vec.t;    (** support on the unroll levels; may be negative *)
  delta : int;  (** innermost-loop offset of the solution *)
}

type t = c_from:Vec.t -> c_to:Vec.t -> key option

val temporal :
  h:Mat.t -> localized:Subspace.t -> unroll_levels:int list -> t
(** Solver for group-temporal coincidence ([H] as is). *)

val spatial :
  h:Mat.t -> localized:Subspace.t -> unroll_levels:int list -> t
(** Solver for group-spatial coincidence: [H] with the contiguous row
    zeroed and the difference's contiguous component dropped. *)

val components :
  dim:int -> solver:t -> ('a -> Vec.t) -> 'a list -> ('a * key) list list
(** [components ~dim ~solver c_of items] partitions [items] (with
    constant vectors [c_of x]) into merge components, in discovery
    order: each item joins the first component whose root the solver
    connects it to, keyed relative to that root; a root carries the zero
    key ([dim] components).  Members keep their input order. *)

type point_class = Vec.t -> Vec.t * int
(** Canonical class of an unroll-offset point.  Copies of one reference
    at offsets [p] and [r] denote the same group whenever some [x] in
    the localized space [L] satisfies [H x = H (p - r)]; the witness's
    innermost component is the time shift between the two copies' value
    streams.  [point_class p] is [(key, t)] with [key p = key r] exactly
    when [p] and [r] are equivalent, and then [t p - t r] is that
    shift, so a partition is one hash lookup per point.

    With [L = span{b}] ([b] primitive), [v = H p] and [c = H b]: for the
    first non-zero row [i] of [c], [q = floor (v_i / c_i)],
    [key = v - q c] and [t = q b_{d-1}].  When [c = 0] or [L] is trivial,
    [key = v] and [t = 0].  Pure integer arithmetic, no memo.
    @raise Invalid_argument when [L] has dimension > 1 (every table
    caller localizes the innermost loop alone). *)

val temporal_point_class : h:Mat.t -> localized:Subspace.t -> point_class

val spatial_point_class : h:Mat.t -> localized:Subspace.t -> point_class
(** [H_s] (contiguous row zeroed) in place of [H]. *)

val kernel_moves :
  h:Mat.t -> localized:Subspace.t -> unroll_levels:int list -> Vec.t list
(** Generators of the self-merge lattice: directions in the unroll
    dimensions along which copies of a single reference coincide
    (projections of [ker H ∩ (L ⊕ U)] onto the unroll levels).  Pass
    [H_s] for the spatial variant. *)
