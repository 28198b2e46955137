(* Hash-consing side tables for the IR.

   The IR types stay plain variants/records — every existing pattern
   match keeps working — and sharing lives in per-type weak sets of
   representatives.  The [cons] family walks a value bottom-up,
   replacing each subtree by the unique live representative of its
   structural class, so equal subtrees of consed values are physically
   equal ([==]) and downstream layers can key identity-based memos
   (the digest memo in {!Canon}, per-subtree analysis results) on the
   node itself.

   Three invariants carry the design (DESIGN.md §14):

   - {b Children first.}  A node is only interned once its children
     are representatives.  Structural equality of two such nodes
     therefore reduces to [==] on the children plus atom comparison,
     and the bucket hash of a node is derived from its children's ids
     — an O(1) lookup, not a subtree walk.

   - {b Weak lifetime.}  The sets hold representatives weakly and the
     id maps are ephemerons keyed by the representative: entries die
     with the last outside reference, so a long-lived process (the
     serve daemon) cannot leak one table entry per nest it ever saw.
     The flip side: ids are only stable while the value is live, and
     never across processes — nothing persisted may key on them.

   - {b Domain safety.}  One global mutex guards every table
     operation.  Consing is pure bookkeeping (no user code runs under
     the lock), so the critical sections are short; worker domains
     consing identical subtrees converge on one representative instead
     of racing to duplicate it.

   Float atoms intern by IEEE bit pattern, not [Float.equal]: [-0.0]
   and [0.0] are distinct constants to {!Canon.compare_expr} and to
   the printers, so merging them would change digests and rendered
   output.  (The bucket hash may still conflate them — a collision is
   harmless, a merge is not.) *)

let lock = Mutex.create ()

let with_lock f =
  Mutex.lock lock;
  match f () with
  | v ->
      Mutex.unlock lock;
      v
  | exception e ->
      Mutex.unlock lock;
      raise e

(* Unique ids across all node kinds; 0 is never assigned. *)
let next_id = ref 0

let fresh_id () =
  incr next_id;
  !next_id

let mix a b = (a * 0x9e3779b1) lxor b

(* Identity-keyed rep → id map.  Only representatives are ever
   inserted, so structural hash collisions between distinct objects
   cannot arise from probes. *)
module Ids (T : sig
  type t
end) =
struct
  module E = Ephemeron.K1.Make (struct
    type t = T.t

    let equal = ( == )
    let hash = Hashtbl.hash
  end)

  let tbl : int E.t = E.create 512
  let find x = E.find_opt tbl x

  (* The id of a known-consed child, used by parent hash functions.  A
     miss can only mean the children-first invariant was broken. *)
  let exn x =
    match E.find_opt tbl x with
    | Some i -> i
    | None -> invalid_arg "Hashcons: child is not a representative"

  let set x i = E.replace tbl x i
  let clear () = E.clear tbl
end

(* Weak set of representatives with hit/miss accounting.  [H.equal]
   and [H.hash] are only ever applied to values whose children are
   already representatives (probes included), where shallow [==]
   equality agrees with full structural equality. *)
module Set (H : Hashtbl.HashedType) = struct
  module W = Weak.Make (H)

  let set = W.create 512
  let hits = ref 0
  let misses = ref 0

  let intern ~on_new x =
    match W.find_opt set x with
    | Some r ->
        incr hits;
        r
    | None ->
        incr misses;
        on_new x;
        W.add set x;
        x

  let stats () = (!hits, !misses)

  let reset_stats () =
    hits := 0;
    misses := 0

  let clear () =
    W.clear set;
    reset_stats ()
end

(* ---- per-type tables, bottom-up -------------------------------------- *)

module Affine_ids = Ids (struct
  type t = Affine.t
end)

module Affine_set = Set (struct
  type t = Affine.t

  (* Length-guarded: unlike [Affine.equal] this must tolerate probes
     of different depths landing in one bucket. *)
  let equal (a : Affine.t) (b : Affine.t) =
    a.Affine.const = b.Affine.const
    && Array.length a.Affine.coefs = Array.length b.Affine.coefs
    && Array.for_all2 ( = ) a.Affine.coefs b.Affine.coefs

  let hash (a : Affine.t) = Hashtbl.hash (a.Affine.coefs, a.Affine.const)
end)

module Aref_ids = Ids (struct
  type t = Aref.t
end)

module Aref_set = Set (struct
  type t = Aref.t

  let equal (a : Aref.t) (b : Aref.t) =
    String.equal a.Aref.base b.Aref.base
    && Array.length a.Aref.subs = Array.length b.Aref.subs
    && Array.for_all2 ( == ) a.Aref.subs b.Aref.subs

  let hash (a : Aref.t) =
    Array.fold_left
      (fun acc s -> mix acc (Affine_ids.exn s))
      (Hashtbl.hash a.Aref.base) a.Aref.subs
end)

module Expr_ids = Ids (struct
  type t = Expr.t
end)

module Expr_set = Set (struct
  type t = Expr.t

  let equal (a : Expr.t) (b : Expr.t) =
    match (a, b) with
    | Expr.Const x, Expr.Const y ->
        Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
    | Expr.Scalar x, Expr.Scalar y -> String.equal x y
    | Expr.Read x, Expr.Read y -> x == y
    | Expr.Neg x, Expr.Neg y -> x == y
    | Expr.Bin (o1, a1, b1), Expr.Bin (o2, a2, b2) ->
        o1 = o2 && a1 == a2 && b1 == b2
    | (Expr.Const _ | Expr.Scalar _ | Expr.Read _ | Expr.Neg _ | Expr.Bin _), _
      ->
        false

  let hash (e : Expr.t) =
    match e with
    | Expr.Const f -> mix 1 (Hashtbl.hash (Int64.bits_of_float f))
    | Expr.Scalar s -> mix 2 (Hashtbl.hash s)
    | Expr.Read r -> mix 3 (Aref_ids.exn r)
    | Expr.Neg a -> mix 4 (Expr_ids.exn a)
    | Expr.Bin (op, a, b) ->
        mix (mix (Hashtbl.hash op) (Expr_ids.exn a)) (Expr_ids.exn b)
end)

module Stmt_ids = Ids (struct
  type t = Stmt.t
end)

module Stmt_set = Set (struct
  type t = Stmt.t

  let equal (a : Stmt.t) (b : Stmt.t) =
    a.Stmt.rhs == b.Stmt.rhs
    &&
    match (a.Stmt.lhs, b.Stmt.lhs) with
    | Stmt.Array_elt x, Stmt.Array_elt y -> x == y
    | Stmt.Scalar_var x, Stmt.Scalar_var y -> String.equal x y
    | (Stmt.Array_elt _ | Stmt.Scalar_var _), _ -> false

  let hash (s : Stmt.t) =
    let lhs =
      match s.Stmt.lhs with
      | Stmt.Array_elt r -> mix 5 (Aref_ids.exn r)
      | Stmt.Scalar_var v -> mix 6 (Hashtbl.hash v)
    in
    mix lhs (Expr_ids.exn s.Stmt.rhs)
end)

module Loop_ids = Ids (struct
  type t = Loop.t
end)

module Loop_set = Set (struct
  type t = Loop.t

  let equal (a : Loop.t) (b : Loop.t) =
    String.equal a.Loop.var b.Loop.var
    && a.Loop.level = b.Loop.level
    && a.Loop.step = b.Loop.step
    && a.Loop.lo == b.Loop.lo
    && a.Loop.hi == b.Loop.hi

  let hash (l : Loop.t) =
    mix
      (mix
         (Hashtbl.hash (l.Loop.var, l.Loop.level, l.Loop.step))
         (Affine_ids.exn l.Loop.lo))
      (Affine_ids.exn l.Loop.hi)
end)

module Nest_ids = Ids (struct
  type t = Nest.t
end)

module Nest_set = Set (struct
  type t = Nest.t

  let equal (a : Nest.t) (b : Nest.t) =
    String.equal (Nest.name a) (Nest.name b)
    && Array.length (Nest.loops a) = Array.length (Nest.loops b)
    && Array.for_all2 ( == ) (Nest.loops a) (Nest.loops b)
    && List.equal ( == ) (Nest.body a) (Nest.body b)

  let hash (n : Nest.t) =
    let h =
      Array.fold_left
        (fun acc l -> mix acc (Loop_ids.exn l))
        (Hashtbl.hash (Nest.name n))
        (Nest.loops n)
    in
    List.fold_left (fun acc s -> mix acc (Stmt_ids.exn s)) h (Nest.body n)
end)

(* ---- bottom-up consing (all [cons_*] run with the lock held) ---------- *)

let cons_affine a =
  Affine_set.intern ~on_new:(fun x -> Affine_ids.set x (fresh_id ())) a

let cons_aref (r : Aref.t) =
  let subs = Array.map cons_affine r.Aref.subs in
  let r =
    if Array.for_all2 ( == ) subs r.Aref.subs then r else { r with Aref.subs }
  in
  Aref_set.intern ~on_new:(fun x -> Aref_ids.set x (fresh_id ())) r

let rec cons_expr (e : Expr.t) =
  let e =
    match e with
    | Expr.Const _ | Expr.Scalar _ -> e
    | Expr.Read r ->
        let r' = cons_aref r in
        if r' == r then e else Expr.Read r'
    | Expr.Neg a ->
        let a' = cons_expr a in
        if a' == a then e else Expr.Neg a'
    | Expr.Bin (op, a, b) ->
        let a' = cons_expr a in
        let b' = cons_expr b in
        if a' == a && b' == b then e else Expr.Bin (op, a', b')
  in
  Expr_set.intern ~on_new:(fun x -> Expr_ids.set x (fresh_id ())) e

let cons_stmt (s : Stmt.t) =
  let lhs =
    match s.Stmt.lhs with
    | Stmt.Array_elt r ->
        let r' = cons_aref r in
        if r' == r then s.Stmt.lhs else Stmt.Array_elt r'
    | Stmt.Scalar_var _ -> s.Stmt.lhs
  in
  let rhs = cons_expr s.Stmt.rhs in
  let s =
    if lhs == s.Stmt.lhs && rhs == s.Stmt.rhs then s else { Stmt.lhs; rhs }
  in
  Stmt_set.intern ~on_new:(fun x -> Stmt_ids.set x (fresh_id ())) s

let cons_loop (l : Loop.t) =
  let lo = cons_affine l.Loop.lo in
  let hi = cons_affine l.Loop.hi in
  let l =
    if lo == l.Loop.lo && hi == l.Loop.hi then l else { l with Loop.lo; hi }
  in
  Loop_set.intern ~on_new:(fun x -> Loop_ids.set x (fresh_id ())) l

let cons_nest (n : Nest.t) =
  let loops = Array.map cons_loop (Nest.loops n) in
  let body = List.map cons_stmt (Nest.body n) in
  let n =
    if
      Array.for_all2 ( == ) loops (Nest.loops n)
      && List.equal ( == ) body (Nest.body n)
    then n
    else Nest.with_loops (Nest.with_body n body) loops
  in
  Nest_set.intern ~on_new:(fun x -> Nest_ids.set x (fresh_id ())) n

(* ---- public API ------------------------------------------------------- *)

let affine a = with_lock (fun () -> cons_affine a)
let aref r = with_lock (fun () -> cons_aref r)
let expr e = with_lock (fun () -> cons_expr e)
let stmt s = with_lock (fun () -> cons_stmt s)
let body ss = with_lock (fun () -> List.map cons_stmt ss)
let loop l = with_lock (fun () -> cons_loop l)
let nest_no_digest n = with_lock (fun () -> cons_nest n)

(* Precompute the canonical digest outside the table lock (Canon has
   its own memo lock; never nest the two) so a consed nest answers
   [Canon.digest] in O(1) from its first use on. *)
let nest n =
  let r = nest_no_digest n in
  ignore (Canon.digest r : string);
  r

let id_affine a = with_lock (fun () -> Affine_ids.find a)
let id_aref r = with_lock (fun () -> Aref_ids.find r)
let id_expr e = with_lock (fun () -> Expr_ids.find e)
let id_stmt s = with_lock (fun () -> Stmt_ids.find s)
let id_loop l = with_lock (fun () -> Loop_ids.find l)
let id_nest n = with_lock (fun () -> Nest_ids.find n)
let is_consed_nest n = Option.is_some (id_nest n)

(* Fraction of intern operations answered by an existing
   representative: the sharing the tables are buying process-wide. *)
let sharing_ratio () =
  let hits, total =
    with_lock (fun () ->
        List.fold_left
          (fun (h, t) (hi, mi) -> (h + hi, t + hi + mi))
          (0, 0)
          [
            Affine_set.stats ();
            Aref_set.stats ();
            Expr_set.stats ();
            Stmt_set.stats ();
            Loop_set.stats ();
            Nest_set.stats ();
          ])
  in
  if total = 0 then 0.0 else float_of_int hits /. float_of_int total

let reset_stats () =
  with_lock (fun () ->
      Affine_set.reset_stats ();
      Aref_set.reset_stats ();
      Expr_set.reset_stats ();
      Stmt_set.reset_stats ();
      Loop_set.reset_stats ();
      Nest_set.reset_stats ())

let clear () =
  with_lock (fun () ->
      Affine_set.clear ();
      Affine_ids.clear ();
      Aref_set.clear ();
      Aref_ids.clear ();
      Expr_set.clear ();
      Expr_ids.clear ();
      Stmt_set.clear ();
      Stmt_ids.clear ();
      Loop_set.clear ();
      Loop_ids.clear ();
      Nest_set.clear ();
      Nest_ids.clear ())
