(** Hash-consing side tables for the IR.

    The IR types stay plain variants and records; this module interns
    values into per-type weak tables so that structurally equal
    subtrees of consed values are physically equal ([==]).  Interning
    is bottom-up and idempotent: consing an already-consed value
    returns it unchanged (a pure table hit).

    Contract (see DESIGN.md §14 for the full discussion):

    - {b Sharing.}  After [nest n], every subtree of the result shares
      with every other consed value that is structurally equal to it,
      so identity-keyed memos (the {!Canon} digest memo, per-subtree
      analysis caches) hit across nests within one process.
    - {b Lifetime.}  Tables are weak; representatives and their ids
      die with the last outside reference.  Ids are unique per process
      while live, are never reused for a different structure while
      live, and are {e not} stable across processes or after a value
      is collected and re-interned — never persist them.
    - {b Domain safety.}  All operations are serialized by one global
      mutex and may be called from any domain.

    Float constants intern by IEEE bit pattern ([-0.0] ≠ [0.0], NaN
    payloads distinct), matching {!Canon.compare_expr} and the
    printers. *)

val affine : Affine.t -> Affine.t
val aref : Aref.t -> Aref.t
val expr : Expr.t -> Expr.t
val stmt : Stmt.t -> Stmt.t

val body : Stmt.t list -> Stmt.t list
(** Interns every statement under a single lock acquisition — the
    form transformation passes use for rebuilt bodies. *)

val loop : Loop.t -> Loop.t

val nest : Nest.t -> Nest.t
(** Interns the nest and all its subtrees, then precomputes its
    {!Canon.digest} so later digest calls are O(1) memo hits. *)

val nest_no_digest : Nest.t -> Nest.t
(** [nest] without the digest precomputation — for callers that will
    never fingerprint the result. *)

(** {2 Ids}

    The unique id of a representative, or [None] if the value was
    never interned (or is a non-representative copy).  O(1). *)

val id_affine : Affine.t -> int option
val id_aref : Aref.t -> int option
val id_expr : Expr.t -> int option
val id_stmt : Stmt.t -> int option
val id_loop : Loop.t -> int option
val id_nest : Nest.t -> int option

val is_consed_nest : Nest.t -> bool

(** {2 Introspection} *)

val sharing_ratio : unit -> float
(** Fraction of intern operations (across all tables, since the last
    {!reset_stats}) answered by an existing representative; 0.0 when
    no operations have run. *)

val reset_stats : unit -> unit

val clear : unit -> unit
(** Drop all tables (test isolation).  Live consed values keep their
    physical sharing but lose their ids; re-interning assigns fresh
    ones. *)
