open Ujam_linalg
open Ujam_ir
open Ujam_reuse

type member = { site : Site.t; delta : int; is_def : bool; copy : int }

type stream = { base : string; h : Mat.t; invariant : bool; members : member list }

let span members =
  match members with
  | [] -> 0
  | m :: rest ->
      let mn, mx =
        List.fold_left
          (fun (mn, mx) m -> (min mn m.delta, max mx m.delta))
          (m.delta, m.delta) rest
      in
      mx - mn

let registers s = if s.invariant then 1 else span s.members + 1
let memory_ops s = if s.invariant then 0 else 1

(* Time order: larger delta touches a fixed location earlier; within one
   iteration, body-copy order then statement order, and a statement's
   reads execute before its write. *)
let time_sort members =
  let rank m =
    (m.copy, m.site.Site.stmt, (if m.is_def then 1 else 0), m.site.Site.id)
  in
  List.stable_sort
    (fun a b ->
      let c = compare b.delta a.delta in
      if c <> 0 then c else compare (rank a) (rank b))
    members

(* A definition regenerates the value, so it begins a new stream. *)
let split_at_defs ~base ~h ~invariant members =
  if invariant then
    match members with [] -> [] | ms -> [ { base; h; invariant; members = ms } ]
  else begin
    let finished = ref [] in
    let current = ref [] in
    let flush () =
      if !current <> [] then begin
        finished := { base; h; invariant; members = List.rev !current } :: !finished;
        current := []
      end
    in
    List.iter
      (fun m ->
        if m.is_def then flush ();
        current := m :: !current)
      members;
    flush ();
    List.rev !finished
  end

let build ~base ~h ~invariant members = split_at_defs ~base ~h ~invariant (time_sort members)

let class_streams ~h ~localized ~base (sites : Site.t list) =
  match sites with
  | [] -> []
  | leader :: _ ->
      let invariant = Selfreuse.has_self_temporal ~localized h in
      let c0 = Aref.c_vector leader.Site.ref_ in
      let members =
        List.map
          (fun (s : Site.t) ->
            let delta =
              match
                Subspace.solution_in h (Vec.sub (Aref.c_vector s.Site.ref_) c0) localized
              with
              | Some x -> Vec.get x (Vec.dim x - 1)
              | None -> 0 (* unreachable: sites come from one GTS class *)
            in
            { site = s; delta; is_def = Site.is_write s; copy = 0 })
          sites
      in
      split_at_defs ~base ~h ~invariant (time_sort members)

let of_body ~localized nest =
  List.concat_map
    (fun (u : Ugs.t) ->
      let part = Groups.group_temporal ~localized u in
      List.concat_map
        (fun cls -> class_streams ~h:u.Ugs.h ~localized ~base:u.Ugs.base cls)
        part.Groups.classes)
    (Ugs.of_nest nest)

let iter_box u f =
  let d = Vec.dim u in
  let o = Array.make d 0 in
  let rec go k =
    if k = d then f (Vec.make o)
    else
      for x = 0 to Vec.get u k do
        o.(k) <- x;
        go (k + 1)
      done
  in
  go 0

(* Streams of the unrolled loop, from the original UGS alone.  Each GTS
   class of the original body gets a merge key (m over the unroll levels,
   delta on the innermost loop) relative to its component root; after
   unrolling by [u] the classes of the unrolled body are the point
   classes ({!Solvers.point_class}) of the union of the key-shifted
   boxes, and each covering class deposits its members there,
   time-shifted by its key delta.  The component decomposition and
   per-member offsets depend only on the UGS, so [unrolled_fn] computes
   them once and returns a per-[u] closure. *)
let unrolled_parts space ~localized (ugs : Ugs.t) =
  let h = ugs.Ugs.h in
  let solver =
    Solvers.temporal ~h ~localized ~unroll_levels:(Unroll_space.unroll_levels space)
  in
  let classes = (Groups.group_temporal ~localized ugs).Groups.classes in
  (* Pre-resolve each member's time offset relative to its class leader. *)
  let resolved_classes =
    List.map
      (fun cls ->
        let c0 = Aref.c_vector (List.hd cls).Site.ref_ in
        ( c0,
          List.map
            (fun (s : Site.t) ->
              let d_rel =
                match
                  Subspace.solution_in h (Vec.sub (Aref.c_vector s.Site.ref_) c0)
                    localized
                with
                | Some x -> Vec.get x (Vec.dim x - 1)
                | None -> 0
              in
              (s, d_rel, Site.is_write s))
            cls ))
      classes
  in
  let comps =
    Solvers.components ~dim:(Unroll_space.depth space) ~solver fst
      resolved_classes
    |> List.map (List.map (fun ((_, members), key) -> (members, key)))
  in
  let invariant = Selfreuse.has_self_temporal ~localized h in
  (comps, invariant, Solvers.temporal_point_class ~h ~localized)

let unrolled_fn space ~localized (ugs : Ugs.t) =
  let h = ugs.Ugs.h in
  let comps, invariant, point_class = unrolled_parts space ~localized ugs in
  fun u ->
    if not (Unroll_space.mem space u) then
      invalid_arg "Streams.of_ugs_unrolled: unroll vector out of space";
    List.concat_map
      (fun comp ->
        (* Points of the union of shifted boxes, modulo the localized
           lattice; copies in one class pool into the representative's
           member set, time-shifted by [t p - t rep].  Representatives
           are kept newest first and reversed once: stream order is
           their discovery order. *)
        let classes = Hashtbl.create 16 in
        let reps = ref [] in
        List.iter
          (fun (members, { Solvers.m; delta }) ->
            (* iter_box enumerates offsets lexicographically: the running
               index is the textual rank of the body copy. *)
            let copy_rank = ref (-1) in
            iter_box u (fun o ->
                incr copy_rank;
                let key, t = point_class (Vec.add m o) in
                let t_rep, cell =
                  match Hashtbl.find_opt classes key with
                  | Some rep -> rep
                  | None ->
                      let rep = (t, ref []) in
                      Hashtbl.add classes key rep;
                      reps := rep :: !reps;
                      rep
                in
                List.iter
                  (fun (s, d_rel, is_def) ->
                    cell :=
                      { site = s;
                        delta = delta + d_rel + t - t_rep;
                        is_def;
                        copy = !copy_rank }
                      :: !cell)
                  members))
          comp;
        List.concat_map
          (fun (_, cell) ->
            split_at_defs ~base:ugs.Ugs.base ~h ~invariant (time_sort (List.rev !cell)))
          (List.rev !reps))
      comps

let of_ugs_unrolled space ~localized ugs u = unrolled_fn space ~localized ugs u

let of_nest_unrolled space ~localized nest u =
  List.concat_map
    (fun g -> of_ugs_unrolled space ~localized g u)
    (Ugs.of_nest nest)

type summary = { streams : int; memory_ops : int; registers : int }

let summarize ss =
  List.fold_left
    (fun acc s ->
      { streams = acc.streams + 1;
        memory_ops = acc.memory_ops + memory_ops s;
        registers = acc.registers + registers s })
    { streams = 0; memory_ops = 0; registers = 0 }
    ss

(* [summarize (unrolled_fn u)] without building streams per [u].

   Every ingredient of the per-[u] stream decomposition is independent
   of [u] once computed over the full space box: the class partition of
   the deposit points (equivalence classes restrict to sub-boxes), each
   deposit's time offset, and the total time order — [time_sort]'s key
   is (delta desc, body-copy rank, stmt, def, site id), and the copy
   rank of offset [o] within any box [0..u] orders exactly as lex([o]).
   So we partition and sort once and flatten every class into one set
   of arrays (class [k] owns deposits [starts.(k)] to
   [starts.(k+1) - 1]); each query is plain loops over them, skipping
   deposits whose offset lies outside [0..u], splitting at definitions
   and accumulating spans — no allocation, hashing or sorting per [u]. *)
type deposit = { off : int array; d_delta : int; d_stmt : int; d_def : bool; d_id : int }

(* The RRS partitions count into [Tables]' [tables.classes] counter too. *)
let m_classes = Ujam_obs.Obs.counter "tables.classes"

let unrolled_summary_fn space ~localized (ugs : Ugs.t) =
  let comps, invariant, point_class = unrolled_parts space ~localized ugs in
  let compare_deposit a b =
    let c = Int.compare b.d_delta a.d_delta in
    if c <> 0 then c
    else
      let c = compare a.off b.off in
      if c <> 0 then c
      else
        let c = Int.compare a.d_stmt b.d_stmt in
        if c <> 0 then c
        else
          let c = Bool.compare a.d_def b.d_def in
          if c <> 0 then c else Int.compare a.d_id b.d_id
  in
  (* One full-box partition per component (the analogue of one
     [unrolled_fn] query at the maximal vector); classes come out in
     any order, since the summary is a sum over them. *)
  let classes =
    List.concat_map
      (fun comp ->
        let buckets = Hashtbl.create 64 in
        List.iter
          (fun (members, { Solvers.m; delta }) ->
            Unroll_space.iter space (fun o ->
                let key, t = point_class (Vec.add m o) in
                let t_rep, bucket =
                  match Hashtbl.find_opt buckets key with
                  | Some b -> b
                  | None ->
                      let b = (t, ref []) in
                      Hashtbl.add buckets key b;
                      b
                in
                let off = Vec.to_array o in
                List.iter
                  (fun ((s : Site.t), d_rel, is_def) ->
                    bucket :=
                      { off;
                        d_delta = delta + d_rel + t - t_rep;
                        d_stmt = s.Site.stmt;
                        d_def = is_def;
                        d_id = s.Site.id }
                      :: !bucket)
                  members))
          comp;
        Hashtbl.fold
          (fun _ (_, bucket) acc ->
            let a = Array.of_list !bucket in
            Array.sort compare_deposit a;
            a :: acc)
          buckets [])
      comps
  in
  Ujam_obs.Obs.Counter.add m_classes (List.length classes);
  let dim = Unroll_space.depth space in
  let n_classes = List.length classes in
  let starts = Array.make (n_classes + 1) 0 in
  List.iteri
    (fun k a -> starts.(k + 1) <- starts.(k) + Array.length a)
    classes;
  let deposits = Array.concat classes in
  let offs = Array.make (Array.length deposits * dim) 0 in
  Array.iteri (fun e d -> Array.blit d.off 0 offs (e * dim) dim) deposits;
  let deltas = Array.map (fun d -> d.d_delta) deposits in
  let defs = Array.map (fun d -> d.d_def) deposits in
  fun u ->
    if not (Unroll_space.mem space u) then
      invalid_arg "Streams.of_ugs_unrolled: unroll vector out of space";
    let streams = ref 0 and mem = ref 0 and regs = ref 0 in
    for c = 0 to n_classes - 1 do
      (* Walk class [c] in time order over the deposits inside [0..u],
         splitting at defs: mirrors [split_at_defs] + [summarize].  An
         invariant class is one stream in one register. *)
      let open_ = ref false and mn = ref 0 and mx = ref 0 in
      let e = ref starts.(c) in
      while !e < starts.(c + 1) && not (invariant && !open_) do
        let k = ref 0 in
        while !k < dim && offs.((!e * dim) + !k) <= Vec.get u !k do
          incr k
        done;
        if !k = dim then begin
          let delta = deltas.(!e) in
          if defs.(!e) || not !open_ then begin
            if !open_ then begin
              incr streams;
              incr mem;
              regs := !regs + (!mx - !mn + 1)
            end;
            open_ := true;
            mn := delta;
            mx := delta
          end
          else begin
            if delta < !mn then mn := delta;
            if delta > !mx then mx := delta
          end
        end;
        incr e
      done;
      if !open_ then begin
        incr streams;
        if invariant then incr regs
        else begin
          incr mem;
          regs := !regs + (!mx - !mn + 1)
        end
      end
    done;
    { streams = !streams; memory_ops = !mem; registers = !regs }
