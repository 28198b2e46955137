open Ujam_ir
open Ujam_machine
open Ujam_engine
module Json = Ujam_obs.Json
open Ujam_workload
module Obs = Ujam_obs.Obs

(* Oracle metrics: no-ops until the observability sink is enabled. *)
let m_nests = Obs.counter "oracle.nests"
let m_mismatches = Obs.counter "oracle.mismatches"
let m_unexplained = Obs.counter "oracle.unexplained"
let m_failures = Obs.counter "oracle.failures"
let m_verify_checked = Obs.counter "oracle.verify.checked"
let m_verify_failed = Obs.counter "oracle.verify.failed"
let m_native_checked = Obs.counter "oracle.native.checked"
let m_native_skipped = Obs.counter "oracle.native.skipped"

type layer = Recount | Sim | Cross_model | Verify | Native | Cachepred

let layer_name = function
  | Recount -> "recount"
  | Sim -> "sim"
  | Cross_model -> "cross-model"
  | Verify -> "verify"
  | Native -> "native"
  | Cachepred -> "cachepred"

(* The native layer stays opt-in: it forks the host toolchain per nest,
   which is orders of magnitude slower than the analytical layers. *)
let all_layers = [ Recount; Sim; Cross_model; Verify; Cachepred ]

type config = {
  n : int;
  seed : int;
  max_depth : int;
  bound : int;
  max_loops : int;
  machine : Machine.t;
  domains : int;
  layers : layer list;
  shrink : bool;
  deep : bool;  (** deep-space mode: 4-deep generator nests admitted *)
  recurrent : bool;
      (** recurrent mode: draw fence-binding recurrence nests instead
          of the corpus mix *)
  dedup : bool;  (** skip nests whose canonical digest was already drawn *)
}

let default_config ?(machine = Presets.alpha) () =
  { n = 200;
    seed = 1997;
    max_depth = 3;
    bound = 4;
    max_loops = 2;
    machine;
    domains = 1;
    layers = all_layers;
    shrink = true;
    deep = false;
    recurrent = false;
    dedup = false }

type failure = {
  routine : string;
  nest : Nest.t;
  error : Error.t option;
  mismatches : Mismatch.t list;
  reduced : Nest.t option;
}

type report = {
  config : config;
  nests : int;
  routines : int;
  draws : int;
  rejected : int;
  skipped_depth : int;
  deduped : int;
  digest_s : float;
  digest_unique : int;
  digest_reused : int;
  fenced : int;
  sim_checked : int;
  cachepred_checked : int;
  verify_checked : int;
  verify_failed : int;
  native_checked : int;
  native_skipped : int;
  total_mismatches : int;
  unexplained : int;
  failures : failure list;
}

(* ---- one nest through one layer -------------------------------------- *)

type layer_result = {
  lr_mismatches : Mismatch.t list;
  lr_simulated : int;
  lr_cachepred : int;  (** hierarchy levels compared by the cachepred layer *)
  lr_verified : int;
  lr_native : int;  (** variants validated by the native backend *)
  lr_native_skipped : int;  (** 1 when the toolchain was unavailable *)
  lr_error : Error.t option;
}

let empty_lr =
  { lr_mismatches = [];
    lr_simulated = 0;
    lr_cachepred = 0;
    lr_verified = 0;
    lr_native = 0;
    lr_native_skipped = 0;
    lr_error = None }

(* The verify layer: materialise every unroll vector of the searched
   space through the gated pipeline ({!Ujam_analysis.Passes.apply_seq}
   — the legality gate, the structural transform, and the index-algebra
   post-condition all run per vector); any diagnostic is a mismatch the
   tables could never have caught (they never materialise code).  The
   dependence graph is built once per nest and reused for every
   vector's legality gate. *)
let verify_check ~bound ~max_loops ~machine nest =
  let ctx = Ujam_core.Analysis_ctx.create ~bound ~max_loops ~machine nest in
  let space = Ujam_core.Analysis_ctx.space ctx in
  let graph = Ujam_core.Analysis_ctx.graph ctx in
  let ms = ref [] and checked = ref 0 in
  Ujam_core.Unroll_space.iter space (fun u ->
      incr checked;
      match
        Ujam_analysis.Passes.apply_seq ~graph nest
          [ Ujam_ir.Transform.Unroll u ]
      with
      | Ok _ -> ()
      | Error diags ->
          List.iter
            (fun (d : Ujam_analysis.Diagnostic.t) ->
              ms :=
                Mismatch.make ~nest:(Nest.name nest)
                  ~machine:machine.Machine.name
                  (Mismatch.Verify
                     { u;
                       rule = d.Ujam_analysis.Diagnostic.rule;
                       detail = d.Ujam_analysis.Diagnostic.message })
                :: !ms)
            diags);
  (List.rev !ms, !checked)

(* The native layer: lower the original nest plus a deterministic
   sample of its legalized unroll variants to one compiled program
   ({!Ujam_native}) and demand that every variant's per-array checksums
   match the reference interpreter run of that same variant.  A missing
   toolchain is a skip, never a failure — the analytical layers keep
   their verdicts. *)
let native_max_variants = 4

let native_check ?(drop_copy = false) ~cfg ~routine:_ nest =
  match Ujam_native.Toolchain.find () with
  | Error _ -> { empty_lr with lr_native_skipped = 1 }
  | Ok tc ->
      let { bound; max_loops; machine; seed; _ } = cfg in
      let ctx = Ujam_core.Analysis_ctx.create ~bound ~max_loops ~machine nest in
      let space = Ujam_core.Analysis_ctx.space ctx in
      let graph = Ujam_core.Analysis_ctx.graph ctx in
      let legal = ref [] in
      Ujam_core.Unroll_space.iter space (fun u ->
          if not (Ujam_linalg.Vec.is_zero u) then
            match
              Ujam_analysis.Passes.apply_seq ~graph nest
                [ Ujam_ir.Transform.Unroll u ]
            with
            | Ok (nest', _) -> legal := (u, nest') :: !legal
            | Error _ -> ());
      let legal = List.rev !legal in
      (* deterministic, evenly spaced sample: compiling every vector of
         the space per nest would swamp the run *)
      let sampled =
        let n = List.length legal in
        if n <= native_max_variants then legal
        else
          List.filteri
            (fun i _ ->
              i * native_max_variants / n
              <> (i + 1) * native_max_variants / n)
            legal
      in
      let variants =
        { Ujam_native.Emit.vname = "orig"; nest }
        :: List.map
             (fun (u, nest') ->
               { Ujam_native.Emit.vname = "u=" ^ Ujam_linalg.Vec.to_string u;
                 nest = nest' })
             sampled
      in
      let spec =
        { Ujam_native.Emit.uname = Nest.name nest;
          seed;
          repeats = 1;
          variants }
      in
      (match Ujam_native.Native.run_units ~drop_last_stmt:drop_copy tc [ spec ] with
      | Error msg -> failwith msg
      | Ok [ res ] ->
          let eqs = Ujam_native.Native.equivalences spec res in
          let ms =
            List.concat_map
              (fun (e : Ujam_native.Native.equivalence) ->
                List.map
                  (fun (d : Ujam_native.Native.diff) ->
                    Mismatch.make ~nest:(Nest.name nest)
                      ~machine:machine.Machine.name
                      (Mismatch.Native
                         { variant = e.Ujam_native.Native.vname;
                           array_name = d.Ujam_native.Native.array_name;
                           native = d.Ujam_native.Native.native;
                           expected = d.Ujam_native.Native.expected }))
                  e.Ujam_native.Native.diffs)
              eqs
          in
          { empty_lr with
            lr_mismatches = ms;
            lr_native = List.length variants }
      | Ok _ -> failwith "native program returned wrong unit count")

let check_layer ?perturb ?(native_drop_copy = false) ~cfg ~routine layer nest =
  let { bound; max_loops; machine; _ } = cfg in
  let guard stage f =
    match Error.guard ~stage ~routine f with
    | Ok r -> r
    | Error e -> { empty_lr with lr_error = Some e }
  in
  match layer with
  | Recount ->
      guard Error.Tables (fun () ->
          let ms =
            Recount.check ~bound ~max_loops ?perturb ~machine nest
          in
          { empty_lr with lr_mismatches = ms })
  | Sim ->
      guard Error.Sim (fun () ->
          let o = Simcheck.check ~bound ~max_loops ~machine nest in
          { empty_lr with
            lr_mismatches = o.Simcheck.mismatches;
            lr_simulated = o.Simcheck.simulated })
  | Cross_model ->
      guard Error.Search (fun () ->
          let ms = Crossmodel.check ~bound ~max_loops ~machine nest in
          { empty_lr with lr_mismatches = ms })
  | Verify ->
      guard Error.Transform (fun () ->
          let ms, checked = verify_check ~bound ~max_loops ~machine nest in
          { empty_lr with lr_mismatches = ms; lr_verified = checked })
  | Native ->
      guard Error.Native (fun () ->
          native_check ~drop_copy:native_drop_copy ~cfg ~routine nest)
  | Cachepred ->
      guard Error.Sim (fun () ->
          let o = Cachepred.check ~machine nest in
          { empty_lr with
            lr_mismatches = o.Cachepred.mismatches;
            lr_cachepred = o.Cachepred.levels_checked })

let unexplained_of ms = List.filter (fun m -> not (Mismatch.is_explained m)) ms

(* ---- one nest through all layers, with shrinking --------------------- *)

type job_result = {
  jr_simulated : bool;
  jr_cachepred : bool;
  jr_verified : int;
  jr_native : int;
  jr_native_skipped : int;
  jr_failure : failure option;
}

let check_nest ?perturb ?native_drop_copy ~cfg ~routine nest =
  let results =
    List.map
      (fun l ->
        (l, check_layer ?perturb ?native_drop_copy ~cfg ~routine l nest))
      cfg.layers
  in
  let mismatches = List.concat_map (fun (_, r) -> r.lr_mismatches) results in
  let error = List.find_map (fun (_, r) -> r.lr_error) results in
  let simulated =
    List.exists (fun (_, r) -> r.lr_simulated > 0) results
  in
  let cachepred =
    List.exists (fun (_, r) -> r.lr_cachepred > 0) results
  in
  let verified =
    List.fold_left (fun acc (_, r) -> acc + r.lr_verified) 0 results
  in
  let native =
    List.fold_left (fun acc (_, r) -> acc + r.lr_native) 0 results
  in
  let native_skipped =
    List.fold_left (fun acc (_, r) -> acc + r.lr_native_skipped) 0 results
  in
  let bad = unexplained_of mismatches <> [] || error <> None in
  if not bad then
    { jr_simulated = simulated;
      jr_cachepred = cachepred;
      jr_verified = verified;
      jr_native = native;
      jr_native_skipped = native_skipped;
      jr_failure = None }
  else
    let reduced =
      if not cfg.shrink then None
      else
        (* Re-run only the layers that failed; an analysis crash counts as
           the same failure only when the original run also crashed (and
           produced no unexplained mismatch — mismatches take priority). *)
        let want_error = error <> None && unexplained_of mismatches = [] in
        let fail_layers =
          if want_error then
            List.filter_map
              (fun (l, r) -> if r.lr_error <> None then Some l else None)
              results
          else
            List.filter_map
              (fun (l, r) ->
                if unexplained_of r.lr_mismatches <> [] then Some l else None)
              results
        in
        let still_fails n =
          List.exists
            (fun l ->
              let r = check_layer ?perturb ?native_drop_copy ~cfg ~routine l n in
              if want_error then r.lr_error <> None
              else unexplained_of r.lr_mismatches <> [])
            fail_layers
        in
        Some (Shrink.run ~still_fails nest)
    in
    { jr_simulated = simulated;
      jr_cachepred = cachepred;
      jr_verified = verified;
      jr_native = native;
      jr_native_skipped = native_skipped;
      jr_failure = Some { routine; nest; error; mismatches; reduced } }

(* ---- the run ---------------------------------------------------------- *)

let run ?perturb ?native_drop_copy cfg =
  let stats = Generator.stats () in
  let st = Random.State.make [| cfg.seed |] in
  let jobs = ref [] in
  let count = ref 0 and idx = ref 0 and skipped_depth = ref 0 in
  let deduped = ref 0 and digest_s = ref 0.0 in
  let memo_hits0, memo_misses0 = Canon.memo_stats () in
  let seen = Hashtbl.create 64 in
  let max_draws = (cfg.n * 8) + 16 in
  while !count < cfg.n && !idx < max_draws do
    let r =
      Generator.routine ~deep:cfg.deep ~recurrent:cfg.recurrent ~stats st !idx
    in
    incr idx;
    List.iter
      (fun nest ->
        if !count < cfg.n then
          if Nest.depth nest > cfg.max_depth then incr skipped_depth
          else begin
            (* duplicate-skipping: a nest whose canonical digest was
               already queued re-checks nothing — skip it and let the
               loop draw a fresh one in its place.  Consing the nest
               first means a structural duplicate interns to the same
               representative, so its digest is an O(1) memo hit
               instead of a full re-encode: each distinct nest is
               digested exactly once per run. *)
            let nest, dup =
              if not cfg.dedup then (nest, false)
              else begin
                let t0 = Sys.time () in
                let nest = Hashcons.nest_no_digest nest in
                let d = Canon.digest nest in
                digest_s := !digest_s +. (Sys.time () -. t0);
                if Hashtbl.mem seen d then (nest, true)
                else begin
                  Hashtbl.add seen d ();
                  (nest, false)
                end
              end
            in
            if dup then incr deduped
            else begin
              incr count;
              jobs := (r.Generator.name, nest) :: !jobs
            end
          end)
      r.Generator.nests
  done;
  let jobs = Array.of_list (List.rev !jobs) in
  let memo_hits1, memo_misses1 = Canon.memo_stats () in
  let results =
    Engine.parallel_map ~domains:cfg.domains
      ~f:(fun ~domain:_ (routine, nest) ->
        check_nest ?perturb ?native_drop_copy ~cfg ~routine nest)
      jobs
  in
  let failures =
    Array.to_list results |> List.filter_map (fun r -> r.jr_failure)
  in
  let total_mismatches =
    List.fold_left (fun acc f -> acc + List.length f.mismatches) 0 failures
  in
  let unexplained =
    List.fold_left
      (fun acc f -> acc + List.length (unexplained_of f.mismatches))
      0 failures
  in
  let verify_checked =
    Array.fold_left (fun acc r -> acc + r.jr_verified) 0 results
  in
  let native_checked =
    Array.fold_left (fun acc r -> acc + r.jr_native) 0 results
  in
  let native_skipped =
    Array.fold_left (fun acc r -> acc + r.jr_native_skipped) 0 results
  in
  let verify_failed =
    List.fold_left
      (fun acc f ->
        acc
        + List.length
            (List.filter (fun m -> Mismatch.layer m = "verify") f.mismatches))
      0 failures
  in
  Obs.Counter.add m_nests (Array.length jobs);
  Obs.Counter.add m_mismatches total_mismatches;
  Obs.Counter.add m_unexplained unexplained;
  Obs.Counter.add m_failures (List.length failures);
  Obs.Counter.add m_verify_checked verify_checked;
  Obs.Counter.add m_verify_failed verify_failed;
  Obs.Counter.add m_native_checked native_checked;
  Obs.Counter.add m_native_skipped native_skipped;
  { config = cfg;
    nests = Array.length jobs;
    routines = !idx;
    draws = stats.Generator.generated;
    rejected = stats.Generator.rejected;
    skipped_depth = !skipped_depth;
    deduped = !deduped;
    digest_s = !digest_s;
    digest_unique = memo_misses1 - memo_misses0;
    digest_reused = memo_hits1 - memo_hits0;
    fenced = stats.Generator.fenced;
    sim_checked =
      Array.fold_left
        (fun acc r -> if r.jr_simulated then acc + 1 else acc)
        0 results;
    cachepred_checked =
      Array.fold_left
        (fun acc r -> if r.jr_cachepred then acc + 1 else acc)
        0 results;
    verify_checked;
    verify_failed;
    native_checked;
    native_skipped;
    total_mismatches;
    unexplained;
    failures }

let ok r = r.unexplained = 0 && List.for_all (fun f -> f.error = None) r.failures

(* ---- rendering -------------------------------------------------------- *)

let pp ppf r =
  let c = r.config in
  Format.fprintf ppf
    "differential oracle: seed=%d machine=%s bound=%d depth<=%d layers=%s%s@."
    c.seed c.machine.Machine.name c.bound c.max_depth
    (String.concat "," (List.map layer_name c.layers))
    ((if c.deep then " deep-space" else "")
    ^ if c.recurrent then " recurrent" else "");
  Format.fprintf ppf
    "nests: %d checked (%d routines, %d draws, %d out-of-class re-rolls, %d over depth limit)@."
    r.nests r.routines r.draws r.rejected r.skipped_depth;
  if c.dedup then
    Format.fprintf ppf
      "dedup: %d duplicate nests skipped by canonical digest (%d digests \
       computed, %d re-encodes avoided by the memo)@."
      r.deduped r.digest_unique r.digest_reused;
  if c.recurrent then
    Format.fprintf ppf
      "recurrent mode: %d of %d emitted nests have a binding safety fence@."
      r.fenced r.nests;
  Format.fprintf ppf "sim layer: %d nests replayed through the cache model@."
    r.sim_checked;
  Format.fprintf ppf
    "cachepred layer: %d nests checked against the hierarchy simulator@."
    r.cachepred_checked;
  Format.fprintf ppf
    "verify layer: %d unrolled bodies checked, %d rejected@."
    r.verify_checked r.verify_failed;
  if List.mem Native c.layers then
    if r.native_skipped > 0 && r.native_checked = 0 then
      Format.fprintf ppf
        "native layer: native_skipped (no toolchain, %d nests not compiled)@."
        r.native_skipped
    else
      Format.fprintf ppf
        "native layer: %d variants compiled and validated (%d nests skipped)@."
        r.native_checked r.native_skipped;
  Format.fprintf ppf "mismatches: %d total, %d unexplained@."
    r.total_mismatches r.unexplained;
  List.iter
    (fun f ->
      Format.fprintf ppf "@.failure: %s (%s)@." (Nest.name f.nest) f.routine;
      (match f.error with
      | Some e -> Format.fprintf ppf "  error: %a@." Error.pp e
      | None -> ());
      let shown, rest =
        let rec split k = function
          | [] -> ([], [])
          | l when k = 0 -> ([], l)
          | m :: tl ->
              let a, b = split (k - 1) tl in
              (m :: a, b)
        in
        split 5 f.mismatches
      in
      List.iter (fun m -> Format.fprintf ppf "  %a@." Mismatch.pp m) shown;
      if rest <> [] then
        Format.fprintf ppf "  ... and %d more@." (List.length rest);
      match f.reduced with
      | None -> ()
      | Some n ->
          Format.fprintf ppf "  reduced reproducer:@.";
          String.split_on_char '\n' (Nest.to_string n)
          |> List.iter (fun line ->
                 if line <> "" then Format.fprintf ppf "    %s@." line);
          Format.fprintf ppf "  rebuild with:@.";
          String.split_on_char '\n' (Shrink.to_snippet n)
          |> List.iter (fun line ->
                 if line <> "" then Format.fprintf ppf "    %s@." line))
    r.failures;
  Format.fprintf ppf "result: %s@."
    (if ok r then "ok"
     else Printf.sprintf "%d unexplained mismatch(es), %d error(s)"
         r.unexplained
         (List.length (List.filter (fun f -> f.error <> None) r.failures)))

let failure_to_json f =
  Json.Obj
    [ ("routine", Json.Str f.routine);
      ("nest", Json.Str (Nest.name f.nest));
      ( "error",
        match f.error with
        | Some e -> Json.Str (Error.to_string e)
        | None -> Json.Null );
      ("mismatches", Json.List (List.map Mismatch.to_json f.mismatches));
      ( "reduced",
        match f.reduced with
        | Some n -> Shrink.to_json n
        | None -> Json.Null ) ]

let to_json r =
  let c = r.config in
  Json.Obj
    ([ ("seed", Json.Int c.seed);
      ("n", Json.Int c.n);
      ("machine", Json.Str c.machine.Machine.name);
      ("bound", Json.Int c.bound);
      ("max_depth", Json.Int c.max_depth);
      ("deep", Json.Bool c.deep);
      ("recurrent", Json.Bool c.recurrent);
      ( "layers",
        Json.List (List.map (fun l -> Json.Str (layer_name l)) c.layers) );
      ("nests", Json.Int r.nests);
      ("routines", Json.Int r.routines);
      ("draws", Json.Int r.draws);
      ("rejected", Json.Int r.rejected);
      ("skipped_depth", Json.Int r.skipped_depth);
      ("deduped", Json.Int r.deduped) ]
    (* digest accounting appears only under [--dedup], keeping the
       pinned default-run JSON byte-stable (the native fields below
       follow the same rule) *)
    @ (if c.dedup then
         [ ("digest_s", Json.Float r.digest_s);
           ("digest_unique", Json.Int r.digest_unique);
           ("digest_reused", Json.Int r.digest_reused) ]
       else [])
    @ [ ("fenced", Json.Int r.fenced);
      ("sim_checked", Json.Int r.sim_checked);
      ("cachepred_checked", Json.Int r.cachepred_checked);
      ("verify_checked", Json.Int r.verify_checked);
      ("verify_failed", Json.Int r.verify_failed) ]
    (* native fields appear only when the layer was configured, so the
       pinned default-run JSON stays byte-stable *)
    @ (if List.mem Native c.layers then
         [ ("native_checked", Json.Int r.native_checked);
           ("native_skipped", Json.Int r.native_skipped) ]
       else [])
    @ [ ("mismatches", Json.Int r.total_mismatches);
      ("unexplained", Json.Int r.unexplained);
      ("ok", Json.Bool (ok r));
      ("failures", Json.List (List.map failure_to_json r.failures)) ])
