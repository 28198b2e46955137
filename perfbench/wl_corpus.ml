(* corpus-b4 / corpus-b8: cold Engine.run_corpus over the pinned
   1187-routine corpus, one routine per call so each routine has a
   latency, engine and digest memos cleared before every slice. *)

open Ujam_linalg
open Ujam_core
module Engine = Ujam_engine.Engine
module Json = Ujam_obs.Json
module G = Ujam_workload.Generator
module Canon = Ujam_ir.Canon

let machine = Ujam_machine.Presets.alpha
let max_loops = 2

(* The corpus is ROADMAP's pinned one (generator seed 1997, 1187
   routines, 1823 nests); the workload seed permutes the routine order,
   which re-cuts the slices and with them which routines share a cold
   memo.  A freshly seeded corpus would move the routine mix, and with
   it throughput by several percent, from seed to seed. *)
let corpus_seed = 1997

(* About 50-70 ms of work per slice on a 2-core x86-64 VM at either
   bound, so a calibration loop runs several times a second. *)
let per_slice = function 4 -> 33 | _ -> 11

let generate ~count ~seed () =
  let c = Array.of_list (G.corpus ~seed:corpus_seed ~count ()) in
  Array.map (fun i -> c.(i)) (Stats.permutation ~seed (Array.length c))

let outcome_json o = Json.to_string (Engine.nest_outcome_to_json o)

type run = {
  report : Report.t;
  memo_hits : int;  (** engine memo, first pass *)
  memo_misses : int;
  summary : Calib.summary;
  routines : G.routine array;
  answers : Engine.nest_outcome list array;  (** first pass, per routine *)
}

let recount_sample = function 4 -> 24 | _ -> 8

let run ~bound ~seed ~seconds ~quick : run =
  let count = if quick then 40 else 1187 in
  let setup, routines =
    Calib.repeat_setup ~per_group:4 ~reps:(if quick then 3 else Calib.setup_reps) (generate ~count ~seed)
  in
  let n = Array.length routines in
  let results = Array.make n None in
  let reference = Array.make n "" in
  let answers = Array.make n [] in
  let attempted = ref 0 and failed = ref 0 in
  let memo_hits = ref 0 and memo_misses = ref 0 in
  (* The memo's counters run from process start: a slice counts the
     difference across it. *)
  let memo0 = ref (Engine.memo_stats ()) in
  let slices = Calib.cut ~per:(if quick then 10 else per_slice bound) n in
  let check ~pass i =
    let r = Option.get results.(i) in
    let nests = r.Engine.routines.(0).Engine.nests in
    attempted := !attempted + List.length nests;
    List.iter (function Ok _ -> () | Error _ -> incr failed) nests;
    let s = String.concat "\n" (List.map outcome_json nests) in
    if pass = 0 then begin
      reference.(i) <- s;
      answers.(i) <- nests
    end
    else if s <> reference.(i) then incr failed
  in
  let w =
    { Calib.slices;
      n_items = n;
      before_pass = ignore;
      before_slice =
        (fun _ ->
          Engine.memo_clear ();
          Canon.memo_clear ();
          memo0 := Engine.memo_stats ());
      run_item =
        (fun i ->
          results.(i) <-
            Some (Engine.run_corpus ~domains:1 ~bound ~max_loops ~machine [ routines.(i) ]));
      after_slice =
        (fun ~pass j ->
          if pass = 0 then begin
            let m = Engine.memo_stats () in
            memo_hits := !memo_hits + m.Ujam_engine.Result_cache.hits - !memo0.Ujam_engine.Result_cache.hits;
            memo_misses := !memo_misses + m.Ujam_engine.Result_cache.misses - !memo0.Ujam_engine.Result_cache.misses
          end;
          Array.iter (check ~pass) slices.(j));
      words = Gc.minor_words }
  in
  let s = Calib.summarize w (Calib.measure ~seconds w) in
  (* Tables vs. a materialised unroll on a seeded sample of nests,
     outside the timed slices. *)
  let all_nests = Array.of_list (List.concat_map (fun r -> r.G.nests) (Array.to_list routines)) in
  let k = min (Array.length all_nests) (recount_sample bound) in
  let pick = Stats.permutation ~seed:(seed + 1) (Array.length all_nests) in
  let recount_bad = ref 0 in
  for i = 0 to k - 1 do
    match Ujam_oracle.Recount.check ~bound ~max_loops ~machine all_nests.(pick.(i)) with
    | [] -> ()
    | _ -> incr recount_bad
    | exception _ -> incr recount_bad
  done;
  attempted := !attempted + k;
  failed := !failed + !recount_bad;
  let speedups =
    Array.to_list answers
    |> List.concat_map (List.filter_map (function Ok r -> Some r.Engine.speedup | Error _ -> None))
  in
  let geo = Stats.geomean speedups in
  let nests = Array.length all_nests in
  Report.note "corpus-b%d: %d routines, %d nests (corpus seed %d, order seed %d)" bound n nests corpus_seed seed;
  Report.note "corpus_routines_per_s %.2f calibrated, %.2f raw; per-routine latency p50 %.3f ms, p%d %.3f ms over %d routines"
    s.Calib.items_per_s s.Calib.raw_items_per_s s.Calib.p50_ms s.Calib.tail_pct s.Calib.tail_ms s.Calib.latency_samples;
  Report.note "alloc_words_per_item %.1f; modelled_speedup_geomean %.6f over %d nests; setup_s %.5f (raw %.5f, %d reps)"
    s.Calib.words_per_item geo (List.length speedups) setup.Calib.setup_s setup.Calib.setup_raw_s setup.Calib.reps;
  Report.note "recount sample: %d/%d nests agree; failed_share %.4f (%d of %d)" (k - !recount_bad) k
    (float_of_int !failed /. float_of_int (max 1 !attempted)) !failed !attempted;
  Report.calib_lines s;
  { report = Report.result ~attempted:!attempted ~failed:!failed s (Report.base_metrics s setup ~geomean:geo);
    memo_hits = !memo_hits;
    memo_misses = !memo_misses;
    summary = s;
    routines;
    answers }

(* ---- traced re-drive ------------------------------------------------- *)

(* One nest through the pipeline's public entry points, in the order
   Engine.analyze forces them, then the table sub-stages of
   Balance.prepare re-run one by one so their split can be checked
   against the whole. *)
let redrive ~bound ~id nest =
  let sp name f = Spans.with_ name ~id f in
  let u, cells, ctx =
    sp "trace.nest" (fun () ->
        ignore (sp "ir.digest" (fun () -> Canon.digest_uncached nest));
        let ctx = Analysis_ctx.create ~bound ~max_loops ~machine nest in
        ignore (sp "depend.graph" (fun () -> Analysis_ctx.graph ctx));
        ignore (sp "depend.safety" (fun () -> Analysis_ctx.safety ctx));
        ignore (sp "reuse.ugs" (fun () -> Analysis_ctx.ugs ctx));
        ignore (sp "reuse.rank" (fun () -> Analysis_ctx.ranked ctx));
        let space = sp "core.space" (fun () -> Analysis_ctx.space ctx) in
        let balance = sp "core.prepare" (fun () -> Analysis_ctx.balance ctx) in
        let choice = sp "core.search" (fun () -> Search.best ~cache:true balance) in
        (choice.Search.u, Unroll_space.card space, ctx))
  in
  sp "trace.split" (fun () ->
      let space = Analysis_ctx.space ctx in
      let d = Ujam_ir.Nest.depth nest in
      let localized = Subspace.span_dims ~dim:d [ d - 1 ] in
      let groups = Analysis_ctx.ugs ctx in
      let line = machine.Ujam_machine.Machine.cache_line in
      ignore (sp "core.rrs" (fun () -> Rrs.summary_tables ~groups space ~localized nest));
      List.iter
        (fun g ->
          ignore (sp "core.locality" (fun () -> Ujam_reuse.Locality.ugs_cost ~line ~localized g));
          ignore (sp "core.gts" (fun () -> Tables.gts_exact_table space ~localized g));
          ignore (sp "core.gss" (fun () -> Tables.gss_exact_table space ~localized g)))
        groups);
  (u, cells)

(* Substage split tolerance: the four table sub-stages re-run one by
   one must add up to Balance.prepare within this share. *)
let substage_tolerance = 0.15

let trace ~bound ~seed ~seconds ~quick =
  let base = run ~bound ~seed ~seconds ~quick in
  let nests = Array.concat (Array.to_list (Array.map (fun r -> Array.of_list r.G.nests) base.routines)) in
  let n = Array.length nests in
  Spans.reset ();
  Ujam_obs.Obs.enable ();
  Ujam_obs.Obs.reset ();
  (* Per nest: a cold Engine.analyze as the end-to-end span, then the
     re-drive untraced and traced back to back, so the overhead is
     measured under the same machine conditions. *)
  let plain = ref 0.0 and traced = ref 0.0 in
  let matched = ref 0 and cells = ref 0 in
  Array.iteri
    (fun id nest ->
      Engine.memo_clear ();
      let outcome, _ = Spans.timed ~on:true (fun () -> Spans.with_ "engine.analyze" ~id (fun () -> Engine.analyze ~bound ~max_loops ~machine nest)) in
      let _, dt = Spans.timed ~on:false (fun () -> try Some (redrive ~bound ~id nest) with _ -> None) in
      plain := !plain +. dt;
      let r, dt = Spans.timed ~on:true (fun () -> try Some (redrive ~bound ~id nest) with _ -> None) in
      traced := !traced +. dt;
      match (r, outcome) with
      | Some (u, c), Ok a ->
          cells := !cells + c;
          if Vec.equal u a.Engine.u then incr matched
      | None, Error _ -> incr matched
      | _ -> ())
    nests;
  let pruned = Ujam_obs.Obs.Histogram.summary (Ujam_obs.Obs.histogram "search.pruned_cells") in
  Ujam_obs.Obs.disable ();
  let tbl = Spans.layers () in
  let get = Spans.find tbl in
  let sum f ls = List.fold_left (fun acc l -> acc +. f (get l)) 0.0 ls in
  let self_s x = x.Spans.self_s and self_words x = x.Spans.self_words in
  let sub_share = sum self_s [ "core.rrs"; "core.gts"; "core.gss"; "core.locality" ] /. (get "core.prepare").Spans.self_s in
  (* Only the traced copy of the re-drive records spans, so each layer
     counts once per nest; engine.analyze is the end-to-end span. *)
  let pipeline = [ "ir.digest"; "depend.graph"; "depend.safety"; "reuse.ugs"; "reuse.rank"; "core.space"; "core.prepare"; "core.search" ] in
  let e2e = get "engine.analyze" in
  let overhead = (!traced -. !plain) /. !plain in
  let sub_ok = Float.abs (sub_share -. 1.0) <= substage_tolerance in
  Report.note "trace: %d nests re-driven; u matches Engine.analyze on %d/%d" n !matched n;
  Report.note "trace: table sub-stages sum to %.3f of core.prepare (tolerance %.2f) -> %s" sub_share substage_tolerance
    (if sub_ok then "ok" else "OUT OF TOLERANCE");
  Report.note "trace: re-drive %.3fs untraced, %.3fs traced, overhead %.3f" !plain !traced overhead;
  let failed = base.report.Report.failed + (n - !matched) + if sub_ok then 0 else 1 in
  let prepare = get "core.prepare" in
  { Report.correct = failed = 0;
    attempted = base.report.Report.attempted + n + 1;
    failed;
    metrics =
      base.report.Report.metrics
      @ Report.layer_metrics tbl
      @ [ ("engine.other_s", e2e.Spans.self_s -. sum self_s pipeline);
          ("engine.other_calls", float_of_int e2e.Spans.calls);
          ("engine.other_words", e2e.Spans.self_words -. sum self_words pipeline);
          ("engine.memo_hit_ratio", float_of_int base.memo_hits /. float_of_int (max 1 (base.memo_hits + base.memo_misses)));
          ("core.cells", float_of_int !cells);
          ("core.prepare_words_per_cell", prepare.Spans.self_words /. float_of_int (max 1 !cells));
          ("core.search_pruned_ratio",
            float_of_int pruned.Ujam_obs.Obs.Histogram.count *. pruned.Ujam_obs.Obs.Histogram.mean /. float_of_int (max 1 !cells));
          ("trace.overhead_share", overhead);
          ("trace.u_match_share", float_of_int !matched /. float_of_int (max 1 n));
          ("trace.substage_sum_share", sub_share) ] }
