(* Metric names, units and the one-line JSON result. *)

(* Every workload reports every end-to-end metric.  An "item" is a
   routine on the corpus workloads, a request on serve-mix and a
   checked nest on oracle. *)
let end_to_end =
  [ ("items_per_s", "1/s");
    ("latency_p50_ms", "ms");
    ("latency_tail_ms", "ms");
    ("alloc_words_per_item", "words");
    ("modelled_speedup_geomean", "x");
    ("setup_s", "s") ]

(* Layers timed by spans: each gives [<name>_s], [<name>_calls] and
   [<name>_words] (self time, calls, self minor words). *)
let timed_layers =
  [ "workload.generate"; "ir.parse"; "ir.digest"; "depend.graph";
    "depend.safety"; "reuse.ugs"; "reuse.rank"; "core.space";
    "core.prepare"; "core.rrs"; "core.gts"; "core.gss"; "core.locality";
    "core.search"; "ir.unroll"; "core.scalar_replace"; "oracle.recount";
    "oracle.simcheck"; "oracle.verify"; "oracle.cachepred"; "engine.other" ]

let counters =
  [ ("engine.memo_hit_ratio", "ratio");
    ("serve.cache_hit_ratio", "ratio");
    ("serve.evictions", "count");
    ("serve.hit_p50_ms", "ms");
    ("serve.miss_p50_ms", "ms");
    ("serve.explain_p50_ms", "ms");
    ("core.cells", "count");
    ("core.prepare_words_per_cell", "words");
    ("core.search_pruned_ratio", "ratio");
    ("sim.cache_accesses", "count");
    ("trace.overhead_share", "ratio");
    ("trace.u_match_share", "ratio");
    ("trace.substage_sum_share", "ratio");
    ("calib.raw_spread", "ratio");
    ("calib.ratio_spread", "ratio");
    ("calib.swing", "ratio");
    ("calib.jitter", "ratio");
    ("calib.loop_spread", "ratio");
    ("calib.corr", "ratio");
    ("calib.response", "ratio");
    ("workload.raw_items_per_s", "1/s") ]

let per_layer =
  List.concat_map
    (fun l -> [ (l ^ "_s", "s"); (l ^ "_calls", "count"); (l ^ "_words", "words") ])
    timed_layers
  @ counters

type t = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
}

let note fmt = Printf.printf (fmt ^^ "\n%!")

(* The last line of standard output: the names given by [names], in
   order, each with its unit; a name the workload did not measure reads
   0 (its layer was not exercised).  JSON has no NaN: a value that could
   not be computed also reads 0, and a line above the result says so. *)
let print ~names r =
  List.iter
    (fun (name, _) ->
      match List.assoc_opt name r.metrics with
      | Some v when not (Float.is_finite v) -> note "%s: not measured (%g), printed as 0" name v
      | _ -> ())
    names;
  let finite x = if Float.is_finite x then x else 0.0 in
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    r.correct r.attempted r.failed;
  List.iteri
    (fun i (name, unit_) ->
      let v = Option.value (List.assoc_opt name r.metrics) ~default:0.0 in
      Printf.bprintf b "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}"
        (if i = 0 then "" else ", ")
        name (finite v) unit_)
    names;
  Buffer.add_string b "}}";
  print_endline (Buffer.contents b)

let measured x = if Float.is_finite x then Printf.sprintf "%.2f" x else "not measured"

let calib_lines (s : Calib.summary) =
  note "calibration: %d slices over %d passes; slice-time spread %.3f raw, %.3f calibrated" s.Calib.n_samples
    s.Calib.passes s.Calib.raw_spread s.Calib.ratio_spread;
  note "calibration check: workload swing %.3f (shifted from %.3f: %.2f, or %.1f x jitter %.3f); loop spread %.3f (flat below %.2f x swing); response %s, corr %s -> %s"
    s.Calib.swing (Float.max Calib.quiet (Calib.jitter_factor *. s.Calib.jitter)) Calib.quiet Calib.jitter_factor
    s.Calib.jitter s.Calib.loop_spread Calib.min_move (measured s.Calib.response) (measured s.Calib.corr)
    (if s.Calib.tracks then "ok" else "LOOP STAYED FLAT")

(* A workload's result: its own checks plus the calibration self-check,
   which counts as one more attempted check and fails the run when the
   loop stayed flat while the workload shifted. *)
let result ~attempted ~failed (s : Calib.summary) metrics =
  let failed = failed + if s.Calib.tracks then 0 else 1 in
  { correct = failed = 0; attempted = attempted + 1; failed; metrics }

(* The metrics every untraced run measures: the end-to-end ones, the
   set-up layer and the calibration self-check. *)
let base_metrics (s : Calib.summary) (setup : Calib.setup) ~geomean =
  [ ("items_per_s", s.Calib.items_per_s);
    ("latency_p50_ms", s.Calib.p50_ms);
    ("latency_tail_ms", s.Calib.tail_ms);
    ("alloc_words_per_item", s.Calib.words_per_item);
    ("modelled_speedup_geomean", geomean);
    ("setup_s", setup.Calib.setup_s);
    ("workload.generate_s", setup.Calib.setup_raw_s);
    ("workload.generate_calls", 1.0);
    ("workload.generate_words", setup.Calib.setup_words);
    ("calib.raw_spread", s.Calib.raw_spread);
    ("calib.ratio_spread", s.Calib.ratio_spread);
    ("calib.swing", s.Calib.swing);
    ("calib.jitter", s.Calib.jitter);
    ("calib.loop_spread", s.Calib.loop_spread);
    ("calib.corr", s.Calib.corr);
    ("calib.response", s.Calib.response);
    ("workload.raw_items_per_s", s.Calib.raw_items_per_s) ]

let layer_metrics tbl =
  List.concat_map
    (fun l ->
      match Hashtbl.find_opt tbl l with
      | None -> []
      | Some (x : Spans.layer) ->
          [ (l ^ "_s", x.Spans.self_s);
            (l ^ "_calls", float_of_int x.Spans.calls);
            (l ^ "_words", x.Spans.self_words) ])
    timed_layers
