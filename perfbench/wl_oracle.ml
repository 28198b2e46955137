(* oracle: Fuzz.run over generated nests with the recount, sim, verify
   and cachepred layers, shrinking off, one domain, one nest per call
   so each nest has a latency.  The cross-model layer is left out: its
   brute-force reference takes most of a default fuzz run and would
   hide every other layer. *)

module Fuzz = Ujam_oracle.Fuzz
module G = Ujam_workload.Generator
module Engine = Ujam_engine.Engine
module Nest = Ujam_ir.Nest

let layers = [ Fuzz.Recount; Fuzz.Sim; Fuzz.Verify; Fuzz.Cachepred ]
let base_cfg = { (Fuzz.default_config ()) with Fuzz.n = 1; shrink = false; domains = 1; layers }
let machine = base_cfg.Fuzz.machine
let bound = base_cfg.Fuzz.bound
let max_loops = base_cfg.Fuzz.max_loops

(* The pool is fixed: the first [pool_size] fuzz seeds from 1 whose
   first drawn nest is checkable, so [Fuzz.run] with [n = 1] checks
   exactly that nest.  Per-nest cost spans two orders of magnitude, and
   a pool drawn afresh from each workload seed would move throughput by
   tens of percent; the workload seed orders the pool instead. *)
let pool_size = 120
let per_slice = 3

let first_nest s =
  let r = G.routine (Random.State.make [| s |]) 0 in
  match r.G.nests with n :: _ when Nest.depth n <= base_cfg.Fuzz.max_depth -> Some n | _ -> None

let generate ~size ~seed () =
  let rec collect s acc k =
    if k = size then List.rev acc
    else match first_nest s with Some n -> collect (s + 1) ((s, n) :: acc) (k + 1) | None -> collect (s + 1) acc k
  in
  let pool = Array.of_list (collect 1 [] 0) in
  Array.map (fun i -> pool.(i)) (Stats.permutation ~seed (Array.length pool))

type run = { report : Report.t; summary : Calib.summary; pool : (int * Nest.t) array }

let run ~seed ~seconds ~quick : run =
  let size = if quick then 12 else pool_size in
  let setup, pool = Calib.repeat_setup ~per_group:16 ~reps:(if quick then 3 else Calib.setup_reps) (generate ~size ~seed) in
  let n = Array.length pool in
  let reports = Array.make n None in
  let attempted = ref 0 and failed = ref 0 in
  let slices = Calib.cut ~per:(if quick then 4 else per_slice) n in
  let check i =
    incr attempted;
    match reports.(i) with
    | Some r when Fuzz.ok r && r.Fuzz.nests = 1 -> ()
    | _ -> incr failed
  in
  let w =
    { Calib.slices;
      n_items = n;
      before_pass = ignore;
      before_slice =
        (fun _ ->
          Engine.memo_clear ();
          Ujam_ir.Canon.memo_clear ());
      run_item =
        (fun i ->
          reports.(i) <-
            (try Some (Fuzz.run { base_cfg with Fuzz.seed = fst pool.(i) }) with _ -> None));
      after_slice = (fun ~pass:_ j -> Array.iter check slices.(j));
      words = Gc.minor_words }
  in
  (* One untimed round first: the layers fill process-wide memo tables
     on first use, which would otherwise make the first pass allocate
     more than later ones. *)
  Array.iter (fun (seed, _) -> ignore (Fuzz.run { base_cfg with Fuzz.seed })) pool;
  let s = Calib.summarize w (Calib.measure ~seconds w) in
  let speedups =
    Array.to_list pool
    |> List.filter_map (fun (_, nest) ->
           match Engine.analyze ~bound ~max_loops ~machine nest with
           | Ok r -> Some r.Engine.speedup
           | Error _ -> None)
  in
  let geo = Stats.geomean speedups in
  Report.note "oracle: %d nests per pass (fuzz seeds from 1), layers recount,sim,verify,cachepred, bound %d" n bound;
  Report.note "oracle_nests_per_s %.3f calibrated, %.3f raw; per-nest latency p50 %.3f ms, p%d %.3f ms over %d nests"
    s.Calib.items_per_s s.Calib.raw_items_per_s s.Calib.p50_ms s.Calib.tail_pct s.Calib.tail_ms s.Calib.latency_samples;
  Report.note "alloc_words_per_item %.1f; modelled_speedup_geomean %.6f over %d nests; setup_s %.6f (raw %.6f)"
    s.Calib.words_per_item geo (List.length speedups) setup.Calib.setup_s setup.Calib.setup_raw_s;
  Report.note "failed_share %.4f (%d of %d nest checks)" (float_of_int !failed /. float_of_int (max 1 !attempted)) !failed
    !attempted;
  Report.calib_lines s;
  { report = Report.result ~attempted:!attempted ~failed:!failed s (Report.base_metrics s setup ~geomean:geo);
    summary = s;
    pool }

(* ---- traced run --------------------------------------------------------- *)

(* The layers Fuzz.run calls for one nest, each under its own span;
   then every unroll vector of the nest's space materialised and
   scalar-replaced again, the work the recount and sim layers do
   inside. *)
let redrive ~id nest =
  let sp name f = Spans.with_ name ~id f in
  let ok = ref true in
  sp "trace.nest" (fun () ->
      if sp "oracle.recount" (fun () -> Ujam_oracle.Recount.check ~bound ~max_loops ~machine nest) <> [] then ok := false;
      ignore (sp "oracle.simcheck" (fun () -> Ujam_oracle.Simcheck.check ~bound ~max_loops ~machine nest));
      sp "oracle.verify" (fun () ->
          let ctx = Ujam_core.Analysis_ctx.create ~bound ~max_loops ~machine nest in
          let graph = Ujam_core.Analysis_ctx.graph ctx in
          Ujam_core.Unroll_space.iter (Ujam_core.Analysis_ctx.space ctx) (fun u ->
              match Ujam_analysis.Passes.apply_seq ~graph nest [ Ujam_ir.Transform.Unroll u ] with
              | Ok _ -> ()
              | Error _ -> ok := false));
      ignore (sp "oracle.cachepred" (fun () -> Ujam_oracle.Cachepred.check ~machine nest)));
  sp "trace.unroll" (fun () ->
      let ctx = Ujam_core.Analysis_ctx.create ~bound ~max_loops ~machine nest in
      Ujam_core.Unroll_space.iter (Ujam_core.Analysis_ctx.space ctx) (fun u ->
          let unrolled = sp "ir.unroll" (fun () -> Ujam_ir.Unroll.unroll_and_jam nest u) in
          ignore
            (sp "core.scalar_replace" (fun () ->
                 Ujam_core.Scalar_replace.apply unrolled (Ujam_core.Scalar_replace.plan unrolled)))));
  !ok

let trace ~seed ~seconds ~quick =
  let base = run ~seed ~seconds ~quick in
  Spans.reset ();
  Ujam_obs.Obs.enable ();
  Ujam_obs.Obs.reset ();
  (* Per nest: Fuzz.run as the end-to-end span, then the re-drive
     untraced and traced back to back. *)
  let plain = ref 0.0 and traced = ref 0.0 and bad = ref 0 in
  let accesses = Ujam_obs.Obs.counter "sim.cache.accesses" and simulated = ref 0 in
  Array.iteri
    (fun id (seed, nest) ->
      Engine.memo_clear ();
      let a0 = Ujam_obs.Obs.Counter.value accesses in
      ignore (Spans.timed ~on:true (fun () -> Spans.with_ "fuzz.run" ~id (fun () -> Fuzz.run { base_cfg with Fuzz.seed })));
      simulated := !simulated + Ujam_obs.Obs.Counter.value accesses - a0;
      let _, dt = Spans.timed ~on:false (fun () -> try redrive ~id nest with _ -> false) in
      plain := !plain +. dt;
      let ok, dt = Spans.timed ~on:true (fun () -> try redrive ~id nest with _ -> false) in
      traced := !traced +. dt;
      if not ok then incr bad)
    base.pool;
  Ujam_obs.Obs.disable ();
  let tbl = Spans.layers () in
  let get = Spans.find tbl in
  let n = Array.length base.pool in
  let layers = [ "oracle.recount"; "oracle.simcheck"; "oracle.verify"; "oracle.cachepred" ] in
  let sum f = List.fold_left (fun acc l -> acc +. f (get l)) 0.0 layers in
  let e2e = get "fuzz.run" in
  let overhead = (!traced -. !plain) /. !plain in
  Report.note "trace: %d nests re-driven, %d with a failing layer; %d simulated cache accesses in Fuzz.run" n !bad !simulated;
  Report.note "trace: re-drive %.3fs untraced, %.3fs traced, overhead %.3f" !plain !traced overhead;
  let failed = base.report.Report.failed + !bad in
  { Report.correct = failed = 0;
    attempted = base.report.Report.attempted + n;
    failed;
    metrics =
      base.report.Report.metrics
      @ Report.layer_metrics tbl
      @ [ ("engine.other_s", e2e.Spans.self_s -. sum (fun x -> x.Spans.self_s));
          ("engine.other_calls", float_of_int e2e.Spans.calls);
          ("engine.other_words", e2e.Spans.self_words -. sum (fun x -> x.Spans.self_words));
          ("sim.cache_accesses", float_of_int !simulated);
          ("trace.overhead_share", overhead) ] }
