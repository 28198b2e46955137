(* serve-mix: an in-process serve daemon (one worker) and one blocking
   client on a Unix socket, replaying a seeded stream of inline nests. *)

module Engine = Ujam_engine.Engine
module Result_cache = Ujam_engine.Result_cache
module Json = Ujam_obs.Json
module Serve = Ujam_serve.Serve
module Protocol = Ujam_serve.Protocol
module Canon = Ujam_ir.Canon
module Nest = Ujam_ir.Nest
module Parse = Ujam_ir.Parse
module G = Ujam_workload.Generator

let machine = Ujam_machine.Presets.alpha
let bound = 4
let max_loops = 2

(* No recorded traffic of the daemon exists, so the stream borrows the
   shape of the repo's own serve load test (bench/main.ml, [serve]):
   rounds of distinct requests sent cold, each followed by a replay of
   the identical set.  A round holds [round] distinct requests, the
   size of one phase there (4 clients x 24 requests).  The pool is
   every nest of the pinned corpus, sent as text in a seeded order;
   each pool nest carries one analysis method, optimize, explain and
   lint in turn by its place in the pinned corpus (an assumption:
   nothing says how often each is asked).  After the verbatim replay,
   a round's optimize requests are replayed once more with their loop
   variables renamed, the same problem spelled differently.  Only
   optimize is renamed: its answer does not name loops, while explain
   and lint diagnostics do, and the daemon's cache, keyed by the
   alpha-invariant digest, answers a renamed explain or lint with the
   first spelling's loop names.  The cache hit share follows from this
   shape (four hits in every seven requests); it is not tuned.

   The 1823 distinct problems of a pass overflow the daemon's
   1024-entry cache, so every cold request of a later pass misses
   again: since its last use at least 1823 - [round] other problems
   were stored. *)
let round = 96
let per_slice = 150

type meth = Optimize | Explain | Lint

type request = {
  meth : meth;
  name : string;
  text : string;
  line : string;  (** the request as sent, without newline *)
}

let method_name = function Optimize -> "optimize" | Explain -> "explain" | Lint -> "lint"

(* Loop variables renamed LV0..LVd-1: the same problem, spelled
   differently. *)
let alpha_rename nest =
  Nest.with_loops nest
    (Array.map (fun (l : Ujam_ir.Loop.t) -> { l with Ujam_ir.Loop.var = Printf.sprintf "LV%d" l.Ujam_ir.Loop.level }) (Nest.loops nest))

type pool = { names : string array; nests : Nest.t array; texts : string array; meths : meth array }

let make_pool ~count =
  let corpus = G.corpus ~seed:Wl_corpus.corpus_seed ~count () in
  let items =
    List.concat_map
      (fun (r : G.routine) -> List.mapi (fun k n -> (Printf.sprintf "%s.%d" r.G.name k, n)) r.G.nests)
      corpus
  in
  { names = Array.of_list (List.map fst items);
    nests = Array.of_list (List.map snd items);
    texts = Array.of_list (List.map (fun (_, n) -> Nest.to_string n) items);
    meths = Array.of_list (List.mapi (fun i _ -> [| Optimize; Explain; Lint |].(i mod 3)) items) }

let request pool ~id ~alpha idx =
  let meth = pool.meths.(idx) and name = pool.names.(idx) in
  let text = if alpha then Nest.to_string (alpha_rename pool.nests.(idx)) else pool.texts.(idx) in
  let line =
    Json.to_string
      (Json.Obj
         [ ("id", Json.Int id);
           ("method", Json.Str (method_name meth));
           ("params", Json.Obj [ ("nest", Json.Str text); ("name", Json.Str name) ]) ])
  in
  { meth; name; text; line }

let make_stream ~seed pool =
  let order = Stats.permutation ~seed (Array.length pool.nests) in
  let rounds = Calib.cut ~per:round (Array.length order) in
  let phases ids =
    let cold = Array.map (fun j -> (order.(j), false)) ids in
    let renamed = List.filter (fun (idx, _) -> pool.meths.(idx) = Optimize) (Array.to_list cold) in
    Array.concat [ cold; cold; Array.of_list (List.map (fun (idx, _) -> (idx, true)) renamed) ]
  in
  Array.concat (Array.to_list (Array.map phases rounds))
  |> Array.mapi (fun id (idx, alpha) -> request pool ~id ~alpha idx)

let generate ~count ~seed () =
  let pool = make_pool ~count in
  (pool, make_stream ~seed pool)

(* The answer the daemon must give, computed directly: [None] when the
   direct call itself fails (the request then counts as failed). *)
let direct r =
  match Parse.nest ~name:r.name r.text with
  | Error _ -> None
  | Ok nest -> (
      match r.meth with
      | Optimize -> (
          match Engine.analyze ~bound ~max_loops ~machine ~routine:r.name nest with
          | Ok _ as o -> Some (Engine.nest_outcome_to_json o)
          | Error _ -> None)
      | Explain ->
          Some (Ujam_analysis.Explain.to_json (Ujam_analysis.Explain.run ~bound ~max_loops ~machine nest))
      | Lint ->
          let diags = Ujam_analysis.Lint.run ~bound ~max_loops ~machine nest in
          let e, w, i = Ujam_analysis.Diagnostic.count diags in
          Some
            (Json.Obj
               [ ("nest", Json.Str r.name);
                 ("diagnostics", Json.List (List.map Ujam_analysis.Diagnostic.to_json diags));
                 ("errors", Json.Int e);
                 ("warnings", Json.Int w);
                 ("infos", Json.Int i) ]))

(* ---- the daemon --------------------------------------------------------- *)

type daemon = { domain : Serve.summary Domain.t; client : Serve.Client.t }

(* One daemon serves the whole run; between passes only the engine
   and digest memos are emptied (the overflowing pool empties the
   daemon's cache).  Restarting it after every slice, with its cache
   persisted through [cache_file], crashed the process (SIGSEGV) three
   times in about forty runs. *)
let socket = Printf.sprintf ".perfbench-%d.sock" (Unix.getpid ())

let start () =
  let cfg = { (Serve.default_config ~machine ()) with Serve.quiet = true; domains = 1 } in
  let domain = Domain.spawn (fun () -> Serve.run ~listen:socket cfg) in
  { domain; client = Serve.Client.connect ~retries:1000 socket }

let rpc d line =
  Serve.Client.send_line d.client line;
  Serve.Client.recv_line d.client

let cache_stats d =
  match rpc d "{\"id\":\"m\",\"method\":\"metrics\"}" with
  | None -> None
  | Some line -> (
      match Json.of_string line with
      | Error _ -> None
      | Ok j -> (
          let field o k = match Option.bind o (Json.member k) with Some (Json.Int v) -> v | _ -> 0 in
          let cache = Option.bind (Json.member "result" j) (Json.member "cache") in
          match cache with None -> None | Some _ -> Some (field cache "hits", field cache "misses", field cache "evictions")))

let stop d =
  ignore (rpc d "{\"id\":\"bye\",\"method\":\"shutdown\"}");
  Serve.Client.close d.client;
  ignore (Domain.join d.domain)

let clear_memos () =
  Engine.memo_clear ();
  Canon.memo_clear ()

(* Minor words of both domains: a forced minor collection brings the
   daemon's sampled counters up to date. *)
let words () =
  Gc.minor ();
  (Gc.quick_stat ()).Gc.minor_words

type run = {
  report : Report.t;
  summary : Calib.summary;
  stream : request array;
  expected : Json.t option array;
}

let cleanup () = if Sys.file_exists socket then Sys.remove socket

let run ~seed ~seconds ~quick : run =
  at_exit cleanup;
  let count = if quick then 40 else 1187 in
  let setup, (pool, stream) = Calib.repeat_setup ~reps:(if quick then 3 else Calib.setup_reps) (generate ~count ~seed) in
  let n = Array.length stream in
  (* Every pool nest must survive the text round trip unchanged. *)
  let roundtrip_bad = ref 0 in
  Array.iteri
    (fun i text ->
      match Parse.nest ~name:pool.names.(i) text with
      | Ok back when Canon.digest back = Canon.digest pool.nests.(i) -> ()
      | _ -> incr roundtrip_bad)
    pool.texts;
  Engine.memo_clear ();
  let memo = Hashtbl.create 4096 in
  let expected =
    Array.map
      (fun r ->
        let key = (r.meth, r.name, r.text) in
        match Hashtbl.find_opt memo key with
        | Some e -> e
        | None ->
            let e = direct r in
            Hashtbl.add memo key e;
            e)
      stream
  in
  let responses = Array.make n None in
  let attempted = ref 0 and failed = ref 0 in
  let daemon = start () in
  let slices = Calib.cut ~per:(if quick then 50 else per_slice) n in
  let check i =
    incr attempted;
    let want =
      Option.map (fun p -> Protocol.response_of_payload ~id:(Json.Int i) ~ok:true p) expected.(i)
    in
    match (responses.(i), want) with
    | Some got, Some want when got = want -> ()
    | _ -> incr failed
  in
  let w =
    { Calib.slices;
      n_items = n;
      before_pass = (fun _ -> clear_memos ());
      before_slice = ignore;
      run_item = (fun i -> responses.(i) <- rpc daemon stream.(i).line);
      after_slice = (fun ~pass:_ j -> Array.iter check slices.(j));
      words }
  in
  let s = Calib.summarize w (Calib.measure ~seconds w) in
  stop daemon;
  cleanup ();
  attempted := !attempted + Array.length pool.texts;
  failed := !failed + !roundtrip_bad;
  (* One answer per optimize pool nest: which nests carry optimize is
     fixed by the pinned corpus, so the guard does not move with the
     seed. *)
  let answers = Hashtbl.create 2048 in
  Array.iteri
    (fun i r ->
      match (r.meth, expected.(i)) with
      | Optimize, Some j when not (Hashtbl.mem answers r.name) -> (
          match Json.member "speedup" j with Some (Json.Float f) -> Hashtbl.add answers r.name f | _ -> ())
      | _ -> ())
    stream;
  let speedups = Hashtbl.fold (fun _ f acc -> f :: acc) answers [] in
  let geo = Stats.geomean speedups in
  let distinct = Hashtbl.length memo in
  Report.note "serve-mix: %d requests per pass (%d distinct requests) over %d pool nests; 1 worker, 1 client" n distinct
    (Array.length pool.nests);
  Report.note "serve_requests_per_s %.2f calibrated, %.2f raw; serve_p50_ms %.4f (raw %.4f), serve_p%d_ms %.4f (raw %.4f) over %d requests"
    s.Calib.items_per_s s.Calib.raw_items_per_s s.Calib.p50_ms s.Calib.raw_p50_ms s.Calib.tail_pct s.Calib.tail_ms
    s.Calib.raw_tail_ms s.Calib.latency_samples;
  Report.note "alloc_words_per_item %.1f (both domains); modelled_speedup_geomean %.6f over %d distinct optimizes; setup_s %.5f (raw %.5f)"
    s.Calib.words_per_item geo (List.length speedups) setup.Calib.setup_s setup.Calib.setup_raw_s;
  Report.note "round trip: %d/%d pool nests parse back to the same digest; failed_share %.4f (%d of %d)"
    (Array.length pool.texts - !roundtrip_bad) (Array.length pool.texts)
    (float_of_int !failed /. float_of_int (max 1 !attempted)) !failed !attempted;
  Report.calib_lines s;
  { report = Report.result ~attempted:!attempted ~failed:!failed s (Report.base_metrics s setup ~geomean:geo);
    summary = s;
    stream;
    expected }

(* ---- traced run --------------------------------------------------------- *)

type kind = Hit | Miss | Other

(* One pass with a fresh daemon kept up throughout.  Each request is
   first re-driven through the parse and digest the daemon performs,
   untraced and then traced (on private copies: the daemon's interning
   tables are shared in-process and must not be warmed), then sent
   under a span.  A local LRU of the daemon's capacity, fed the
   daemon's own keys, labels each optimize a hit or a miss; its hit
   count must equal the daemon's.  The cache and memo counters are
   read before and after the pass, and only the difference counts. *)
let traced_pass stream =
  let d = start () in
  clear_memos ();
  let cache0 = cache_stats d and memo0 = Engine.memo_stats () in
  let model = Result_cache.create ~capacity:(Serve.default_config ()).Serve.cache_size () in
  let n = Array.length stream in
  let kinds = Array.make n Other and lat = Array.make n 0.0 in
  let model_hits = ref 0 and bad = ref 0 in
  let plain = ref 0.0 and traced = ref 0.0 in
  let redrive ~id r =
    match Spans.with_ "ir.parse" ~id (fun () -> Parse.nest ~name:r.name r.text) with
    | Error _ -> None
    | Ok nest ->
        ignore (Spans.with_ "ir.digest" ~id (fun () -> Canon.digest_uncached nest));
        Some nest
  in
  Array.iteri
    (fun i r ->
      (* alternate which copy goes first: the first pays for cold caches *)
      let untraced () =
        let _, dt = Spans.timed ~on:false (fun () -> redrive ~id:i r) in
        plain := !plain +. dt
      in
      if i mod 2 = 0 then untraced ();
      let parsed, dt = Spans.timed ~on:true (fun () -> redrive ~id:i r) in
      traced := !traced +. dt;
      if i mod 2 = 1 then untraced ();
      match parsed with
      | None -> incr bad
      | Some nest ->
          let key =
            Result_cache.fingerprint ~op:(method_name r.meth) ~machine ~bound ~max_loops ~model:"ugs" ~seq:false
              ~extra:r.name nest
          in
          let hit = Result_cache.find model key <> None in
          if hit then incr model_hits else Result_cache.store model key ();
          if r.meth = Optimize then kinds.(i) <- (if hit then Hit else Miss);
          let resp, dt = Spans.timed ~on:true (fun () -> Spans.with_ "serve.request" ~id:i (fun () -> rpc d r.line)) in
          lat.(i) <- dt;
          if resp = None then incr bad)
    stream;
  let memo1 = Engine.memo_stats () in
  let stats =
    match (cache0, cache_stats d) with
    | Some (h0, m0, e0), Some (h1, m1, e1) -> Some (h1 - h0, m1 - m0, e1 - e0)
    | _ -> None
  in
  let memo = (memo1.Result_cache.hits - memo0.Result_cache.hits, memo1.Result_cache.misses - memo0.Result_cache.misses) in
  stop d;
  (kinds, lat, !model_hits, stats, memo, !bad, !plain, !traced)

let trace ~seed ~seconds ~quick =
  let base = run ~seed ~seconds ~quick in
  let stream = base.stream in
  let n = Array.length stream in
  Spans.reset ();
  let kinds, lat, model_hits, stats, (memo_hits, memo_misses), bad, plain, traced = traced_pass stream in
  cleanup ();
  let tbl = Spans.layers () in
  let get = Spans.find tbl in
  let p50_of pred =
    let xs = List.filter_map (fun i -> if pred i then Some lat.(i) else None) (List.init n Fun.id) in
    if xs = [] then 0.0 else 1000.0 *. Stats.median (Array.of_list xs)
  in
  let hits, misses, evictions = Option.value stats ~default:(-1, -1, -1) in
  let agree = hits = model_hits in
  let redriven = (get "ir.parse").Spans.self_s +. (get "ir.digest").Spans.self_s in
  let request = get "serve.request" in
  let overhead = (traced -. plain) /. (plain +. request.Spans.self_s) in
  Report.note "trace: %d requests; daemon cache %d hits, %d misses, %d evictions; local LRU model %d hits -> %s" n hits
    misses evictions model_hits
    (if agree then "agree" else "DISAGREE");
  Report.note "trace: engine memo %d hits, %d misses during the pass" memo_hits memo_misses;
  Report.note "trace: parse+digest re-drive %.3fs untraced, %.3fs traced; requests %.3fs; overhead %.3f" plain traced
    request.Spans.self_s overhead;
  let failed = base.report.Report.failed + bad + if agree then 0 else 1 in
  { Report.correct = failed = 0;
    attempted = base.report.Report.attempted + n + 1;
    failed;
    metrics =
      base.report.Report.metrics
      @ Report.layer_metrics tbl
      @ [ ("engine.other_s", request.Spans.self_s -. redriven);
          ("engine.other_calls", float_of_int request.Spans.calls);
          ("engine.other_words", request.Spans.self_words);
          ("engine.memo_hit_ratio", float_of_int memo_hits /. float_of_int (max 1 (memo_hits + memo_misses)));
          ("serve.cache_hit_ratio", float_of_int hits /. float_of_int (max 1 (hits + misses)));
          ("serve.evictions", float_of_int evictions);
          ("serve.hit_p50_ms", p50_of (fun i -> kinds.(i) = Hit));
          ("serve.miss_p50_ms", p50_of (fun i -> kinds.(i) = Miss));
          ("serve.explain_p50_ms", p50_of (fun i -> stream.(i).meth = Explain));
          ("trace.overhead_share", overhead) ] }
