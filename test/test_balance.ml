(* Machine/loop balance and the unroll-amount search. *)

open Ujam_linalg
open Ujam_core
open Ujam_machine

let v = Vec.of_list

let test_machine_balance () =
  Alcotest.(check (float 1e-9)) "alpha" 1.0 (Machine.balance Presets.alpha);
  Alcotest.(check (float 1e-9)) "hppa (fma)" 0.5 (Machine.balance Presets.hppa);
  Alcotest.(check (float 1e-9)) "miss ratio" 24.0 (Machine.miss_ratio_cost Presets.alpha)

let test_machine_validation () =
  Alcotest.check_raises "bad associativity"
    (Invalid_argument
       "Machine.make: cache geometry (cache): size 100 is not a multiple of \
        line 4 * assoc 3")
    (fun () -> ignore (Machine.make ~name:"x" ~cache_size:100 ~associativity:3 ()));
  Alcotest.check_raises "bad geometry"
    (Invalid_argument
       "Machine.make: cache geometry (cache): size must be at least one line")
    (fun () -> ignore (Machine.make ~name:"x" ~cache_size:2 ~cache_line:4 ()))

let prepare ?(machine = Presets.alpha) ?(bounds = [| 4; 4; 0 |]) nest =
  Balance.prepare ~machine (Unroll_space.make ~bounds) nest

let test_flops_scale () =
  let nest = Ujam_kernels.Kernels.mmjki ~n:12 () in
  let b = prepare nest in
  Alcotest.(check int) "flops at origin" 2 (Balance.flops b (v [ 0; 0; 0 ]));
  Alcotest.(check int) "flops scale with copies" 24 (Balance.flops b (v [ 2; 3; 0 ]))

let test_memory_and_registers_from_tables () =
  let nest = Ujam_kernels.Kernels.mmjki ~n:12 () in
  let b = prepare nest in
  (* same numbers the brute force measures *)
  let machine = Presets.alpha in
  List.iter
    (fun u ->
      let u = v u in
      let m = Bruteforce.metrics ~machine nest u in
      Alcotest.(check int) "V_M" m.Bruteforce.memory_ops (Balance.memory_ops b u);
      Alcotest.(check int) "R" m.Bruteforce.registers (Balance.registers b u);
      Alcotest.(check (float 1e-9)) "misses" m.Bruteforce.misses (Balance.misses b u);
      Alcotest.(check (float 1e-9)) "beta cache" m.Bruteforce.balance_cache
        (Balance.loop_balance b ~cache:true u);
      Alcotest.(check (float 1e-9)) "beta nocache" m.Bruteforce.balance_nocache
        (Balance.loop_balance b ~cache:false u))
    [ [ 0; 0; 0 ]; [ 1; 0; 0 ]; [ 2; 3; 0 ]; [ 4; 4; 0 ] ]

let test_balance_improves_with_unrolling () =
  let nest = Ujam_kernels.Kernels.mmjki ~n:12 () in
  let b = prepare nest in
  let b0 = Balance.loop_balance b ~cache:false (v [ 0; 0; 0 ]) in
  let b1 = Balance.loop_balance b ~cache:false (v [ 2; 2; 0 ]) in
  Alcotest.(check bool) "unrolling lowers balance" true (b1 < b0)

let test_group_counts_exposed () =
  let nest = Ujam_kernels.Kernels.mmjki ~n:12 () in
  let b = prepare nest in
  let counts = Balance.group_counts b (v [ 1; 1; 0 ]) in
  Alcotest.(check int) "one entry per UGS" 3 (List.length counts);
  List.iter
    (fun (_, gt, gs) -> Alcotest.(check bool) "gs<=gt" true (gs <= gt))
    counts

let test_prefetch_hides_misses () =
  let nest = Ujam_kernels.Kernels.dmxpy0 ~n:12 () in
  let mk bw = Presets.generic ~prefetch_bandwidth:bw () in
  let space = Unroll_space.make ~bounds:[| 4; 0 |] in
  let beta bw =
    Balance.loop_balance
      (Balance.prepare ~machine:(mk bw) space nest)
      ~cache:true (v [ 0; 0 ])
  in
  Alcotest.(check bool) "bandwidth reduces cache balance" true (beta 1.0 < beta 0.0);
  (* with enough bandwidth, the cache model meets the all-hits model *)
  let b = Balance.prepare ~machine:(mk 10.0) space nest in
  Alcotest.(check (float 1e-9)) "fully hidden"
    (Balance.loop_balance b ~cache:false (v [ 0; 0 ]))
    (Balance.loop_balance b ~cache:true (v [ 0; 0 ]))

let test_search_respects_registers () =
  let nest = Ujam_kernels.Kernels.mmjki ~n:12 () in
  let machine = Machine.make ~name:"tiny" ~fp_registers:6 () in
  let b = Balance.prepare ~machine (Unroll_space.make ~bounds:[| 6; 6; 0 |]) nest in
  let c = Search.best ~cache:false b in
  Alcotest.(check bool) "register constraint" true (c.Search.registers <= 6)

let test_search_tie_breaks () =
  (* when the original loop is already balanced, keep it *)
  let nest = Ujam_kernels.Kernels.sor ~n:12 () in
  let machine = Presets.alpha in
  let b = Balance.prepare ~machine (Unroll_space.make ~bounds:[| 6; 0 |]) nest in
  let c = Search.best ~cache:false b in
  Alcotest.(check bool) "sor already balanced under all-hits" true
    (Vec.is_zero c.Search.u);
  (* the cache model sees the miss cost and unrolls *)
  let c' = Search.best ~cache:true b in
  Alcotest.(check bool) "cache model unrolls sor" true (not (Vec.is_zero c'.Search.u))

let test_search_agrees_with_bruteforce () =
  let machine = Presets.alpha in
  List.iter
    (fun name ->
      let e = Option.get (Ujam_kernels.Catalogue.find name) in
      let nest = e.Ujam_kernels.Catalogue.build ~n:12 () in
      let d = Ujam_ir.Nest.depth nest in
      let bounds = Array.make d 3 in
      bounds.(d - 1) <- 0;
      let space = Unroll_space.make ~bounds in
      let b = Balance.prepare ~machine space nest in
      let c = Search.best ~cache:true b in
      let u_bf, _ = Bruteforce.best ~cache:true ~machine space nest in
      Alcotest.(check bool)
        (Printf.sprintf "%s: table search == brute-force search" name)
        true (Vec.equal c.Search.u u_bf))
    [ "mmjki"; "mmjik"; "dmxpy0"; "dmxpy1"; "jacobi"; "sor"; "vpenta.7"; "btrix.1" ]

let prop_search_optimal =
  QCheck2.Test.make ~name:"search: result minimises the objective" ~count:40
    (Gen.nest_and_space_gen ~max_depth:2 ())
    (fun (nest, space) ->
      let machine = Presets.alpha in
      let b = Balance.prepare ~machine space nest in
      let best = Search.best ~cache:true b in
      let ok = ref true in
      Unroll_space.iter space (fun u ->
          let c = Search.evaluate ~cache:true b u in
          if c.Search.registers <= machine.Machine.fp_registers
             && c.Search.objective < best.Search.objective -. 1e-12
          then ok := false);
      !ok)

(* On a flat machine the synthesized L1 carries the machine's own line
   and miss cost, so the balance priced at level 1 is the cache balance:
   pointwise over the unroll space, and end to end as the same engine
   report from the ugs and ugs-l1 models, apart from the model name. *)
let test_level1_is_cache_balance () =
  let module Engine = Ujam_engine.Engine in
  List.iter
    (fun (machine : Machine.t) ->
      let l1 = List.hd (Machine.effective_levels machine) in
      List.iter
        (fun (e : Ujam_kernels.Catalogue.entry) ->
          let name = e.Ujam_kernels.Catalogue.name ^ "/" ^ machine.Machine.name in
          let nest = e.Ujam_kernels.Catalogue.build () in
          let ctx = Analysis_ctx.create ~bound:4 ~machine nest in
          let b = Analysis_ctx.balance ctx in
          Unroll_space.iter (Analysis_ctx.space ctx) (fun u ->
              Alcotest.(check (float 0.0))
                (name ^ " " ^ Vec.to_string u)
                (Balance.loop_balance b ~cache:true u)
                (Balance.loop_balance ~level:l1 b ~cache:false u));
          let json (r : Engine.nest_report) =
            Ujam_obs.Json.to_string
              (Engine.nest_outcome_to_json (Ok { r with Engine.model = "" }))
          in
          Alcotest.(check string) name
            (json (Gen.analyze_ok ~bound:8 ~machine nest))
            (json
               (Gen.analyze_ok ~bound:8 ~model:(Ujam_engine.Model.at_level 1)
                  ~machine nest)))
        Ujam_kernels.Catalogue.all)
    [ Presets.alpha; Presets.hppa; Presets.generic () ]

(* Deterministic allocation gate for table construction: a cold
   [Balance.prepare] over the first [alloc_gate_nests] nests of the
   pinned corpus (generator seed 1997) at bound 8.  Allocation, unlike
   wall time, is a pure function of the code and the input, so it can
   be gated exactly.  The class-key partition measures 2,135 minor words
   per cell here and the ceiling is that plus 25%; the representative
   scan it replaced (pairwise rational solves) measured 17,340, so a
   return to quadratic partitioning fails.  Wall time is not gated. *)
let alloc_gate_nests = 300
let alloc_gate_cells = 8214
let alloc_gate_ceiling = 2670.0

let test_prepare_allocation_gate () =
  Ujam_engine.Engine.memo_clear ();
  Ujam_ir.Canon.memo_clear ();
  let nests =
    Ujam_workload.Generator.corpus ~seed:1997 ~count:1187 ()
    |> List.concat_map (fun (r : Ujam_workload.Generator.routine) ->
           r.Ujam_workload.Generator.nests)
    |> List.filteri (fun i _ -> i < alloc_gate_nests)
  in
  let cells = ref 0 and words = ref 0.0 in
  List.iter
    (fun nest ->
      let ctx =
        Analysis_ctx.create ~bound:8 ~max_loops:2 ~machine:Presets.alpha nest
      in
      let space = Analysis_ctx.space ctx and groups = Analysis_ctx.ugs ctx in
      let w0 = Gc.minor_words () in
      ignore (Balance.prepare ~groups ~machine:Presets.alpha space nest);
      words := !words +. (Gc.minor_words () -. w0);
      cells := !cells + Unroll_space.card space)
    nests;
  Alcotest.(check int) "nests" alloc_gate_nests (List.length nests);
  Alcotest.(check int) "cells" alloc_gate_cells !cells;
  let per_cell = !words /. float_of_int !cells in
  if per_cell > alloc_gate_ceiling then
    Alcotest.failf "Balance.prepare: %.0f minor words per cell, ceiling %.0f"
      per_cell alloc_gate_ceiling

(* Deterministic end-to-end work and allocation gate: a cold
   [Engine.run_corpus] on one domain over the pinned 200-routine corpus
   (generator seed 1997) at bound 8, with the engine memo, the digest
   memo and the hash-consing tables cleared first.  Of its 307 nests,
   303 are analysed afresh ([engine.nests.ok]); the engine memo answers
   the other four.  Nest and cell counts are a pure function of the
   corpus and the unroll box, so they are pinned exactly, and the point
   classes of the table partitions may only fall.  The run measures
   74,626 minor words per nest (22,910,253 in all); the ceiling is that
   plus 5%.  Wall time is not gated. *)
let e2e_nests = 307
let e2e_fresh = 303
let e2e_cells = 8393
let e2e_classes_ceiling = 55184
let e2e_words_ceiling = 78357.0

let test_corpus_work_gate () =
  let module Engine = Ujam_engine.Engine in
  let module Obs = Ujam_obs.Obs in
  Engine.memo_clear ();
  Ujam_ir.Canon.memo_clear ();
  Ujam_ir.Hashcons.clear ();
  let routines = Ujam_workload.Generator.corpus ~seed:1997 ~count:200 () in
  let counters =
    List.map Obs.counter [ "engine.nests.ok"; "tables.cells"; "tables.classes" ]
  in
  let read () = List.map Obs.Counter.value counters in
  let was_enabled = Obs.enabled () in
  Obs.enable ();
  let before = read () in
  let w0 = Gc.minor_words () in
  let report =
    Engine.run_corpus ~domains:1 ~bound:8 ~machine:Presets.alpha routines
  in
  let words = Gc.minor_words () -. w0 in
  let after = read () in
  if not was_enabled then Obs.disable ();
  Obs.Span.clear ();
  let fresh, cells, classes =
    match List.map2 ( - ) after before with
    | [ a; b; c ] -> (a, b, c)
    | _ -> assert false
  in
  Alcotest.(check int) "nests ok" e2e_nests report.Engine.ok;
  Alcotest.(check int) "engine.nests.ok" e2e_fresh fresh;
  Alcotest.(check int) "tables.cells" e2e_cells cells;
  if classes > e2e_classes_ceiling then
    Alcotest.failf "tables.classes %d above the ceiling %d" classes
      e2e_classes_ceiling;
  let per_nest = words /. float_of_int e2e_nests in
  if per_nest > e2e_words_ceiling then
    Alcotest.failf "run_corpus: %.0f minor words per nest, ceiling %.0f"
      per_nest e2e_words_ceiling

let suite =
  [ Alcotest.test_case "machine balance" `Quick test_machine_balance;
    Alcotest.test_case "machine validation" `Quick test_machine_validation;
    Alcotest.test_case "flops scale" `Quick test_flops_scale;
    Alcotest.test_case "tables vs brute force metrics" `Quick
      test_memory_and_registers_from_tables;
    Alcotest.test_case "balance improves" `Quick test_balance_improves_with_unrolling;
    Alcotest.test_case "group counts" `Quick test_group_counts_exposed;
    Alcotest.test_case "prefetch" `Quick test_prefetch_hides_misses;
    Alcotest.test_case "register constraint" `Quick test_search_respects_registers;
    Alcotest.test_case "model choices differ on sor" `Quick test_search_tie_breaks;
    Alcotest.test_case "search == brute force" `Quick test_search_agrees_with_bruteforce;
    Gen.to_alcotest prop_search_optimal;
    Alcotest.test_case "level-1 balance is the cache balance" `Quick
      test_level1_is_cache_balance;
    Alcotest.test_case "prepare allocation gate (corpus, bound 8)" `Quick
      test_prepare_allocation_gate;
    Alcotest.test_case "corpus work and allocation gate (bound 8)" `Quick
      test_corpus_work_gate ]
