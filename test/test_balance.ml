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
      test_level1_is_cache_balance ]
