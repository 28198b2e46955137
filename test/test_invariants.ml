(* Cross-cutting invariants of the analysis stack, checked on random
   separable-SIV nests. *)

open Ujam_linalg
open Ujam_ir
open Ujam_core

let innermost d = Subspace.span_dims ~dim:d [ d - 1 ]

let copies u = Vec.fold (fun acc x -> acc * (x + 1)) 1 u

let prop_group_counts_monotone =
  QCheck2.Test.make ~name:"invariant: group counts grow pointwise with u" ~count:60
    ~print:(fun (n, _) -> Gen.nest_print n)
    (Gen.nest_and_space_gen ())
    (fun (nest, space) ->
      let d = Nest.depth nest in
      let localized = innermost d in
      let groups = Ujam_reuse.Ugs.of_nest nest in
      let ok = ref true in
      Unroll_space.iter space (fun u ->
          Unroll_space.iter space (fun v ->
              if Vec.leq_pointwise u v then
                List.iter
                  (fun g ->
                    if
                      Tables.gts_exact space ~localized g u
                      > Tables.gts_exact space ~localized g v
                      || Tables.gss_exact space ~localized g u
                         > Tables.gss_exact space ~localized g v
                    then ok := false)
                  groups));
      !ok)

let prop_gs_le_gt_after_unroll =
  QCheck2.Test.make ~name:"invariant: g_S <= g_T at every unroll vector" ~count:60
    (Gen.nest_and_space_gen ())
    (fun (nest, space) ->
      let d = Nest.depth nest in
      let localized = innermost d in
      let groups = Ujam_reuse.Ugs.of_nest nest in
      let ok = ref true in
      Unroll_space.iter space (fun u ->
          List.iter
            (fun g ->
              if
                Tables.gss_exact space ~localized g u
                > Tables.gts_exact space ~localized g u
              then ok := false)
            groups);
      !ok)

let prop_memory_bounded =
  QCheck2.Test.make
    ~name:"invariant: V_M(u) <= V_M(0) * copies and <= sites * copies" ~count:60
    (Gen.nest_and_space_gen ())
    (fun (nest, space) ->
      let d = Nest.depth nest in
      let localized = innermost d in
      let mem = Rrs.memory_table space ~localized nest in
      let v0 = Unroll_space.Table.get mem (Vec.zero d) in
      let sites = List.length (Site.of_nest nest) in
      let ok = ref true in
      Unroll_space.iter space (fun u ->
          let v = Unroll_space.Table.get mem u in
          if v > v0 * copies u || v > sites * copies u then ok := false);
      !ok)

let prop_registers_at_least_streams =
  QCheck2.Test.make ~name:"invariant: registers >= streams >= V_M" ~count:60
    (Gen.nest_and_space_gen ())
    (fun (nest, space) ->
      let d = Nest.depth nest in
      let localized = innermost d in
      let ok = ref true in
      Unroll_space.iter space (fun u ->
          let s =
            Streams.summarize (Streams.of_nest_unrolled space ~localized nest u)
          in
          if
            s.Streams.registers < s.Streams.streams
            || s.Streams.streams < s.Streams.memory_ops
          then ok := false);
      !ok)

let prop_unroll_composes =
  QCheck2.Test.make ~name:"invariant: unrolling composes multiplicatively" ~count:60
    ~print:Gen.nest_print (Gen.nest_gen ())
    (fun nest ->
      let d = Nest.depth nest in
      if d < 2 then true
      else begin
        let level = 0 in
        let u1 = Vec.set (Vec.zero d) level 1 in
        let u2 = Vec.set (Vec.zero d) level 2 in
        let both = Vec.set (Vec.zero d) level 5 in
        (* (1+1)*(2+1) = 6 copies either way, in the same order *)
        String.equal
          (Nest.to_string (Unroll.unroll_and_jam (Unroll.unroll_and_jam nest u1) u2))
          (Nest.to_string (Unroll.unroll_and_jam nest both))
      end)

let prop_safety_innermost_zero =
  QCheck2.Test.make ~name:"invariant: innermost never unrollable" ~count:60
    (Gen.nest_gen ()) (fun nest ->
      let g = Ujam_depend.Graph.build ~include_input:false nest in
      let b = Ujam_depend.Safety.max_safe_unroll g in
      b.(Array.length b - 1) = 0)

let prop_driver_never_worse =
  QCheck2.Test.make ~name:"invariant: driver never worsens the model objective"
    ~count:40 (Gen.nest_gen ~max_depth:2 ())
    (fun nest ->
      let machine = Ujam_machine.Presets.alpha in
      let r = Gen.analyze_ok ~bound:3 ~machine nest in
      r.Ujam_engine.Engine.objective
      <= Float.abs
           (r.Ujam_engine.Engine.balance_before
           -. Ujam_machine.Machine.balance machine)
         +. 1e-12)

let prop_interp_deterministic =
  QCheck2.Test.make ~name:"invariant: interpreter is deterministic" ~count:40
    (Gen.nest_gen ()) (fun nest ->
      Ujam_sim.Interp.equal (Ujam_sim.Interp.run nest) (Ujam_sim.Interp.run nest))

let suite =
  [ Gen.to_alcotest prop_group_counts_monotone;
    Gen.to_alcotest prop_gs_le_gt_after_unroll;
    Gen.to_alcotest prop_memory_bounded;
    Gen.to_alcotest prop_registers_at_least_streams;
    Gen.to_alcotest prop_unroll_composes;
    Gen.to_alcotest prop_safety_innermost_zero;
    Gen.to_alcotest prop_driver_never_worse;
    Gen.to_alcotest prop_interp_deterministic ]
