(* Walk through the Wolf-Lam reuse machinery on two stencils, and show
   why successive over-relaxation only profits from unroll-and-jam when
   the balance model sees the cache (the sor bars of Figures 8/9).

   Run with: dune exec examples/stencil_locality.exe *)

open Ujam_linalg
open Ujam_core
open Ujam_reuse
module Engine = Ujam_engine.Engine
module Model = Ujam_engine.Model

let describe nest =
  let d = Ujam_ir.Nest.depth nest in
  let localized = Subspace.span_dims ~dim:d [ d - 1 ] in
  let vn = Ujam_ir.Nest.var_name nest in
  Format.printf "--- %s ---@.%a@." (Ujam_ir.Nest.name nest) Ujam_ir.Nest.pp nest;
  List.iter
    (fun (g : Ugs.t) ->
      Format.printf "@.UGS %s with H =@.%a@." g.Ugs.base Mat.pp g.Ugs.h;
      Format.printf "self-temporal space: %a@." Subspace.pp (Selfreuse.self_temporal g.Ugs.h);
      Format.printf "self-spatial space:  %a@." Subspace.pp (Selfreuse.self_spatial g.Ugs.h);
      let gts = Groups.group_temporal ~localized g in
      Format.printf "group-temporal sets (innermost-localized): %d@." (Groups.count gts);
      List.iteri
        (fun i cls ->
          Format.printf "  GTS %d: %s@." i
            (String.concat ", "
               (List.map
                  (fun (s : Ujam_ir.Site.t) ->
                    Format.asprintf "%a" (Ujam_ir.Site.pp ~var_name:vn) s)
                  cls)))
        gts.Groups.classes;
      let cost = Locality.ugs_cost ~line:4 ~localized g in
      Format.printf "Equation 1: g_T=%d g_S=%d stream=%a -> %.3f accesses/iteration@."
        cost.Locality.g_t cost.Locality.g_s Locality.pp_stream cost.Locality.stream
        cost.Locality.accesses)
    (Ugs.of_nest nest)

let () =
  describe (Ujam_kernels.Kernels.jacobi ~n:64 ());
  Format.printf "@.";
  describe (Ujam_kernels.Kernels.sor ~n:64 ());

  (* sor: the no-cache model thinks the loop is already balanced; the
     cache model sees the miss cost and unrolls. *)
  let machine = Ujam_machine.Presets.alpha in
  let nest = Ujam_kernels.Kernels.sor () in
  List.iter
    (fun cache ->
      let model : (module Model.MODEL) =
        if cache then (module Model.Ugs_tables) else (module Model.No_cache)
      in
      let r =
        match Engine.analyze ~bound:6 ~model ~machine nest with
        | Ok r -> r
        | Error e -> failwith (Ujam_engine.Error.to_string e)
      in
      let transformed =
        Ujam_ir.Transform.apply_exn (Ujam_ir.Transform.Unroll r.Engine.u) nest
      in
      let plan = Scalar_replace.plan transformed in
      let before = Ujam_sim.Runner.run ~machine nest in
      let after = Ujam_sim.Runner.run ~machine ~plan transformed in
      Format.printf
        "@.sor with %s model: beta_L(0)=%.2f -> chose u=%a, simulated normalized \
         time %.3f@."
        (if cache then "cache" else "no-cache")
        r.Engine.balance_before Vec.pp r.Engine.u
        (Ujam_sim.Runner.normalized ~baseline:before after))
    [ false; true ]
