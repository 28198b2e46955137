(* The balance model's prefetch term (Sec. 3.2): as prefetch-issue
   bandwidth grows, unserviced misses shrink and the cache model
   converges to the all-hits model.

   Run with: dune exec examples/software_prefetch.exe *)

open Ujam_linalg
open Ujam_core
open Ujam_engine

let () =
  let nest = Ujam_kernels.Kernels.dmxpy0 ~n:64 () in
  Format.printf "%a@.@." Ujam_ir.Nest.pp nest;
  Format.printf "%-10s %-10s %-12s %-12s@." "pf/cycle" "u" "beta_L" "misses/iter";
  List.iter
    (fun prefetch_bandwidth ->
      let machine = Ujam_machine.Presets.generic ~prefetch_bandwidth () in
      let r =
        match Engine.analyze ~bound:8 ~machine nest with
        | Ok r -> r
        | Error e -> failwith (Error.to_string e)
      in
      (* The report carries the choice; misses come from the same tables. *)
      let balance =
        Analysis_ctx.balance (Analysis_ctx.create ~bound:8 ~machine nest)
      in
      Format.printf "%-10.2f %-10s %-12.3f %-12.3f@." prefetch_bandwidth
        (Vec.to_string r.Engine.u) r.Engine.balance_after
        (Balance.misses balance r.Engine.u
        /. Vec.fold (fun acc x -> float_of_int (x + 1) *. acc) 1.0 r.Engine.u))
    [ 0.0; 0.05; 0.1; 0.25; 0.5; 1.0 ]
