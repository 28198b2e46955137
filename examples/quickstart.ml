(* Quickstart: write a loop nest with the builder DSL, let the library
   pick unroll amounts for a machine, and look at the result.

   Run with: dune exec examples/quickstart.exe *)

open Ujam_core
open Ujam_engine

let () =
  (* A matrix-matrix multiply in JKI order, written with the DSL.  The
     innermost loop I walks the contiguous (first, column-major)
     subscript of C and A. *)
  let n = 64 in
  let nest =
    let open Ujam_ir.Build in
    let d = 3 in
    let j = var d 0 and k = var d 1 and i = var d 2 in
    nest "matmul-jki"
      [ loop d "J" ~level:0 ~lo:1 ~hi:n ();
        loop d "K" ~level:1 ~lo:1 ~hi:n ();
        loop d "I" ~level:2 ~lo:1 ~hi:n () ]
      [ aref "C" [ i; j ] <<- rd "C" [ i; j ] +: (rd "A" [ i; k ] *: rd "B" [ k; j ]) ]
  in
  Format.printf "=== input ===@.%a@.@." Ujam_ir.Nest.pp nest;

  (* Choose unroll amounts for an Alpha-like machine: balance the loop
     (memory ops per flop, including miss costs) against the machine. *)
  let machine = Ujam_machine.Presets.alpha in
  let report =
    match Engine.analyze ~bound:6 ~machine nest with
    | Ok r -> r
    | Error e -> failwith (Error.to_string e)
  in
  (* The engine only chooses u; applying it is the caller's step. *)
  let transformed =
    Ujam_ir.Transform.apply_exn (Ujam_ir.Transform.Unroll report.Engine.u) nest
  in
  let plan = Scalar_replace.plan transformed in
  Format.printf "=== decision ===@.%a@.@." (Engine.pp_report ~machine ~plan)
    report;

  Format.printf "=== after unroll-and-jam ===@.%a@.@." Ujam_ir.Nest.pp
    transformed;
  Format.printf "=== after scalar replacement ===@.%a@.@." Ujam_ir.Nest.pp
    (Scalar_replace.apply transformed plan);

  (* Check the prediction against the cache + CPU simulator. *)
  let before = Ujam_sim.Runner.run ~machine nest in
  let after = Ujam_sim.Runner.run ~machine ~plan transformed in
  Format.printf "=== simulation ===@.before: %a@.after:  %a@.speedup: %.2fx@."
    Ujam_sim.Runner.pp before Ujam_sim.Runner.pp after
    (before.Ujam_sim.Runner.cycles /. after.Ujam_sim.Runner.cycles)
