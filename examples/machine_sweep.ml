(* How the chosen unroll amounts react to the machine: sweep the
   register-file size and the miss penalty (the paper's future-work
   question about architectures with larger register sets).

   Run with: dune exec examples/machine_sweep.exe *)

open Ujam_linalg
open Ujam_engine

let choose ~machine nest =
  match Engine.analyze ~bound:8 ~machine nest with
  | Ok r -> r
  | Error e -> failwith (Error.to_string e)

let () =
  let nest = Ujam_kernels.Kernels.mmjki ~n:64 () in
  Format.printf "%a@.@." Ujam_ir.Nest.pp nest;

  Format.printf "register-file sweep (miss penalty fixed at 20):@.";
  Format.printf "%-6s %-10s %-8s %-10s %-10s@." "regs" "u" "R(u)" "beta_L" "V_M/V_F";
  List.iter
    (fun fp_registers ->
      let machine = Ujam_machine.Presets.generic ~fp_registers () in
      let r = choose ~machine nest in
      Format.printf "%-6d %-10s %-8d %-10.3f %d/%d@." fp_registers
        (Vec.to_string r.Engine.u) r.Engine.registers r.Engine.balance_after
        r.Engine.memory_ops r.Engine.flops)
    [ 8; 16; 32; 64; 128 ];

  Format.printf "@.miss-penalty sweep (32 registers):@.";
  Format.printf "%-8s %-10s %-10s@." "penalty" "u" "beta_L";
  List.iter
    (fun miss_penalty ->
      let machine = Ujam_machine.Presets.generic ~miss_penalty () in
      let r = choose ~machine nest in
      Format.printf "%-8d %-10s %-10.3f@." miss_penalty
        (Vec.to_string r.Engine.u) r.Engine.balance_after)
    [ 0; 5; 10; 20; 40; 80 ]
