(* The benchmark's entry point: one workload, one seed, one result line.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--quick]

   prints human-readable lines, then as its last line one JSON object
   with the keys correct, attempted, failed and metrics.  With
   --trace 0 the metrics are the end-to-end ones; with --trace 1 the
   run also re-drives every item through the layers with spans and the
   metrics are the per-layer ones.  --quick shrinks every input;
   --self-test runs selftest.ml. *)

let workloads = [ "corpus-b4"; "corpus-b8"; "serve-mix"; "oracle" ]

let run_workload ~workload ~seed ~seconds ~trace ~quick =
  match (workload, trace) with
  | "corpus-b4", false -> (Wl_corpus.run ~bound:4 ~seed ~seconds ~quick).Wl_corpus.report
  | "corpus-b8", false -> (Wl_corpus.run ~bound:8 ~seed ~seconds ~quick).Wl_corpus.report
  | "corpus-b4", true -> Wl_corpus.trace ~bound:4 ~seed ~seconds ~quick
  | "corpus-b8", true -> Wl_corpus.trace ~bound:8 ~seed ~seconds ~quick
  | "serve-mix", false -> (Wl_serve.run ~seed ~seconds ~quick).Wl_serve.report
  | "oracle", false -> (Wl_oracle.run ~seed ~seconds ~quick).Wl_oracle.report
  | "serve-mix", true -> Wl_serve.trace ~seed ~seconds ~quick
  | "oracle", true -> Wl_oracle.trace ~seed ~seconds ~quick
  | w, _ -> invalid_arg ("unknown workload " ^ w)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and quick = ref false and self_test = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, " one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measuring time");
      ("--trace", Arg.Set_int trace, " 1 for the traced per-layer run");
      ("--quick", Arg.Set quick, " tiny inputs");
      ("--self-test", Arg.Set self_test, " run the benchmark's own checks") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !self_test then begin
    let traced_run ~workload ~seed ~seconds = run_workload ~workload ~seed ~seconds ~trace:true ~quick:true in
    exit (if Selftest.run ~traced_run workloads then 0 else 1)
  end;
  if not (List.mem !workload workloads) then begin
    prerr_endline ("unknown workload " ^ !workload);
    exit 2
  end;
  let trace = !trace = 1 in
  let r =
    try run_workload ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace ~quick:!quick
    with e ->
      prerr_endline ("perfbench: " ^ Printexc.to_string e);
      exit 1
  in
  Report.print ~names:(if trace then Report.per_layer else Report.end_to_end) r
