(* The benchmark's own checks, on tiny inputs (main.exe --self-test):
   the exact counts repeat across two runs in one process, and another
   seed gives other inputs.  run.py --self-test adds the check that
   every metric BENCHMARK.json names is printed with its unit. *)

let quick_seconds = 0.2

(* Digest of the inputs a workload generates from [seed]. *)
let inputs ~workload ~seed =
  let concat xs = Digest.to_hex (Digest.string (String.concat "\n" xs)) in
  match workload with
  | "corpus-b4" | "corpus-b8" ->
      concat (Array.to_list (Array.map (fun r -> r.Ujam_workload.Generator.name) (Wl_corpus.generate ~count:40 ~seed ())))
  | "serve-mix" ->
      let _, stream = Wl_serve.generate ~count:40 ~seed () in
      concat (Array.to_list (Array.map (fun r -> r.Wl_serve.line) stream))
  | _ -> concat (Array.to_list (Array.map (fun (s, _) -> string_of_int s) (Wl_oracle.generate ~size:12 ~seed ())))

let exact = [ "alloc_words_per_item"; "modelled_speedup_geomean"; "core.cells" ]

(* Serve and oracle allocation are held to this relative tolerance.
   Oracle allocation is exact between fresh processes, but process-wide
   weak memo tables outlive a run inside one; serve allocation counts
   the daemon's domain, which is sampled at collections and wakes on
   its own timeouts, and moves by about 0.05% even between processes. *)
let alloc_tolerance = 1e-3

let repeats ~workload m x y =
  x = y
  || m = "alloc_words_per_item"
     && (workload = "serve-mix" || workload = "oracle")
     && Float.abs (x -. y) <= alloc_tolerance *. Float.abs x

let run ~traced_run workloads =
  let failures = ref 0 in
  let check name ok detail =
    Printf.printf "%s %s%s\n%!" (if ok then "ok  " else "FAIL") name (if detail = "" then "" else ": " ^ detail);
    if not ok then incr failures
  in
  List.iter
    (fun workload ->
      let once () = traced_run ~workload ~seed:1 ~seconds:quick_seconds in
      let a = once () and b = once () in
      check (workload ^ " correct") (a.Report.correct && b.Report.correct)
        (Printf.sprintf "%d and %d failed" a.Report.failed b.Report.failed);
      List.iter
        (fun m ->
          match (List.assoc_opt m a.Report.metrics, List.assoc_opt m b.Report.metrics) with
          | Some x, Some y ->
              check (Printf.sprintf "%s %s repeats" workload m) (repeats ~workload m x y)
                (Printf.sprintf "%.17g vs %.17g" x y)
          | None, None -> ()
          | _ -> check (Printf.sprintf "%s %s repeats" workload m) false "missing in one run")
        exact;
      let d1 = inputs ~workload ~seed:1 and d1' = inputs ~workload ~seed:1 and d2 = inputs ~workload ~seed:2 in
      check (workload ^ " inputs follow the seed") (d1 = d1' && d1 <> d2) (Printf.sprintf "seed 1 %s, seed 2 %s" d1 d2))
    workloads;
  !failures = 0
