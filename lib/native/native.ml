open Ujam_ir
open Ujam_engine
module Interp = Ujam_sim.Interp
module Obs = Ujam_obs.Obs

let m_compiles = Obs.counter "native.compiles"
let m_runs = Obs.counter "native.runs"
let m_variants = Obs.counter "native.variants"

type outcome = {
  vname : string;
  seconds : float;
  checksums : (string * float) list;
}

type unit_outcomes = { uname : string; outcomes : outcome list }

let default_tolerance = 1e-9

(* ---- compile & run ----------------------------------------------------- *)

let with_temp_dir f =
  let dir = Filename.temp_file "ujc-native" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      (try Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir)
       with Sys_error _ -> ());
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () -> f dir)

let write_file file text =
  let oc = open_out_bin file in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc text)

(* RESULT <unit> <variant> <seconds> <array>=<checksum> ... with floats
   in %h form, which float_of_string round-trips exactly. *)
let parse_results text =
  let parse_line line =
    match String.split_on_char ' ' (String.trim line) with
    | "RESULT" :: uname :: vname :: secs :: pairs ->
        let checksums =
          List.filter_map
            (fun p ->
              match String.index_opt p '=' with
              | Some i ->
                  Some
                    ( String.sub p 0 i,
                      float_of_string
                        (String.sub p (i + 1) (String.length p - i - 1)) )
              | None -> None)
            pairs
        in
        Some (uname, { vname; seconds = float_of_string secs; checksums })
    | _ -> None
  in
  let rows =
    List.filter_map parse_line (String.split_on_char '\n' text)
  in
  (* group by unit, preserving first-appearance order *)
  let order = ref [] in
  let tbl : (string, outcome list ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (u, o) ->
      match Hashtbl.find_opt tbl u with
      | Some l -> l := o :: !l
      | None ->
          Hashtbl.add tbl u (ref [ o ]);
          order := u :: !order)
    rows;
  List.rev_map
    (fun u -> { uname = u; outcomes = List.rev !(Hashtbl.find tbl u) })
    !order

let run_units ?drop_last_stmt tc units =
  let text = Emit.program ?drop_last_stmt units in
  with_temp_dir (fun dir ->
      let src = Filename.concat dir "prog.ml" in
      let exe = Filename.concat dir "prog.exe" in
      write_file src text;
      Obs.Counter.add m_compiles 1;
      match Toolchain.compile tc ~src ~exe with
      | Error _ as e -> e
      | Ok () -> (
          Obs.Counter.add m_runs 1;
          match Toolchain.run_exe exe with
          | Error _ as e -> e
          | Ok out ->
              let results = parse_results out in
              let expect =
                List.fold_left
                  (fun acc u -> acc + List.length u.Emit.variants)
                  0 units
              in
              let got =
                List.fold_left (fun acc u -> acc + List.length u.outcomes) 0
                  results
              in
              Obs.Counter.add m_variants got;
              if got <> expect then
                Error
                  (Printf.sprintf
                     "native program reported %d variants, expected %d" got
                     expect)
              else Ok results))

(* ---- interpreter-side reference ---------------------------------------- *)

let reference (spec : Emit.unit_spec) =
  let boxes = Emit.unit_layout spec in
  List.map
    (fun (v : Emit.variant) ->
      let store = Interp.run ~seed:spec.Emit.seed v.Emit.nest in
      let arrays = Nest.arrays v.Emit.nest in
      let sums =
        List.filter_map
          (fun (b, box) ->
            if not (List.mem b arrays) then None
            else begin
              let acc = ref 0.0 in
              Emit.box_iter box (fun idx ->
                  acc :=
                    !acc
                    +. (Interp.final_value store b idx
                       *. Interp.cell_weight b idx));
              Some (b, !acc)
            end)
          boxes
      in
      (v.Emit.vname, sums))
    spec.Emit.variants

(* ---- equivalence ------------------------------------------------------- *)

type diff = { array_name : string; native : float; expected : float }

type equivalence = {
  vname : string;
  max_rel_err : float;
  diffs : diff list;
}

let rel_err a b = Float.abs (a -. b) /. Float.max 1.0 (Float.abs b)

let equivalences ?(tol = default_tolerance) spec (res : unit_outcomes) =
  let refs = reference spec in
  List.map
    (fun (vname, expected) ->
      match
        List.find_opt
          (fun (o : outcome) -> String.equal o.vname vname)
          res.outcomes
      with
      | None ->
          { vname;
            max_rel_err = Float.infinity;
            diffs =
              List.map
                (fun (b, e) -> { array_name = b; native = Float.nan; expected = e })
                expected }
      | Some o ->
          let diffs, worst =
            List.fold_left
              (fun (ds, worst) (b, e) ->
                match List.assoc_opt b o.checksums with
                | None ->
                    ( { array_name = b; native = Float.nan; expected = e } :: ds,
                      Float.infinity )
                | Some n ->
                    let err = rel_err n e in
                    let ds =
                      if err > tol then
                        { array_name = b; native = n; expected = e } :: ds
                      else ds
                    in
                    (ds, Float.max worst err))
              ([], 0.0) expected
          in
          { vname; max_rel_err = worst; diffs = List.rev diffs })
    refs

(* ---- the engine hook --------------------------------------------------- *)

type choice_check = {
  name : string;
  u : Ujam_linalg.Vec.t;
  clamped : bool;
  equivalent : bool;
  max_rel_err : float;
  seconds_original : float;
  seconds_transformed : float;
  measured_speedup : float;
}

let check_choice ?(repeats = 3) ?(seed = Interp.default_seed) ?tol tc nest
    chosen =
  let routine = Nest.name nest in
  Error.guard ~stage:Error.Native ~routine (fun () ->
      let u = Unroll.clamp_divisible nest chosen in
      let clamped = not (Ujam_linalg.Vec.equal u chosen) in
      let transformed = Unroll.unroll_and_jam nest u in
      let spec =
        { Emit.uname = "choice";
          seed;
          repeats;
          variants =
            [ { Emit.vname = "orig"; nest };
              { Emit.vname = "unrolled"; nest = transformed } ] }
      in
      match run_units tc [ spec ] with
      | Error msg -> failwith msg
      | Ok [ res ] ->
          let eqs = equivalences ?tol spec res in
          let find v =
            match
              List.find_opt
                (fun (o : outcome) -> String.equal o.vname v)
                res.outcomes
            with
            | Some o -> o
            | None -> failwith ("missing native result for " ^ v)
          in
          let t_orig = (find "orig").seconds in
          let t_unrolled = (find "unrolled").seconds in
          { name = routine;
            u;
            clamped;
            equivalent = List.for_all (fun (e : equivalence) -> e.diffs = []) eqs;
            max_rel_err =
              List.fold_left
                (fun m (e : equivalence) -> Float.max m e.max_rel_err)
                0.0 eqs;
            seconds_original = t_orig;
            seconds_transformed = t_unrolled;
            measured_speedup =
              (if t_unrolled > 0.0 then t_orig /. t_unrolled else 1.0) }
      | Ok _ -> failwith "native program returned wrong unit count")
