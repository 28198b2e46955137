(* Calibrated timing.

   Wall time on a small shared VM swings by tens of percent in
   plateaus lasting seconds, and the swings live in the allocation and
   memory path: a compute-only loop stays flat while a cold corpus
   pass slows by a third.  So every timed slice of a workload is
   followed by a calibration loop that churns only the minor heap
   (nothing it allocates survives a minor collection), and a slice's
   time is rescaled by the calibration time around it.  Calibrated
   seconds read as "seconds on a machine where one calibration loop
   takes exactly [ref_s]".

   The loop uses no program code and touches no program data, so a
   change to the program cannot change the yardstick. *)

let now = Unix.gettimeofday

(* Nominal duration of one calibration loop, close to its measured
   duration on a 2-core x86-64 VM so calibrated figures read like
   wall-clock ones.  It is a constant: comparing two commits needs the
   same yardstick on both. *)
let ref_s = 0.006
let iterations = 80_000
let sink = ref 0

let churn () =
  let acc = ref 0 in
  for i = 1 to iterations do
    let cells = List.init 8 (fun k -> (i lxor k, float_of_int k)) in
    acc :=
      List.fold_left (fun a (x, f) -> a + (x land 0xff) + int_of_float f) !acc cells
  done;
  sink := !sink lxor !acc

let calibrate () =
  let t0 = now () in
  churn ();
  now () -. t0

(* ---- repeated set-up ------------------------------------------------- *)

type setup = {
  setup_s : float;  (** median calibrated seconds of one set-up *)
  setup_raw_s : float;  (** median raw seconds *)
  setup_words : float;  (** minor words of one set-up *)
  reps : int;
}

(* Run [f] in [reps] groups of [per_group] calls, each group followed
   by a calibration loop, and keep the last result.  Set-up is short
   (one to a hundred milliseconds), so a single timing of it is mostly
   noise: the median group is scaled by the median of all the loops
   around the set-up, as a slice is by the loops near it.  [per_group]
   lifts a group of very short set-ups above timer and cache-warmth
   effects.  Each group starts from a collected heap, so the major
   collector's debt left by earlier groups does not land in it. *)
let setup_reps = 15

let repeat_setup ?(per_group = 1) ~reps f =
  let raw = Array.make reps 0.0 and calibs = Array.make (reps + 1) 0.0 in
  let words = ref 0.0 and last = ref None in
  calibs.(0) <- calibrate ();
  for r = 0 to reps - 1 do
    Gc.full_major ();
    let t0 = now () in
    for _ = 1 to per_group do
      let w0 = Gc.minor_words () in
      last := Some (f ());
      words := Gc.minor_words () -. w0
    done;
    raw.(r) <- (now () -. t0) /. float_of_int per_group;
    calibs.(r + 1) <- calibrate ()
  done;
  let setup_raw_s = Stats.median raw in
  ( { setup_s = setup_raw_s *. ref_s /. Stats.median calibs;
      setup_raw_s;
      setup_words = !words;
      reps },
    Option.get !last )

(* ---- sliced, calibrated measurement ---------------------------------- *)

(* A workload as the measurement loop sees it: a fixed pass of
   [n_items] items cut into slices.  Passes repeat until the time is up;
   the first [min_passes] always complete, so the self-check has every
   slice at least twice.  Hooks run untimed. *)
type workload = {
  slices : int array array;  (** item indices of each slice, in pass order *)
  n_items : int;
  before_pass : int -> unit;
  before_slice : int -> unit;
  run_item : int -> unit;  (** the timed work for one item *)
  after_slice : pass:int -> int -> unit;  (** checks, untimed *)
  words : unit -> float;  (** minor words allocated so far *)
}

type sample = {
  pass : int;
  slice : int;
  raw_s : float;
  calib_s : float;  (** median of the calibration loops around it *)
  words : float;
  lat_s : float array;  (** raw per-item latencies, slice order *)
}

(* Calibration loops run before the first slice and after every slice.
   A slice is paired with the median of the loops within [window] of
   it: level shifts last seconds, many slices, while single loops
   jitter, so the median follows the shifts and drops the jitter.
   Pairing every slice with the run's median loop instead spread
   serve-mix throughput over ten seeds by 9.4% rather than 5.3%
   (with an earlier request stream). *)
let window = 5
let min_passes = 2

let measure ~seconds w =
  let n_slices = Array.length w.slices in
  let deadline = now () +. seconds in
  let runs = ref [] and calibs = ref [ calibrate () ] in
  let pass = ref 0 and stop = ref false in
  while not !stop do
    w.before_pass !pass;
    let j = ref 0 in
    while (not !stop) && !j < n_slices do
      if !pass >= min_passes && now () >= deadline then stop := true
      else begin
        w.before_slice !j;
        let items = w.slices.(!j) in
        let lat = Array.make (Array.length items) 0.0 in
        let w0 = w.words () in
        let t0 = now () in
        for k = 0 to Array.length items - 1 do
          let t = now () in
          w.run_item items.(k);
          lat.(k) <- now () -. t
        done;
        let raw = now () -. t0 in
        let words = w.words () -. w0 in
        w.after_slice ~pass:!pass !j;
        calibs := calibrate () :: !calibs;
        runs := (!pass, !j, raw, words, lat) :: !runs;
        incr j
      end
    done;
    if !j = n_slices then incr pass;
    if !pass >= min_passes && now () >= deadline then stop := true
  done;
  let calibs = Array.of_list (List.rev !calibs) in
  let last = Array.length calibs - 1 in
  let samples =
    List.rev !runs
    |> List.mapi (fun k (pass, slice, raw_s, words, lat_s) ->
           (* slice k sits between calibs.(k) and calibs.(k + 1) *)
           let lo = max 0 (k - window + 1) and hi = min last (k + window) in
           { pass;
             slice;
             raw_s;
             calib_s = Stats.median (Array.sub calibs lo (hi - lo + 1));
             words;
             lat_s })
  in
  (!pass, samples)

type summary = {
  items_per_s : float;  (** calibrated *)
  raw_items_per_s : float;
  p50_ms : float;  (** calibrated per-item latency, median over items *)
  tail_ms : float;
      (** calibrated per-item latency at [tail_pct], the highest whole
          percentile (at most 99) with at least ten items beyond it *)
  tail_pct : int;
  raw_p50_ms : float;  (** the same two percentiles, uncalibrated *)
  raw_tail_ms : float;
  latency_samples : int;  (** items behind the percentiles *)
  words_per_item : float;  (** first complete pass, exact *)
  passes : int;
  n_samples : int;
  raw_spread : float;
      (** IQR share of slice time relative to its slice's median *)
  ratio_spread : float;  (** the same after calibration *)
  swing : float;
      (** IQR share of the slice-time level: slice noise smoothed over
          the calibration window *)
  jitter : float;  (** the same for the slices in random orders *)
  loop_spread : float;  (** IQR share of the calibration time *)
  corr : float;  (** correlation of that level with the calibration *)
  response : float;
      (** least-squares slope of the calibration on that level: the
          share of a workload slowdown the loop shows too *)
  tracks : bool;
}

let factor s = ref_s /. s.calib_s

(* The calibration self-check.  Each slice is compared with its own
   runs in other passes, which removes its content and leaves the noise;
   that noise is smoothed over the calibration window, the scale at
   which the loop is meant to follow it.  Part of what remains is
   jitter of single slices (a collection or a wake-up landing in one),
   which no loop can follow: the same slices in a random order give its
   size.  The workload shifted when its smoothed level moves by at least
   [quiet] and at least [jitter_factor] times that jitter.  A loop that
   then moves by less than [min_move] of the workload's swing stayed
   flat, and fails the run.  How closely the loop follows (the slope
   and correlation) is reported beside it: on serve-mix it is weak in
   calm runs, because part of a request's time is wake-ups the loop
   does not see. *)
let quiet = 0.03
let jitter_factor = 2.0
let min_move = 0.25

let smooth xs =
  let last = Array.length xs - 1 in
  Array.mapi
    (fun k _ ->
      let lo = max 0 (k - window + 1) and hi = min last (k + window) in
      Stats.median (Array.sub xs lo (hi - lo + 1)))
    xs

(* Per-slice medians over passes make every slice count once whatever
   the number of passes, so a pass cut short by the deadline does not
   over-weight its early slices. *)
let summarize w (passes, samples) =
  let n_slices = Array.length w.slices in
  let by_slice = Array.make n_slices [] in
  List.iter (fun s -> by_slice.(s.slice) <- s :: by_slice.(s.slice)) samples;
  let by_slice = Array.map List.rev by_slice in
  let med f l = Stats.median (Array.of_list (List.map f l)) in
  let cal_j = Array.map (med (fun s -> s.raw_s *. factor s)) by_slice in
  let raw_j = Array.map (med (fun s -> s.raw_s)) by_slice in
  let n = float_of_int w.n_items in
  let sum = Array.fold_left ( +. ) 0.0 in
  let latencies scale =
    Array.concat
      (Array.to_list
         (Array.mapi
            (fun j items ->
              Array.mapi (fun k _ -> med (fun s -> s.lat_s.(k) *. scale s) by_slice.(j)) items)
            w.slices))
  in
  let lat = latencies factor and raw_lat = latencies (fun _ -> 1.0) in
  let words =
    Array.fold_left (fun acc l -> acc +. (List.hd l).words) 0.0 by_slice
  in
  let tail_pct =
    max 50 (min 99 (int_of_float (floor (100.0 *. (1.0 -. (10.0 /. float_of_int (Array.length lat)))))))
  in
  let all = Array.of_list samples in
  let calib_med = Stats.median (Array.map (fun s -> s.calib_s) all) in
  let ns = Array.map (fun s -> s.raw_s /. raw_j.(s.slice)) all in
  let nc = Array.map (fun s -> s.calib_s /. calib_med) all in
  let raw_spread = Stats.iqr_share ns in
  let ratio_spread = Stats.iqr_share (Array.map2 ( /. ) ns nc) in
  let level = smooth ns in
  let swing = Stats.iqr_share level in
  let jitter =
    Stats.median
      (Array.init 9 (fun k ->
           let p = Stats.permutation ~seed:k (Array.length ns) in
           Stats.iqr_share (smooth (Array.map (fun i -> ns.(i)) p))))
  in
  let loop_spread = Stats.iqr_share nc in
  { items_per_s = n /. sum cal_j;
    raw_items_per_s = n /. sum raw_j;
    p50_ms = 1000.0 *. Stats.quantile lat 0.5;
    tail_ms = 1000.0 *. Stats.quantile lat (float_of_int tail_pct /. 100.0);
    tail_pct;
    raw_p50_ms = 1000.0 *. Stats.quantile raw_lat 0.5;
    raw_tail_ms = 1000.0 *. Stats.quantile raw_lat (float_of_int tail_pct /. 100.0);
    latency_samples = Array.length lat;
    words_per_item = words /. n;
    passes;
    n_samples = Array.length all;
    raw_spread;
    ratio_spread;
    swing;
    jitter;
    loop_spread;
    corr = Stats.pearson level nc;
    response = Stats.slope level nc;
    tracks = swing < Float.max quiet (jitter_factor *. jitter) || loop_spread >= min_move *. swing }

(* Fixed-size slices of a pass, in order. *)
let cut ~per n =
  let k = (n + per - 1) / per in
  Array.init k (fun j ->
      let lo = j * per in
      Array.init (min per (n - lo)) (fun i -> lo + i))
