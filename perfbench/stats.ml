(* Order statistics shared by the measurement loop and the reports. *)

let sorted a =
  let s = Array.copy a in
  Array.sort compare s;
  s

(* Linear interpolation between closest ranks; [q] in [0, 1]. *)
let quantile a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let s = sorted a in
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then s.(n - 1)
    else
      let f = pos -. float_of_int i in
      s.(i) +. (f *. (s.(i + 1) -. s.(i)))

let median a = quantile a 0.5

(* Interquartile range as a share of the median — the spread measure
   the acceptance rule for the end-to-end metrics uses. *)
let iqr_share a =
  let m = median a in
  if Array.length a < 2 || m = 0.0 then 0.0
  else (quantile a 0.75 -. quantile a 0.25) /. m

let mean a =
  if Array.length a = 0 then nan
  else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let pearson xs ys =
  let n = Array.length xs in
  if n < 3 then nan
  else
    let mx = mean xs and my = mean ys in
    let sxy = ref 0.0 and sxx = ref 0.0 and syy = ref 0.0 in
    for i = 0 to n - 1 do
      let dx = xs.(i) -. mx and dy = ys.(i) -. my in
      sxy := !sxy +. (dx *. dy);
      sxx := !sxx +. (dx *. dx);
      syy := !syy +. (dy *. dy)
    done;
    if !sxx = 0.0 || !syy = 0.0 then nan else !sxy /. sqrt (!sxx *. !syy)

(* Least-squares slope of [ys] on [xs]. *)
let slope xs ys =
  let n = Array.length xs in
  if n < 3 then nan
  else
    let mx = mean xs and my = mean ys in
    let sxy = ref 0.0 and sxx = ref 0.0 in
    for i = 0 to n - 1 do
      let dx = xs.(i) -. mx in
      sxy := !sxy +. (dx *. (ys.(i) -. my));
      sxx := !sxx +. (dx *. dx)
    done;
    if !sxx = 0.0 then nan else !sxy /. !sxx

let geomean xs =
  match xs with
  | [] -> nan
  | _ ->
      let s = List.fold_left (fun acc x -> acc +. log x) 0.0 xs in
      exp (s /. float_of_int (List.length xs))

(* Deterministic Fisher-Yates permutation of [0, n) under [seed]. *)
let permutation ~seed n =
  let st = Random.State.make [| seed; 0x5eed |] in
  let p = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = p.(i) in
    p.(i) <- p.(j);
    p.(j) <- t
  done;
  p
