(* In-memory span recorder for the traced run.

   A span has a name, start and end, the span that caused it, and the
   id of the nest or request it belongs to; spans are recorded around
   calls into the program's public functions, never inside it.  Self
   time and self words of a span are its own minus what its children
   cover.  When recording is off, [with_] is a plain call, so the same
   re-drive code measures the tracing overhead. *)

type span = {
  idx : int;  (** start order *)
  name : string;
  id : int;
  parent : int;  (** index of the enclosing span, -1 at the root *)
  t0 : float;
  t1 : float;
  words : float;
}

let enabled = ref false
let recorded : span list ref = ref []
let count = ref 0
let stack : int list ref = ref []

let reset () =
  recorded := [];
  count := 0;
  stack := []

let with_ name ~id f =
  if not !enabled then f ()
  else begin
    let idx = !count in
    incr count;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := idx :: !stack;
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    let finish () =
      let t1 = Unix.gettimeofday () in
      let words = Gc.minor_words () -. w0 in
      stack := List.tl !stack;
      recorded := { idx; name; id; parent; t0; t1; words } :: !recorded
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* Time [f] with recording switched to [on]; recording is off after. *)
let timed ~on f =
  enabled := on;
  let t0 = Unix.gettimeofday () in
  let v = f () in
  let dt = Unix.gettimeofday () -. t0 in
  enabled := false;
  (v, dt)

type layer = { self_s : float; calls : int; self_words : float }

(* Per span name: summed self time, call count and self words. *)
let layers () =
  let n = !count in
  let dur = Array.make n 0.0 and words = Array.make n 0.0 in
  let child_dur = Array.make n 0.0 and child_words = Array.make n 0.0 in
  let names = Array.make n "" and parents = Array.make n (-1) in
  List.iter
    (fun s ->
      dur.(s.idx) <- s.t1 -. s.t0;
      words.(s.idx) <- s.words;
      names.(s.idx) <- s.name;
      parents.(s.idx) <- s.parent)
    !recorded;
  Array.iteri
    (fun i p ->
      if p >= 0 then begin
        child_dur.(p) <- child_dur.(p) +. dur.(i);
        child_words.(p) <- child_words.(p) +. words.(i)
      end)
    parents;
  let tbl = Hashtbl.create 32 in
  for i = 0 to n - 1 do
    let prev =
      Option.value (Hashtbl.find_opt tbl names.(i))
        ~default:{ self_s = 0.0; calls = 0; self_words = 0.0 }
    in
    Hashtbl.replace tbl names.(i)
      { self_s = prev.self_s +. dur.(i) -. child_dur.(i);
        calls = prev.calls + 1;
        self_words = prev.self_words +. words.(i) -. child_words.(i) }
  done;
  tbl

(* A layer's totals; all zero when it recorded no span. *)
let find tbl name =
  Option.value (Hashtbl.find_opt tbl name) ~default:{ self_s = 0.0; calls = 0; self_words = 0.0 }
