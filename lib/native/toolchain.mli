(** Discovery and invocation of the host OCaml native toolchain.

    The ground-truth column compiles emitted programs with whatever the
    host provides — [ocamlfind ocamlopt] when findlib is installed,
    bare [ocamlopt] otherwise.  Discovery scans [PATH] once and caches
    the answer for the life of the process; a missing toolchain is a
    value ([Error _]), never an exception, so every native entry point
    degrades to a typed {!Ujam_engine.Error.t} and the rest of the
    pipeline keeps working on machines without a compiler. *)

type t = {
  command : string;  (** absolute path of the discovered executable *)
  via_ocamlfind : bool;
      (** when set, [command] is findlib and compiles run as
          [ocamlfind ocamlopt ...] *)
}

val probe : ?path:string -> unit -> (t, string) result
(** Scan a PATH string (default: the [UJC_NATIVE_COMPILER] environment
    override if set, else [$PATH]) for [ocamlfind], then [ocamlopt].
    Pure lookup — no caching, no compilation — so tests can probe
    scrubbed environments. *)

val find : unit -> (t, string) result
(** [probe] once, then cached for the whole process. *)

val compile : t -> src:string -> exe:string -> (unit, string) result
(** Compile one self-contained source file to a native executable.  Runs
    in the source's directory (compiler droppings stay in the caller's
    temp dir); on failure returns the tail of the compiler's output. *)

val run_exe : string -> (string, string) result
(** Execute a compiled program, capturing stdout.  [Error _] carries the
    exit status and any output when the program fails. *)
