(** The serve daemon's wire protocol: line-delimited JSON-RPC.

    One request per line, one response line per request, in request
    order per connection.  A request is an object with an ["id"]
    (echoed verbatim in the response; any JSON value), a ["method"],
    and an optional ["params"] object:

    {v
    {"id":1,"method":"optimize","params":{"kernel":"dmxpy","bound":4}}
    {"id":2,"method":"lint","params":{"nest":"DO I = 1, 8\n A(I)=A(I-1)\nENDDO","name":"rec"}}
    {"id":3,"method":"metrics"}
    v}

    Methods: [optimize], [explain], [lint] (analysis over an inline
    ["nest"] source or a catalogue ["kernel"] with optional ["n"]),
    plus [ping], [metrics] (live registry dump) and [shutdown] (drain
    and stop).  Analysis params mirror the CLI flags: ["machine"]
    (preset name), ["bound"], ["max_loops"], ["model"], ["seq"],
    ["rules"] (lint id filter), ["timeout_ms"], ["name"] (display
    name).  Unset params inherit the daemon's command-line defaults.

    Responses are [{"id":..,"ok":true,"result":..}] or
    [{"id":..,"ok":false,"error":{"kind":..,"message":..}}]; error
    kinds are the {!error_kind} variants, and [parse]/[analysis]
    errors attach located diagnostics in the analyzer's pinned JSON
    shape.  Malformed input yields an error {e response}, never a
    dropped connection: the protocol layer cannot make the daemon
    exit. *)

module Json = Ujam_obs.Json

type method_ = Optimize | Explain | Lint | Metrics | Ping | Shutdown

val method_name : method_ -> string
val method_names : string list

type source = Inline of string | Kernel of string * int option

type request = {
  id : Json.t;  (** echoed; [Null] when the client sent none *)
  meth : method_;
  name : string option;  (** display name for reports/diagnostics *)
  source : source option;
  machine : string option;
  bound : int option;
  max_loops : int option;
  model : string option;
  seq : bool option;
  rules : string list option;
  timeout_ms : int option;
}

type error_kind =
  | Protocol  (** not JSON, not an object, bad or missing envelope *)
  | Oversized  (** request line exceeded the byte bound *)
  | Parse  (** nest source did not parse (located UJ000) *)
  | Analysis  (** the pipeline degraded with a typed stage error *)
  | Timeout  (** deadline passed before the request was dispatched *)

val error_kind_name : error_kind -> string

val request_of_json : Json.t -> (request, string) result
(** Decode an envelope; [Error] messages name the offending field. *)

val ok_response : id:Json.t -> Json.t -> string
(** [{"id":id,"ok":true,"result":payload}] serialised, no newline. *)

val error_response :
  id:Json.t ->
  kind:error_kind ->
  ?diagnostics:Json.t list ->
  string ->
  string
(** [{"id":id,"ok":false,"error":{...}}] serialised, no newline. *)

val error_payload :
  kind:error_kind -> ?diagnostics:Json.t list -> string -> Json.t
(** Just the ["error"] member object, for cacheable error outcomes. *)

val response_of_payload : id:Json.t -> ok:bool -> Json.t -> string
(** Wrap a cached payload (a result on [ok], an error object
    otherwise) back into a response line — the single rendering path
    shared by cache hits and misses, so the two are byte-identical. *)
