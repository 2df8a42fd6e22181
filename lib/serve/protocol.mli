(** The serve wire protocol: newline-delimited JSON, one request
    object per line in, one response object per line out.

    {2 Requests}

    {[ {"id": <any>, "op": "classify", "formula": "[] p",
        "props": "p,q", "fuel": 100000, "timeout_ms": 250} ]}

    [id] is echoed verbatim in the response ([null] when absent or
    unparseable).  Ops: [ping], [classify], [lint] (with [specs]: a
    list of [{"name": .., "formula": ..}]), [equiv] ([f1]/[f2]),
    [stats], [shutdown], and — only when the daemon runs with
    [--debug-ops] — [spin] ([ms]: busy-loop without polling the
    budget, for exercising the watchdog) and the [inject_trip_at]
    request field (fault injection, for the chaos suite).

    {2 Responses}

    Every response carries [id] and [status] — one of [ok],
    [degraded] (a sound partial verdict; see the [degraded] field for
    why), [error] (structured [{code, message}], codes mirroring
    {!Hierarchy.Engine.error}), or [shed] (admission refused under
    load, code [overloaded]).  Responses deliberately carry no timing
    — latencies go to the access log — so outputs are stable for
    cram tests. *)

type op =
  | Ping
  | Classify of { formula : string; props : string option; chars : string option }
  | Lint of { specs : (string * string) list }
  | Equiv of {
      f1 : string;
      f2 : string;
      props : string option;
      chars : string option;
    }
  | Stats
  | Shutdown
  | Spin of { ms : int }  (** debug only *)

type request = {
  id : Json.t;  (** echoed verbatim; [Null] when absent *)
  op : op;
  op_name : string;  (** for the access log *)
  fuel : int option;
  timeout_ms : float option;
  inject_trip_at : int option;  (** debug only *)
}

val parse_request : Json.t -> (request, Json.t * string * string) result
(** [Error (id, code, message)]: the id to echo (best-effort), a
    stable error code ([invalid_request], [invalid_input]) and a
    human message.  Never raises. *)

(** {2 Response bodies}

    Bodies are id-less field lists; {!render} prepends the echoed id.
    Keeping them id-free is what lets the daemon's response cache
    store one body and serve it to many request ids. *)

type body = (string * Json.t) list

val render : id:Json.t -> body -> string
(** One compact JSON object, no trailing newline. *)

val error_body : code:string -> message:string -> body

val shed_body : body
(** [status = "shed"], code [overloaded]. *)

val code_of_error : Hierarchy.Engine.error -> string
(** [parse_error], [invalid_input], [unsupported], [budget_exceeded],
    [internal]. *)

val engine_error_body : Hierarchy.Engine.error -> body

val exhaustion_to_json : Budget.exhaustion -> Json.t

val report_body : Hierarchy.Engine.report -> body
(** [status] is [ok], or [degraded] when the report is partial
    ([exhausted] set), with the verdict interval and membership row
    rendered structurally. *)

val equiv_body :
  Finitary.Alphabet.t ->
  [ `Equivalent | `Distinct of Finitary.Word.lasso * Hierarchy.Engine.side ] ->
  body

val lint_body : Hierarchy.Lint.verdict -> body

val pong_body : body

val cache_key : request -> string option
(** A canonical key for the response cache: [Some] only for the
    deterministic query ops ([classify]/[lint]/[equiv]) — and the key
    covers the full payload but {e not} the budget: cached entries are
    exact (non-degraded) results, which are budget-independent. *)
