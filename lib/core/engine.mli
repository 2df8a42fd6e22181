(** The result-typed front door of the library.

    Every entry point returns [(_, error) result]: the three legacy
    exceptions of the lower layers
    ({!Omega.Counter_free.Monoid_too_large},
    {!Fts.System.State_space_too_large}, {!Logic.Tableau.Unsupported}),
    parser [Invalid_argument]s and budget trips are all folded into
    {!type:error} — no exception escapes.

    Exhaustion of a {!Budget.t} {e degrades} rather than fails:
    {!classify_formula} and friends return [Ok] with a partial
    {!type:report} whose {!type:verdict} is a sound {!Kappa.leq}
    interval computed from the membership columns that completed, and
    whose [exhausted] field says why and after how much work the run
    stopped.  Entry points with no meaningful partial answer ([equiv],
    [witness], [lint], [views]) return [Error (Budget_exceeded _)]
    instead. *)

type verdict =
  | Exact of Kappa.t  (** the class, precisely *)
  | Interval of { lower : Kappa.t option; upper : Kappa.t option }
      (** sound enclosure: the exact class [k] satisfies
          [lower <= k <= upper] in {!Kappa.leq} whenever the bound is
          present.  [upper] is the syntactic class when the formula is
          canonical (always a sound upper bound). *)

type report = {
  verdict : verdict;
  syntactic : Kappa.t option;
      (** the {!Logic.Shape} syntactic class bound, when a formula was
          supplied and the bound is finite: the meet of the canonical
          form's class and the structural-recursion bound *)
  memberships : (Kappa.t * bool option) list;
      (** one row of Figure 1's membership matrix; [None] past the
          point where the budget tripped *)
  is_liveness : bool option;
  is_uniform_liveness : bool option;
  counter_free : bool option;
      (** the three SL/expressibility bits; [None] when the budget
          tripped before they were computed.  Uniform liveness implies
          liveness, so [is_liveness = Some false] gives
          [is_uniform_liveness = Some false] without a search. *)
  n_states : int option;
      (** automaton size; [None] when the formula is outside the
          canonical fragment or translation was interrupted *)
  exhausted : Budget.exhaustion option;
      (** [Some _] iff this is a degraded (partial) report *)
  telemetry : Telemetry.report option;
      (** per-phase spans, counters and histograms recorded during the
          run, when an enabled {!Telemetry.t} handle was supplied;
          [None] with the default disabled handle *)
}

type error =
  | Parse_error of string  (** syntax error in a formula *)
  | Invalid_input of string  (** bad alphabet, atoms, arguments *)
  | Unsupported of string  (** outside the decidable tableau fragment *)
  | Budget_exceeded of Budget.exhaustion
      (** fuel / deadline / structural limit, with no partial answer *)
  | Internal of string  (** a bug: an exception we did not classify *)

val pp_verdict : Format.formatter -> verdict -> unit

val pp_report : Format.formatter -> report -> unit

val pp_error : Format.formatter -> error -> unit
(** One line, no backtrace, suitable for [error: %a] on stderr. *)

val exit_code : error -> int
(** CLI convention: 1 for usage/parse/validation errors, 2 for
    [Budget_exceeded], 3 for [Internal]. *)

val protect :
  ?budget:Budget.t -> ?telemetry:Telemetry.t -> (unit -> 'a) -> ('a, error) result
(** Run a thunk under the engine's exception boundary: every known
    exception becomes the corresponding {!type:error}; anything else
    becomes [Internal].  [budget] is only used to stamp the tick count
    on structural-limit exhaustions.  [telemetry] is installed as the
    calling domain's ambient handle for the duration of the thunk (see
    {!Telemetry.with_ambient}), so the shared leaf kernels report into
    the caller's collector. *)

(** {2 Inclusion-engine selection}

    The language-inclusion engine behind the {!Omega.Lang} inclusion
    queries (see {!Omega.Lang.engine}).  Classification and lint run
    none; in this library only {!analyze}'s M310 vacuity check asks one
    ([Lang.included]), and callers of [Lang.included], [Lang.equal] and
    [Lang.is_universal] can too.  [`Antichain]
    (default) is the lazy on-the-fly engine, [`Explicit] the
    complement-and-product oracle, which decides every inclusion
    independently of {!Omega.Inclusion}.  Verdicts are identical — the
    [hpt --engine] flag exists so any run can be replayed on the
    oracle.

    An entry point's [?engine] argument sets the engine for that call
    only, through the domain-scoped {!Omega.Lang.with_engine}, and
    reaches the pool tasks of {!classify_batch}; omitted, the caller's
    scope applies.  Nothing is process-wide, so concurrent requests (the
    serve daemon) cannot see each other's engine. *)

type inclusion_engine = Omega.Lang.engine

val inclusion_engine_of_string :
  string -> (inclusion_engine, error) result
(** ["antichain"] or ["explicit"]; anything else is [Invalid_input]. *)

(** {2 Classification} *)

val classify_automaton :
  ?budget:Budget.t ->
  ?telemetry:Telemetry.t ->
  ?engine:inclusion_engine ->
  ?formula:Logic.Formula.t ->
  Omega.Automaton.t ->
  (report, error) result
(** Classify a property given as a deterministic omega-automaton.  On
    budget exhaustion the report degrades to an interval verdict. *)

val classify_formula :
  ?budget:Budget.t ->
  ?telemetry:Telemetry.t ->
  ?engine:inclusion_engine ->
  Finitary.Alphabet.t ->
  Logic.Formula.t ->
  (report, error) result
(** Translate (if canonical) and classify.  Outside the canonical
    fragment the report has [n_states = None], [exhausted = None] and
    an interval verdict bounded above by the syntactic class. *)

val classify :
  ?budget:Budget.t ->
  ?telemetry:Telemetry.t ->
  ?engine:inclusion_engine ->
  ?props:string ->
  ?chars:string ->
  string ->
  (report, error) result
(** Parse, infer the alphabet ([--props] / [--chars] style, or the
    formula's atoms), translate, classify. *)

val classify_batch :
  ?budget:Budget.t ->
  ?telemetry:Telemetry.t ->
  ?pool:Pool.t ->
  ?engine:inclusion_engine ->
  ?props:string ->
  ?chars:string ->
  string list ->
  (report, error) result list
(** One {!classify} result per input, in input order — the engine
    behind [hpt classify --jobs N f1 f2 ...].  Without a pool: a plain
    sequential map sharing [budget] across inputs (cumulative
    degradation, like a shell loop).  With a pool: one task per input
    on a task-replica budget ({!Budget.split}) with a per-task
    telemetry collector; tasks are Result-typed, so one input's error
    never cancels the others, and the result list is identical at
    every job count. *)

val classify_regex :
  ?budget:Budget.t ->
  ?telemetry:Telemetry.t ->
  ?engine:inclusion_engine ->
  ?props:string ->
  ?chars:string ->
  op:string ->
  string ->
  (report, error) result
(** Classify [op(regex)] for one of the paper's finitary-to-infinitary
    operators: [op] is ["A"], ["E"], ["R"] or ["P"] (case-insensitive)
    and the string is a {!Finitary.Regex} expression.  The alphabet
    must be given through [props] or [chars] — it cannot be inferred
    from a regex.  The [hpt build] path. *)

(** {2 The other front-door operations} *)

type views = {
  canon : Logic.Rewrite.canon;
  automaton : Omega.Automaton.t;
  safety_part : Omega.Automaton.t;
  liveness_part : Omega.Automaton.t;
  model : Finitary.Word.lasso option;  (** a lasso model, if satisfiable *)
}

val views :
  ?budget:Budget.t ->
  ?telemetry:Telemetry.t ->
  Finitary.Alphabet.t ->
  Logic.Formula.t ->
  (views option, error) result
(** All views of a canonical formula; [Ok None] outside the fragment.
    The safety/liveness decomposition runs unbudgeted, so budget trip
    positions are those of the translation. *)

type side = First_only | Second_only

val equiv :
  ?budget:Budget.t ->
  ?telemetry:Telemetry.t ->
  Finitary.Alphabet.t ->
  Logic.Formula.t ->
  Logic.Formula.t ->
  ([ `Equivalent | `Distinct of Finitary.Word.lasso * side ], error) result
(** Tableau equivalence, from one translation of [!(f1 <-> f2)]: when
    distinct, a lasso satisfying exactly one of the formulas, and
    which one. *)

val witness :
  ?budget:Budget.t ->
  ?telemetry:Telemetry.t ->
  Finitary.Alphabet.t ->
  Logic.Formula.t ->
  (Finitary.Word.lasso option, error) result
(** A model of the formula; [Ok None] when unsatisfiable. *)

val lint :
  ?budget:Budget.t ->
  ?telemetry:Telemetry.t ->
  ?mode:Lint.mode ->
  ?engine:inclusion_engine ->
  (string * string) list ->
  (Lint.verdict, error) result
(** Parse and lint a named-requirement specification.  [mode] selects
    how much semantic refinement {!Lint} performs (default
    {!Lint.Auto}). *)

val analyze :
  ?budget:Budget.t ->
  ?telemetry:Telemetry.t ->
  ?mode:Lint.mode ->
  ?pool:Pool.t ->
  ?engine:inclusion_engine ->
  model:Fts.System.t ->
  (string * string * Lint.origin option) list ->
  (Lint.verdict, error) result
(** Model-aware analysis: lint the (possibly empty) specification, run
    every {!Fts.Analyze} check against [model], and merge both into one
    verdict ({!Lint.with_model}).  Specs carry an optional source
    origin so findings are attributable in JSON output.  [engine]
    scopes the inclusion engine used by the vacuity queries; verdicts
    are identical under either engine.  If the budget trips during the
    formula-only pass, it degrades to the syntactic-only pass and the
    model checks report [Not_checked] — nothing is silently dropped.
    The pool argument is accepted and ignored: the analysis runs
    sequentially, and the argument stays only because
    [perfbench/w_large.ml] passes one (ROADMAP item 6). *)

(** {2 Parsing and alphabets} *)

val parse : string -> (Logic.Formula.t, error) result

val alphabet :
  ?props:string ->
  ?chars:string ->
  Logic.Formula.t list ->
  (Finitary.Alphabet.t, error) result
(** [--props]/[--chars]-style alphabet selection, falling back to the
    atoms of the given formulas. *)
