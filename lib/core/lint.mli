(** The specification diagnostics engine — the paper's methodological
    payoff (section 1), grown into a static analysis.

    A property-list specification is prone to {e underspecification}:
    the canonical bug is a mutual-exclusion spec that states the safety
    requirement but forgets accessibility, and is then satisfied by an
    implementation that never lets anyone in.  Locating each requirement
    in the hierarchy yields the checklist the paper proposes: does the
    specification contain any progress (non-safety) requirement at all?
    Is some requirement vacuous, inconsistent, or redundant?

    Two passes feed the diagnostics.  The {e syntactic} pass
    ({!Logic.Shape}) always runs: it is linear, handles any formula, and
    returns a sound {!Kappa.interval} for each requirement.  The
    {e semantic} pass (tableau satisfiability/validity and
    [Omega.Of_formula.classify]) refines those intervals to exact
    classes, but needs an explicit alphabet of at most 14 atoms; it runs
    when the {!type:mode} allows and the specification is small enough,
    and is skipped — with a {!W104} warning, not an exception — past
    that ceiling.

    {2 Diagnostic codes}

    Codes are stable identifiers for machine consumption ([E0xx]
    errors, [W1xx] warnings, [H2xx] hints):

    - {b E001} requirement unsatisfiable: no implementation can exist.
    - {b E002} two requirements conflict: their conjunction is
      unsatisfiable although each is satisfiable alone.
    - {b W101} requirement valid: it constrains nothing.
    - {b W102} every requirement is a safety property — the paper's §1
      underspecification trap.
    - {b W103} the conjunction of all requirements collapses to safety
      even though some requirement alone is not.
    - {b W104} semantic refinement skipped (too many distinct atoms).
    - {b W105} requirement implied by another: redundant.
    - {b H201} requirement written in a higher class than the property
      it denotes (e.g. reactivity-shaped but semantically persistence).
    - {b H202} requirement outside the canonical fragment: only the
      syntactic bound is available.
    - {b H203} a proper subformula is constantly true/false (with its
      source span when the requirement was parsed from a string).

    Model-aware findings ([M3xx]/[H312], produced by {!Fts.Analyze} when
    a model is supplied) are wrapped into the same diagnostic stream via
    the {!Model} constructor: one report type, one JSON schema, one
    severity/exit-code policy for formula-only and model-aware runs. *)

type severity = Error | Warning | Hint

type code =
  | E001
  | E002
  | W101
  | W102
  | W103
  | W104
  | W105
  | H201
  | H202
  | H203
  | Model of Fts.Analyze.code
      (** a model-aware finding ({!Fts.Analyze}), e.g. [Model M304];
          [code_name] renders the inner code ("M304") *)

val severity_of_code : code -> severity

val code_name : code -> string
(** ["E001"], ["W102"], ..., ["M304"], ["H312"]. *)

val severity_name : severity -> string
(** ["error"], ["warning"], ["hint"]. *)

type origin = { file : string; line : int }
(** Where a requirement came from, for file-driven runs ([--file],
    [analyze MODEL]): corpus-scale reports need every finding
    attributable to a source line. *)

type diagnostic = {
  code : code;
  requirement : string option;
      (** the requirement the diagnostic is about; [None] for
          specification-level findings (W102/W103/W104) *)
  span : Logic.Parser.span option;
      (** source extent of the offending (sub)formula, when the
          requirement came in as a string ({!lint_strings}) *)
  locus : string list;
      (** span-free model anchors for {!Model} findings: variable,
          transition and fairness names, rendered states, offending
          subformulas; [[]] for formula-only diagnostics *)
  origin : origin option;
      (** source file/line of the requirement concerned, when known *)
  message : string;
}

type item = {
  iname : string;
  formula : Logic.Formula.t;
  source : string option;  (** original text, via {!lint_strings} *)
  origin : origin option;  (** source file/line, via {!lint_located} *)
  shape : Logic.Shape.t;  (** the syntactic analysis, always present *)
  interval : Kappa.interval;
      (** sound enclosure of the exact class: the syntactic interval,
          refined by the semantic class when one was computed *)
  klass : Kappa.t option;  (** exact semantic class, when computed *)
  satisfiable : bool option;  (** [None] when the semantic pass was skipped
                                  and syntax could not decide *)
  valid : bool option;
}

type mode =
  | Syntactic_only  (** never run tableau/automaton: any size, linear *)
  | Auto  (** semantic refinement when the spec is small enough (default) *)
  | Semantic  (** always attempt semantic refinement, including the
                  O(n²) pairwise checks on larger item lists *)

type model_info = {
  model_states : int;  (** reachable states of the analysed model *)
  model_transitions : int;
  model_checks : (Fts.Analyze.code * Fts.Analyze.status) list;
      (** per-check completion statuses — the degradation contract: a
          check the budget interrupted says [Not_checked] here instead
          of silently contributing no diagnostics *)
}

type verdict = {
  items : item list;
  diagnostics : diagnostic list;  (** in deterministic order: per-item,
                                      then pairwise, then spec-level,
                                      then model-aware *)
  conjunction_class : Kappa.t option;
      (** exact class of the whole specification, when computed *)
  conjunction_interval : Kappa.interval;
  semantic : bool;  (** whether the semantic pass ran *)
  model : model_info option;
      (** present when a model was analysed ({!with_model}) *)
}

(** [lint_strings specs]: parse each named requirement (keeping source
    spans for diagnostics), then analyze it.  Never raises on atom-free
    or many-atom specifications — the semantic pass degrades to the
    syntactic one (with W104) as needed.  [budget] is shared by all
    semantic constructions and interrupts them with [Budget.Tripped]. *)
val lint_strings :
  ?budget:Budget.t ->
  ?mode:mode ->
  (string * string) list ->
  verdict

(** {!lint_strings} with a source origin per requirement: items and the
    diagnostics that concern them carry the originating file and line,
    so corpus-scale JSON output is attributable. *)
val lint_located :
  ?budget:Budget.t ->
  ?mode:mode ->
  (string * string * origin option) list ->
  verdict

(** [with_origins origins v] retrofits source origins onto a verdict
    produced without them: every item and diagnostic whose requirement
    name appears in [origins] gets that origin.  {!lint_located} is
    {!lint_strings} followed by this. *)
val with_origins : (string * origin option) list -> verdict -> verdict

(** [with_model report v] merges a model analysis into a lint verdict:
    each {!Fts.Analyze.finding} becomes a [Model]-coded diagnostic
    (appended after the formula-only diagnostics, inheriting the origin
    of the requirement it names, when known), and [v.model] records the
    model's size and per-check statuses. *)
val with_model : Fts.Analyze.report -> verdict -> verdict

val pp_verdict : verdict Fmt.t

(** Machine-readable rendering: a single JSON object
    [{"items":[...],"conjunction":{...},"semantic":bool,
    "diagnostics":[...],"model":...}] with stable field order.
    Diagnostics carry ["locus"] (model anchors) and ["origin"]
    (file/line); ["model"] is [null] for formula-only runs. *)
val to_json : verdict -> string
