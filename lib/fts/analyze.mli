(** Model-aware static analysis of fair transition systems and their
    specifications.

    [Lint] sees only formulas; this pass sees the model — and the model
    plus an optional specification set.  It produces findings with new
    stable codes, one severity/exit-code policy shared with [Lint]
    (which wraps these codes into its own diagnostics):

    {e Structural} (model only):
    - {b M301} — a declared variable range is never fully exercised:
      some values occur in no reachable state.
    - {b M302} — a dead transition: never taken on any reachable edge,
      either because its guard never holds (classic deadness) or
      because the guard holds but the action yields no successor (an
      enabledness/taken mismatch, the seed of M304).
    - {b M303} — reachable sink states: the run can reach a state where
      only the implicit idle transition is enabled.  Deliberate for
      terminating programs; a deadlock for reactive ones.
    - {b M304} — the fair-computation set is empty (the trap documented
      in {!Check.has_fair_computation}): some fairness requirement
      intersects no reachable cycle, so {e every} specification holds
      vacuously.  The culprit requirements are singled out.

    {e Spec-vs-model}:
    - {b M310} — antecedent-failure vacuity: a positive-polarity
      subformula [[] (p -> q)] still holds with its consequent replaced
      by [false] — the model satisfies the requirement without ever
      exercising [q].  Checked as closure ⊆ L(φ[q ← false]) by
      [Omega.Lang.included], with the closure from
      {!Check.closure_automaton};
      ignoring fairness over-approximates the computations, so a
      reported vacuity is sound.
    - {b M311} — a spec atom is constant across every reachable state
      (and, for [taken_tau], every reachable edge): the requirement
      cannot distinguish any two behaviours of this model through it.
    - {b H312} — verdict-robustness hint: restricted to this model's
      computations, the requirement's exact Kappa class drops strictly
      below {!Logic.Shape}'s structural bound — the model's structure,
      not the formula, carries the verdict, which therefore may not
      survive model changes.

    Degradation contract: each check runs under the shared [budget];
    when the budget trips, the tripped check and all later ones report
    {!Not_checked} (the budget is sticky), findings already emitted are
    kept, and nothing is silently dropped.  Verdicts are deterministic:
    identical on any domain, including the positions of injected budget
    trips (inclusion work is pre-charged to the budget by product size,
    not by the search's own exploration). *)

type code = M301 | M302 | M303 | M304 | M310 | M311 | H312

type severity = Error | Warning | Hint

(** All codes, in report order. *)
val all_codes : code list

(** ["M301"], ..., ["H312"]. *)
val code_name : code -> string

(** M304 is [Error] (every verdict on such a model is vacuously true);
    the other model checks are [Warning]; H312 is [Hint]. *)
val severity_of : code -> severity

type status =
  | Checked  (** the check ran to completion *)
  | Not_checked of Budget.exhaustion
      (** the budget tripped before or during the check; any findings
          it did emit are kept, but absence of findings means nothing *)
  | Skipped of string
      (** structurally inapplicable (e.g. M304 with no fairness
          requirements, spec checks with no specs) *)

type finding = {
  code : code;
  requirement : string option;
      (** the spec item concerned, for spec-vs-model findings *)
  locus : string list;
      (** model-side anchors: variable, transition or fairness names,
          rendered states such as ["{c=1; free=0}"], or the offending
          subformula — span-free, since models have no source spans *)
  message : string;
}

type report = {
  findings : finding list;  (** in check order, deterministic *)
  statuses : (code * status) list;  (** one entry per code, in order *)
  n_states : int;  (** reachable states analysed *)
  n_transitions : int;  (** declared transitions (without idle) *)
}

(** Does any status say [Not_checked]?  (The CLI maps this to the
    budget exit code.) *)
val degraded : report -> bool

(** [analyze sys ~specs] runs every check.  [specs] are named
    requirements already parsed (the CLI threads {!Lint} items
    through); atoms they mention must exist in the model — unknown
    atoms raise [Invalid_argument] naming the atom.  Specs with more
    than 14 distinct atoms are skipped by the semantic spec checks
    (M310/H312), like {!Check}; M311 still covers them. *)
val analyze :
  ?budget:Budget.t ->
  ?telemetry:Telemetry.t ->
  ?specs:(string * Logic.Formula.t) list ->
  System.t ->
  report
