(** Tableau translation of LTL (with pure-past subformulae) to
    nondeterministic generalized Buechi automata, and the decision
    procedures built on it: satisfiability, validity and equivalence.

    The translation is the classical GPVW construction on the future
    skeleton of the formula, where every maximal past-rooted subformula is
    compiled to a fresh atom whose value is supplied, letter by letter, by
    a deterministic {!Past_tester}; the automaton built is the
    synchronous product of the tableau with the tester.

    This gives a complete decision procedure for the full logic of
    section 4, which the test suite uses to verify every temporal
    equivalence stated in the paper.

    @raise Unsupported if a past operator is applied to a formula
    containing a future operator (the paper never nests in that
    direction). *)

exception Unsupported of string

type nba

(** [translate alpha f]: automaton accepting exactly the infinite words
    over [alpha] satisfying [f].  [budget] is ticked once per tableau
    node expansion and once per concrete product state, so fuel and
    deadline budgets interrupt the (worst-case exponential)
    construction with [Budget.Tripped].  [telemetry] (default: the
    ambient handle, {!Telemetry.ambient}) wraps the construction in a
    [tableau.translate] span and records histograms of the expansion
    count ([tableau.expansions]), tableau graph size
    ([tableau.graph_nodes]) and concrete product size
    ([tableau.states]).

    An atom of [f] outside [alpha] raises [Invalid_argument] (from
    {!Finitary.Alphabet.holds}) when it is first read on a letter:
    under a past operator as soon as the past tester is built,
    elsewhere once the product checks a tableau node holding it.  A
    formula whose tableau closes before any node holds the atom, such
    as [p & !p & r] over [{p,q}], is simply unsatisfiable. *)
val translate :
  ?budget:Budget.t ->
  ?telemetry:Telemetry.t ->
  Finitary.Alphabet.t ->
  Formula.t ->
  nba

(** [translate_pair alpha f] is [(translate alpha f, translate alpha
    (Not f))], the same automata, budget spend and telemetry, built
    with one past-subformula extraction and one {!Past_tester}: the past
    table of [Not f] is the table of [f].  [Not f] is built first, each
    automaton in its own [tableau.translate] span with its own
    histogram entries, and the tester is made where the first of them
    needs it.  Lint reads every requirement through it. *)
val translate_pair :
  ?budget:Budget.t ->
  ?telemetry:Telemetry.t ->
  Finitary.Alphabet.t ->
  Formula.t ->
  nba * nba

(** Number of concrete automaton states. *)
val size : nba -> int

(** [transitions a q]: the edges out of state [q] (in [0 .. size a - 1],
    [0] the pre-initial state) as [(letter, target)] pairs, letters
    ascending. *)
val transitions : nba -> int -> (Finitary.Alphabet.letter * int) list

(** Does the automaton accept some infinite word?  [satisfiable alpha f]
    is [nonempty (translate alpha f)].  Decided by
    {!Emptiness.on_the_fly} from the pre-initial state, on the
    generalized Buechi condition [And [Inf {0}; ...]] over the marks
    (one set per until of the formula): the search stops at the first
    SCC whose states meet every acceptance set.  It walks each state's
    distinct targets, once each in the order they first occur in its
    row: a repeated edge in one frame can neither discover a state nor
    change an open root's marks. *)
val nonempty : nba -> bool

(** [intersects a b]: do two automata over the same alphabet accept a
    common word?  Decided on their synchronous product, whose
    generalized Buechi condition is both sides' sets, so
    [intersects (translate alpha f) (translate alpha g)] is
    [satisfiable alpha (f & g)] without translating the conjunction
    (and without joining the two past closures in one {!Past_tester}).
    The product is never built whole: {!Emptiness.on_the_fly}
    searches it from the pre-initial pair and stops at the first
    accepting SCC.  It asks for a pair's successors by position, and a
    merge cursor over the two letter-sorted rows answers with the next
    pair of targets on a shared letter, in the order of the first
    automaton's row.  An automaton keeps all its rows in one flat
    array of edges with one offset per state, so the cursor is three
    edge positions, one in the first row and two in the second, and
    its ends are the next states' offsets.  An empty product is
    visited whole; a non-empty one usually in part.  [budget] is ticked once per product state
    visited.  The search runs in a [tableau.product] span of the
    ambient telemetry handle, which also records the number of states
    visited in a [tableau.product_states] histogram.
    @raise Invalid_argument if the two alphabets differ. *)
val intersects : ?budget:Budget.t -> nba -> nba -> bool

(** Does some infinite word satisfy the formula? *)
val satisfiable :
  ?budget:Budget.t ->
  ?telemetry:Telemetry.t ->
  Finitary.Alphabet.t ->
  Formula.t ->
  bool

(** Do all infinite words satisfy it? *)
val valid :
  ?budget:Budget.t ->
  ?telemetry:Telemetry.t ->
  Finitary.Alphabet.t ->
  Formula.t ->
  bool

(** [equiv alpha f g]: the paper's [f ~ g] — [f <-> g] is valid (over the
    given alphabet). *)
val equiv :
  ?budget:Budget.t ->
  ?telemetry:Telemetry.t ->
  Finitary.Alphabet.t ->
  Formula.t ->
  Formula.t ->
  bool

(** [implies alpha f g]: [f -> g] is valid. *)
val implies :
  ?budget:Budget.t ->
  ?telemetry:Telemetry.t ->
  Finitary.Alphabet.t ->
  Formula.t ->
  Formula.t ->
  bool

(** A lasso word satisfying the formula, if any: {!Emptiness.lasso}
    from the pre-initial state, each step read back as the first letter
    on its edge. *)
val witness :
  ?budget:Budget.t ->
  ?telemetry:Telemetry.t ->
  Finitary.Alphabet.t ->
  Formula.t ->
  Finitary.Word.lasso option

(** Does the automaton accept the lasso?  (Exact; used to cross-check the
    translation against {!Semantics}.)  Decided by
    {!Emptiness.on_the_fly} on the product of the automaton with
    the lasso's positions, explored as it is searched: position [i] of
    a pair is edge [i] of the state's row, which holds no successor
    when its letter is not the lasso's. *)
val accepts_lasso : nba -> Finitary.Word.lasso -> bool
