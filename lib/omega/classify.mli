(** Deciding the class of a property given by a deterministic automaton —
    the decision procedures of section 5.1.

    Every column is a read of one {!decomposition} whose nodes are
    expanded on first use, following the cycle conditions of section
    5.1 (Wagner's, for the upper four):

    - safety iff no reachable rejecting cycle reaches an accepting one:
      every root is childless (no SCC carries cycles of both statuses)
      and no rejecting root reaches an accepting root; guarantee is the
      same with the statuses swapped.  This is the safety closure
      characterization of section 2 ([Pi] is safety iff
      [Pi = A(Pref(Pi))]) read on the automaton: a run that stays among
      states with a non-empty future has an infinity set that is a
      cycle which reaches an accepting cycle;
    - recurrence iff every accessible cycle containing an accepting cycle
      is accepting: no rejecting node in the top two levels of the
      decomposition has children;
    - persistence iff every accessible cycle contained in an accepting
      cycle is accepting: the same with accepting nodes;
    - obligation iff both (equivalently, no SCC carries both accepting
      and rejecting cycles): every root is childless;
    - the reactivity rank is the largest number of rejecting members
      of an alternating inclusion chain of cycles (a chain
      [B1 < J1 < ... < Bn] ending rejecting needs [n] Streett pairs, as
      does [B1 < J1 < ... < Jn]): the most rejecting nodes on a branch;
    - the obligation degree counts accepting members of alternating
      {e reachability} chains of cycles starting with a rejecting one,
      over the roots and their statuses.

    The roots' reachability is computed once, on first use, and read by
    the safety, guarantee and degree columns.  Expanding a node costs
    one budget tick, so under {!classify_budgeted} every column spends
    fuel: the safety column expands the roots, recurrence and
    persistence their children, and the rank column the rest. *)

val is_safety : Automaton.t -> bool

val is_guarantee : Automaton.t -> bool

val is_recurrence : Automaton.t -> bool

val is_persistence : Automaton.t -> bool

val is_obligation : Automaton.t -> bool

(** Minimal [k] with the property in [Obl_k]; [None] if not an
    obligation property.  [Some 0] means the empty property. *)
val obligation_degree : Automaton.t -> int option

(** The alternating cycle decomposition (Casares, Colcombet, Fijalkow,
    ICALP 2021): one tree per reachable SCC that carries a cycle, rooted
    at the SCC, whose [accepting] flag is the status of its [cycle] and
    whose children are the maximal cycles of the opposite status inside
    it, found by the Emerson-Lei recursion of
    {!Emptiness.maximal_accepting_cycles} — polynomial in the states for
    a fixed condition, exponential only in its number of distinct [Fin]
    sets.  Children may overlap.  [budget] is ticked once per node
    expanded and checked at every recursion step; a trip raises
    [Budget.Tripped].  [telemetry] wraps the construction in a
    [classify.rank_search] span and counts the expanded nodes
    ([rank.nodes]).  Fully expanded; [Convert.to_shape] reads it. *)
type acd = { cycle : Iset.t; accepting : bool; children : acd list }

val decomposition :
  ?budget:Budget.t -> ?telemetry:Telemetry.t -> Automaton.t -> acd list

(** The {!decomposition} before it is expanded, for a caller that reads
    a column off it before using the whole tree: each node is expanded
    once, on first use, so a column read and then {!expand} together
    build the decomposition once.  [budget] and [telemetry] are those of
    {!decomposition}. *)
type forest

val forest :
  ?budget:Budget.t -> ?telemetry:Telemetry.t -> Automaton.t -> forest

(** The columns of {!is_recurrence} and {!obligation_degree}, read off
    the forest's top levels. *)
val recurrence : forest -> bool

val obligation_degree_of : forest -> int option

(** Is the property a liveness property (section 2: every finite word
    extends to a word of the property)?  A root is {e bottom} when none
    of its states has a successor outside it.  Every run of a complete
    automaton ends in a bottom root, so the property is live iff every
    bottom root holds an accepting cycle: the root is accepting or has
    children.  Only rejecting bottom roots are expanded, one tick each;
    after a column has expanded the roots the read spends nothing. *)
val liveness : forest -> bool

(** The forest's automaton, and the state sets of its roots: the
    reachable SCCs that carry a cycle, computed once per forest
    without spending fuel. *)
val automaton : forest -> Automaton.t

val sccs : forest -> Iset.t list

(** The whole forest, expanded: [decomposition a = expand (forest a)]. *)
val expand : forest -> acd list

(** Minimal number of Streett pairs ([0] iff universal); every
    omega-regular property has a finite rank (the reactivity normal-form
    theorem).  Exact: the largest number of rejecting nodes on a branch
    of the {!decomposition}, since the longest alternating chains are
    its branches.  Budget, telemetry and the raised [Budget.Tripped] are
    those of {!decomposition} (caught by {!classify_budgeted}).  The
    search is sequential. *)
val reactivity_rank :
  ?budget:Budget.t ->
  ?telemetry:Telemetry.t ->
  Automaton.t ->
  int

(** [None] when a [?budget] trips, so it never raises.  The pool
    argument is accepted and ignored: the search is sequential, and
    the argument stays only because [perfbench/w_large.ml] passes one;
    it goes when that file may change (ROADMAP item 6). *)
val reactivity_rank_opt :
  ?budget:Budget.t ->
  ?telemetry:Telemetry.t ->
  ?pool:Pool.t ->
  Automaton.t ->
  int option

(** The most precise class in the hierarchy: safety and guarantee first,
    then obligation (with its degree), then recurrence/persistence, then
    reactivity (with its rank).  A property that is both safety and
    guarantee is reported as safety.  Total and exact: no column
    enumerates cycles, and the columns share one decomposition. *)
val classify : Automaton.t -> Kappa.t

(** All six basic classes ([index 1] for the compound ones) that contain
    the property — one row of Figure 1's membership matrix; every
    column is [Some]. *)
val memberships : Automaton.t -> (Kappa.t * bool option) list

(** {2 Budget-aware classification}

    The uniform degradation mechanism behind [Hierarchy.Engine]: run
    the membership columns in hierarchy order under a {!Budget.t}, and
    when the budget trips, return a sound {e lattice interval} computed
    from the columns that completed instead of raising. *)

(** A sound enclosure of the property's class: the exact class [k]
    satisfies [at_least <= k <= at_most] (in {!Kappa.leq}) whenever the
    respective bound is present.  [None] means unbounded on that side. *)
type interval = { at_least : Kappa.t option; at_most : Kappa.t option }

type budgeted = {
  verdict : [ `Exact of Kappa.t | `Interval of interval ];
      (** [`Exact] agrees with {!classify} whenever the budget did not
          trip; [`Interval] is the degraded partial verdict *)
  row : (Kappa.t * bool option) list;
      (** the membership row; columns after the trip point are [None] *)
  exhaustion : Budget.exhaustion option;
      (** why (and after how much work) degradation happened *)
}

(** Total: never raises, whatever the budget.  With the default
    unlimited budget, [verdict] is [`Exact (classify a)].  The columns
    read one decomposition, ticking [budget] once per node they expand
    (see the header), so a trip at the first tick leaves every column
    [None].  [telemetry] wraps each membership column
    that actually runs in a [classify.<column>] span (columns skipped
    by the sticky guard record nothing) and counts the expanded nodes
    ([rank.nodes]).

    The pool argument is accepted and ignored: the columns run
    sequentially, and the argument stays only because
    [perfbench/w_large.ml] passes one; it goes when that file may
    change (ROADMAP item 6). *)
val classify_budgeted :
  ?budget:Budget.t ->
  ?telemetry:Telemetry.t ->
  ?pool:Pool.t ->
  Automaton.t ->
  budgeted

(** [classify_budgeted ?budget ?telemetry a] is [classify_forest]
    applied to [forest ?budget ?telemetry a], which a caller that reads
    more of the forest afterwards builds itself. *)
val classify_forest : forest -> budgeted
