(** Model checking temporal specifications against fair transition
    systems.

    The specification is translated (via {!Omega.Of_formula}) to a
    deterministic automaton over the valuations of the atoms it mentions;
    the check searches the product of the system's edge-split reachable
    graph with the {e complement} automaton for a computation satisfying
    all fairness requirements — weak fairness contributes recurrence
    ([Inf]) acceptance, strong fairness contributes Streett pairs,
    exactly the classes the paper assigns to them (section 4).

    Atoms: ["x"], ["x=3"], ["en_tau"], ["taken_tau"] (see
    {!System.atom_holds}). *)

type trace = {
  prefix : (System.state * string) list;
      (** states with the transition that entered them ("-" initially) *)
  cycle : (System.state * string) list;
}

type result = Holds | Fails of trace

(** [holds sys f]: do all fair computations of the system satisfy [f]?
    Returns a fair counterexample computation otherwise.
    Raises [Invalid_argument] if [f] is outside the canonical fragment
    of {!Logic.Rewrite} or mentions unknown atoms.  [budget] is charged
    per split-graph node and edge and per product state, and the
    fair-cycle search ({!Emptiness.accepting_scc}) checks its
    deadline at every step, so the check is interrupted by
    [Budget.Tripped] when it runs out.  [telemetry]
    wraps the phases in spans ([fts.split_graph], [fts.product],
    [fts.lasso_search], with the spec translation's [translate] span
    nested in between) and records the state-space growth
    ([fts.split_nodes]/[fts.product_states] counters and the
    [fts.state_space] histogram). *)
val holds :
  ?budget:Budget.t ->
  ?telemetry:Telemetry.t ->
  System.t ->
  Logic.Formula.t ->
  result

(** Parse and check. *)
val holds_s :
  ?budget:Budget.t -> ?telemetry:Telemetry.t -> System.t -> string -> result

(** Is there any fair computation at all (sanity check: a system with no
    fair computations satisfies everything vacuously)?  [fairness]
    overrides the system's requirement set — {!Analyze} passes singleton
    lists to attribute an empty fair-computation set to the individual
    requirement that caused it. *)
val has_fair_computation :
  ?budget:Budget.t ->
  ?telemetry:Telemetry.t ->
  ?fairness:System.fairness list ->
  System.t ->
  bool

(** [closure_automaton sys ~atoms] is the safety closure of the system's
    computation language, projected onto valuations of [atoms], as a
    complete deterministic automaton (subset construction over the
    reachable graph whose nodes are states with the class of their
    entering label; the empty subset is a rejecting sink).
    Fairness is ignored, so the result {e over-approximates} the fair
    computations — sound for vacuity checks of the form
    "closure ⊆ L(φ') implies every fair computation satisfies φ'".
    [atoms] follow {!System.atom_holds} plus [taken_tau]; raises
    [Invalid_argument] on an empty or oversized (> 14) atom set or an
    unknown atom.

    The construction is a sequential breadth-first subset
    construction (fanning out its subset levels never beat one
    domain).  Two labels are in one class when their [taken_tau] bits
    over [atoms] are equal; the classes are numbered in order of their
    first label, and a node is [(sid lsl cbits) lor class], with
    [cbits] the bits the class numbers need.  Without a [taken_tau]
    atom there is one class and a node is a state.  A node's letter is
    its state's atom bits OR its class's [taken_tau] bits.  A subset
    is a sorted int array of nodes, interned in an
    {!Int_index.Arrays} table; DFA state 0 is the pre-initial state
    and the subsets get ids 1, 2, ... in order of first occurrence,
    the empty one (the sink) at the first empty letter bucket.  All
    classes of a state have the same successors, so a subset is
    expanded once per distinct state; the successors are deduplicated
    with a per-node stamp, bucketed by letter, and each bucket is
    sorted (insertion sort when short, radix sort on node ids
    otherwise).  The work per subset [s] with successor set [S] is
    O(|s| + |S| log n + k), never a scan of the whole graph.

    The pool argument is accepted and ignored, and stays only because
    [perfbench/w_large.ml] passes one; it goes when that file may
    change (ROADMAP item 6).  [?budget] is charged for the graph (one
    tick per (state, class) node and per edge), the node count again,
    once per fresh subset, and [|s| + k] ticks when subset [s] ([|s|]
    nodes) is expanded over the [k] letters; [fts.split_nodes] counts
    the (state, class) nodes. *)
val closure_automaton :
  ?budget:Budget.t ->
  ?telemetry:Telemetry.t ->
  ?pool:Pool.t ->
  System.t ->
  atoms:string list ->
  Omega.Automaton.t

val pp_trace : System.t -> trace Fmt.t
