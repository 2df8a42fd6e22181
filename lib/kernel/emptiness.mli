(** Emerson-Lei emptiness over explicit graphs, and generalized Buechi
    emptiness on the fly: the one place that searches for cycles
    satisfying an acceptance condition.

    A {e cycle} is a non-empty state set whose induced subgraph is
    strongly connected and carries an edge; cycles are exactly the
    possible infinity sets of runs, so every question the hierarchy
    asks of a run's limit behavior — emptiness, the live states, a
    witness lasso, the §5.1 cycle-structure checks, fair computations
    of a transition system — is a question about the cycles that
    satisfy a condition.

    Every Emerson-Lei function is written over [~n ~succ] (states
    [0 .. n-1], successor lists), so automata, the inclusion engine's
    pair graph, transition-system graphs and the tableau's witness
    search share it.  The tableau's emptiness checks and products,
    whose conditions are generalized Buechi, go through
    {!generalized_buchi} instead, which builds no graph.

    The Emerson-Lei condition is never put in disjunctive normal form: on each cycle-carrying SCC it is
    restricted to the SCC (atom sets intersected with it) and
    simplified; a [Fin]-free remainder is monotone, so the SCC itself
    decides it; otherwise one [Fin X] splits the search into the SCCs
    of the SCC minus [X] and the SCC itself with [Fin X] false (Baier,
    Blahoudek, Duret-Lutz, Klein, Mueller, Strejcek, "Generic
    emptiness check for fun and profit", ATVA 2019).  Every step
    either drops a distinct [Fin] atom or shrinks the SCC, so the cost
    is exponential only in the number of distinct [Fin] sets left
    after restriction, never in the width of the DNF. *)

val accepting_scc :
  ?budget:Budget.t ->
  n:int ->
  succ:(int -> int list) ->
  Acceptance.t ->
  Iset.t ->
  Iset.t option
(** [accepting_scc ~n ~succ acc region]: a cycle inside [region]
    satisfying [acc] ([Acceptance.eval acc s] holds on the returned
    [s]), or [None] when there is none.  The region is first searched
    without the condition's first [Fin] set, and decomposed whole only
    if that fails.  Each step calls {!Budget.check} on [?budget] (no
    fuel spent), so a deadline bounds the search; raises
    [Budget.Tripped] when one passes. *)

val accepting_states :
  ?budget:Budget.t ->
  n:int ->
  succ:(int -> int list) ->
  Acceptance.t ->
  Iset.t ->
  Iset.t
(** [accepting_states ~n ~succ acc region]: the states of [region]
    that lie on some cycle inside [region] satisfying [acc].  The
    states known so far are passed down the recursion, and an SCC they
    already cover is not searched again.  [?budget] is ticked once per
    SCC examined. *)

val maximal_accepting_cycles :
  ?budget:Budget.t ->
  n:int ->
  succ:(int -> int list) ->
  Acceptance.t ->
  Iset.t ->
  Iset.t list
(** [maximal_accepting_cycles ~n ~succ acc s]: the maximal cycles
    inside the cycle [s] that satisfy [acc], found by the same
    recursion run to completion.  Every cycle inside [s] satisfying
    [acc] is contained in a member, and no member contains another;
    [[s]] when [s] itself satisfies [acc].  [Budget.check] once per
    step. *)

type search = { accepting : bool; visited : int }
(** The outcome of {!generalized_buchi}: whether an accepting cycle is
    reachable, and how many states the search discovered. *)

val generalized_buchi :
  ?budget:Budget.t ->
  sets:int ->
  marks:(int -> Iset.t) ->
  succ:(int -> int list) ->
  int ->
  search
(** [generalized_buchi ~sets ~marks ~succ start]: is a cycle reachable
    from [start] that meets every one of the [sets] acceptance sets?
    States are non-negative int keys, not a dense range: [succ k] lists
    a key's successors and [marks k] the indices, in [0 .. sets-1], of
    the sets it belongs to.  With [sets = 0] any reachable cycle
    accepts.

    The graph is never built: Couvreur's SCC-root-stack search
    ("On-the-fly verification of linear temporal logic", FM 1999) runs
    a depth-first search from [start], calls [succ] on a key when the
    search first leaves it and [marks] when it discovers it, and
    numbers keys in discovery order in an {!Int_index}.  Each open
    root keeps the union of the marks of the states it has absorbed;
    an edge back to an open state merges the roots above it into one,
    and the search stops as soon as that root covers every set.  A
    state with every mark but on no cycle accepts nothing.  The mark
    sets are {!Iset}s, so [sets] has no cap.

    [visited] counts the keys discovered: all those reachable from
    [start] when [accepting] is [false], usually far fewer when it is
    [true].  [?budget] is ticked once per key discovered, so a search
    spends exactly [visited] ticks. *)

val lasso :
  succ:(int -> int list) ->
  starts:int list ->
  Acceptance.t ->
  Iset.t ->
  int list * int list
(** [lasso ~succ ~starts acc s], for a cycle [s] satisfying [acc] and
    reachable from [starts] (such as {!accepting_scc} returns):
    [(prefix, cycle)], where [prefix] runs from a start to the anchor
    [min s], both included, and [cycle] is the closed walk after the
    anchor back to it (at least one step).  The walk stays inside [s]
    and passes through one state of every [Inf] atom meeting [s], so
    its state set satisfies [acc]: the condition is positive, and the
    walk meets the same [Inf] atoms as [s] and no [Fin] set that [s]
    avoids.  Raises [Invalid_argument] if [s] is not such a cycle. *)
