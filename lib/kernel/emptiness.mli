(** Emerson-Lei emptiness over explicit graphs, and on the fly: the one
    place that searches for cycles satisfying an acceptance condition.

    A {e cycle} is a non-empty state set whose induced subgraph is
    strongly connected and carries an edge; cycles are exactly the
    possible infinity sets of runs, so every question the hierarchy
    asks of a run's limit behavior — emptiness, the live states, a
    witness lasso, the §5.1 cycle-structure checks, fair computations
    of a transition system — is a question about the cycles that
    satisfy a condition.

    Two searches answer it.  The explicit functions are written over
    [~n ~succ] (states [0 .. n-1], successor lists) for questions that
    need the cycles themselves: automata, transition-system graphs and
    the tableau's witness search share them.  {!on_the_fly} only says
    whether an accepting cycle is reachable, and builds no graph: the
    tableau's emptiness checks and products and the inclusion engine's
    pair product go through it.

    The Emerson-Lei condition is never put in disjunctive normal form.
    In the explicit functions it is, on each cycle-carrying SCC,
    restricted to the SCC (atom sets intersected with it) and
    simplified; a [Fin]-free remainder is monotone, so the SCC itself
    decides it; otherwise one [Fin X] splits the search into the SCCs
    of the SCC minus [X] and the SCC itself with [Fin X] false (Baier,
    Blahoudek, Duret-Lutz, Klein, Mueller, Strejcek, "Generic
    emptiness check for fun and profit", ATVA 2019).  Every step
    either drops a distinct [Fin] atom or shrinks the SCC, so the cost
    is exponential only in the number of distinct [Fin] sets left
    after restriction, never in the width of the DNF.  {!on_the_fly}
    splits once into two runs, and leaves what is left to this
    recursion inside each SCC it finishes. *)

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

type search = { accepting : bool; visited : int; runs : int }
(** The outcome of {!on_the_fly}: whether an accepting cycle is
    reachable, how many keys the search discovered, summed over its
    runs, and how many runs it made. *)

val skip : int
(** [-1]: what [succ k i] answers when position [i] of [k] holds no
    successor (see {!on_the_fly}). *)

val past_end : int
(** [-2]: what [succ k i] answers when [k] has no position [i] or
    later; any answer below [-1] means the same. *)

val on_the_fly :
  ?budget:Budget.t ->
  marks:(int -> Iset.t) ->
  succ:(int -> int -> int) ->
  Acceptance.t ->
  int ->
  search
(** [on_the_fly ~marks ~succ acc start]: is a cycle reachable from
    [start] whose marks satisfy [acc]?  States are non-negative int
    keys, not a dense range, and [marks k] is the set of mark indices
    [k] carries.  Successors are asked for by position: for [i = 0, 1,
    ...], [succ k i] is the successor of [k] at position [i] (a key),
    {!skip} when that position holds none, and {!past_end} once [i] is
    past [k]'s last position.  The search asks for [k]'s positions in
    increasing order from [0], never twice for one position in one
    walk, and stops asking as soon as it accepts, so a caller may
    generate a successor only when it is asked for.  The atoms of
    [acc] are sets of mark indices, and a cycle satisfies [acc] when
    the union of its keys' marks does ([Acceptance.eval]): [Inf X]
    holds when some key on the cycle carries a mark in [X], [Fin X]
    when none does.  A generalized Buechi condition with [n] sets is
    [And [Inf {0}; ...; Inf {n-1}]].  [acc] is searched as given:
    [False] makes no run, so a caller whose condition may simplify to
    [False] passes it through [Acceptance.simplify] first.

    The graph is never built: Couvreur's SCC-root-stack search
    ("On-the-fly verification of linear temporal logic", FM 1999) runs
    a depth-first search from [start], calls [marks] on a key when it
    discovers it, and numbers keys in discovery order in an
    {!Int_index}.  A depth-first frame is three ints on an
    {!Int_stack} (the key's number, the key and its next position),
    and [succ] is asked for a key's next position only while its frame
    is on top; roots and open states are ints on stacks of their own.
    Every stack starts as a small literal and, past one chunk, grows by
    adding chunks, and the index adds 16-slot pages that never move, so
    the search does not copy its frames, roots or keys as it deepens,
    and its memory follows the keys it reaches, not the range of the
    keys.  Each open root keeps the union of the marks of the states it
    has absorbed; an edge back to an open state merges the roots above
    it into one, and for a [Fin]-free condition, which is monotone, the
    run stops as soon as that root's union satisfies it.  A key whose marks satisfy
    the condition but that lies on no cycle accepts nothing.

    The condition's first [Fin X] splits the search (Baier et al.,
    "Generic emptiness check for fun and profit", ATVA 2019): one run
    cuts the keys marked in [X] and sets [Fin X] true; if it finds
    nothing, another sets [Fin X] false.  A cut key is reached and
    expanded only when the depth-first stack is empty, so it never sits
    on a cycle, and each atom is restricted to the marks outside the
    cut.  The split is made once, so there are at most two runs.  A
    run whose condition still has a [Fin] evaluates it on each merged
    root's marks as well, and when an SCC of several states finishes
    without accepting, decides the SCC with {!accepting_scc} on the
    condition restricted to its marks, if that still has a [Fin]; that
    check walks the positions of the SCC's keys once more, from [0]
    to {!past_end}.

    [visited] counts the keys discovered, summed over the [runs]: a run
    that finds nothing discovers every key reachable from [start], and
    asks for every position of every key it discovers.  [?budget] is
    ticked once per key discovered in each run, so a search spends
    exactly [visited] ticks. *)

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
