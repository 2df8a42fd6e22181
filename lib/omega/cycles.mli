(** Accessible cycles of a deterministic automaton (section 5.1).

    A {e cycle} is a set of states [C] such that some cyclic path passes
    exactly through the states of [C]; equivalently, [C] is non-empty and
    the subgraph induced on [C] is strongly connected with at least one
    edge.  A cycle is {e accessible} if reachable from the start state.
    Cycles are exactly the possible infinity sets of runs, so the family
    [F] of {e accepting} cycles determines the property's position in the
    hierarchy (Wagner 1979; section 5.1 of the paper).

    Enumeration is exponential in the size of the largest SCC.  The
    classifier no longer calls it: the reactivity rank is read off the
    alternating cycle decomposition ({!Classify.reactivity_rank}), which
    visits only maximal cycles.  It remains for the shape conversions of
    Prop. 5.1 ({!Convert}), whose recurrence saturation and anticipation
    construction need the whole accepting family, and as the test
    oracle for the rank.

    [Too_large n] is raised beyond [max_scc] states in one SCC, for the
    first accessible SCC above the limit; no cycles are returned for
    any component (enumeration is all-or-nothing, so callers never act
    on a silently truncated family).  [Hierarchy.Engine] folds it into
    a structural budget exhaustion. *)

exception Too_large of int

(** All accessible cycles, each paired with its acceptance flag
    ([true] iff the cycle satisfies the automaton's condition), grouped
    by SCC.  [max_scc] defaults to 22.  [budget] is ticked once per
    candidate subset — the exponential inner loop — so a fuel or
    deadline budget interrupts the enumeration with [Budget.Tripped].
    [telemetry] wraps the whole enumeration in a [cycles.enumerate]
    span and records [cycles.sccs]/[cycles.subsets]/[cycles.found]
    counters plus a [cycles.scc_size] histogram. *)
val enumerate :
  ?budget:Budget.t ->
  ?max_scc:int ->
  ?telemetry:Telemetry.t ->
  Automaton.t ->
  (Iset.t * bool) list list

(** The family [F] of accessible accepting cycles (flattened). *)
val accepting_family :
  ?budget:Budget.t ->
  ?max_scc:int ->
  ?telemetry:Telemetry.t ->
  Automaton.t ->
  Iset.t list

(** Is the state set a cycle of the automaton (induced subgraph strongly
    connected, with at least one edge)? *)
val is_cycle : Automaton.t -> Iset.t -> bool
