(** Shared graph kernel for the automata, transition-system and tableau
    layers: strongly connected components and reachability over explicit
    graphs on states [0 .. n-1].

    Every traversal is {e iterative} (explicit stacks, no recursion), so
    the algorithms scale to graphs far beyond the OCaml stack limit —
    classifying automata with hundreds of thousands of states must not
    overflow.  Successors are given as a function so callers can plug in
    adjacency arrays, filtered views or product graphs without copying.

    [sccs], [sccs_in] and [sccs_region] run one Tarjan implementation
    and return the components in the same order as a recursive
    depth-first Tarjan visiting states [0, 1, ...] and successor lists
    left to right: components are emitted at completion time (sinks
    first) and accumulated head-first, so the {e returned list} is in
    topological order (a component never has an edge into an earlier
    one).  Each component lists its root first, then the rest of its
    states in discovery order.  [succ] is called once per visited
    state, and an examined edge allocates nothing.  Each call adds the
    visited states to the ambient [graph.scc.nodes] counter and the
    components to [graph.scc.components]. *)

(** All strongly connected components of the graph with states
    [0 .. n-1] and successor lists [succ]. *)
val sccs : n:int -> succ:(int -> int list) -> int list list

(** Components of the subgraph induced on [allowed] states: states
    failing [allowed] are skipped entirely (neither visited nor
    traversed through).  Costs O(n + edges): every state is tried as a
    root. *)
val sccs_in :
  n:int -> succ:(int -> int list) -> allowed:(int -> bool) -> int list list

(** [sccs_region ~n ~succ region] is [sccs_in ~n ~succ ~allowed:(fun q
    -> Bitset.mem q region)], with the same components in the same
    order, at a cost proportional to the region rather than the graph:
    O(|region| + the edges leaving its states) time and space, plus
    one pass over [region]'s words.  A region covering less than an
    eighth of [0 .. n-1] is renumbered locally and never touches an
    [n]-sized array; a larger one is indexed directly.  [region] must
    lie within [0 .. n-1]. *)
val sccs_region :
  n:int -> succ:(int -> int list) -> Bitset.t -> int list list

(** [reachable ~n ~succ ~starts] flags every state reachable from any of
    [starts] (in zero or more steps). *)
val reachable : n:int -> succ:(int -> int list) -> starts:int list -> bool array

(** [reachable_in ~n ~succ ~allowed ~starts] restricts the search to
    [allowed] states; a start failing [allowed] is not flagged. *)
val reachable_in :
  n:int ->
  succ:(int -> int list) ->
  allowed:(int -> bool) ->
  starts:int list ->
  bool array

(** Does the component (given as a state list) carry at least one edge
    of the [succ] graph staying inside it?  (Distinguishes a real cycle
    from a trivial singleton component.) *)
val nontrivial : succ:(int -> int list) -> int list -> bool
