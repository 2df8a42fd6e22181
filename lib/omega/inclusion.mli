(** On-the-fly language inclusion for complete deterministic
    omega-automata, plus the emptiness core it is built on (which
    {!Lang} re-exports).

    {2 The engine}

    [included a b] decides [L(a) <= L(b)] by exploring the reachable
    synchronous product {e lazily} — never building
    [Automaton.complement] into a product table the way the explicit
    path does.  For deterministic operands the antichain construction
    (Wulf-Doyen-Henzinger-Raskin, CAV 2006) collapses to its best
    case: every macro-state is a singleton pair, so the engine is the
    reachable product with

    - {b dead-[a] pruning}: pairs whose [a]-component has an empty
      residual language are folded into one absorbing reject sink (the
      antichain/simulation order on pairs);
    - {b interned ids}: reachable pairs get dense ids, and emptiness
      is one {!Emptiness.accepting_scc} search over the explored arrays
      (every interned pair is reachable, so no extra reachability
      pass), with each acceptance atom lifted to the pairs whose
      component lies in it.

    Exploration and emptiness are sequential: the engine takes no
    pool.

    {2 Observability}

    Work is charged one {!Budget.tick} per expanded pair.  Spans
    [inclusion.explore] / [inclusion.emptiness] and counters
    [inclusion.pairs] / [inclusion.pruned] / [inclusion.same_table]
    report to [?telemetry] (default: the ambient handle); the
    emptiness search calls {!Budget.check} once per step. *)

val included :
  ?budget:Budget.t ->
  ?telemetry:Telemetry.t ->
  Automaton.t ->
  Automaton.t ->
  bool
(** [included a b]: is [L(a) <= L(b)]?  Operands sharing one
    transition table (safety closures, [with_acc] variants) short-cut
    to an acceptance-only emptiness check on the shared graph.  Raises
    [Invalid_argument] on an alphabet mismatch and [Budget.Tripped]
    when [?budget] runs out. *)

val equal :
  ?budget:Budget.t ->
  ?telemetry:Telemetry.t ->
  Automaton.t ->
  Automaton.t ->
  bool
(** Both inclusion directions, left one first (short-circuiting). *)

val is_universal :
  ?budget:Budget.t ->
  ?telemetry:Telemetry.t ->
  Automaton.t ->
  bool
(** [is_universal a] = [included (Automaton.full a.alpha) a]: the
    explored product has at most [a.n] pairs, against the explicit
    path's complement-and-emptiness over all of [a]. *)

(** {2 Emptiness core}

    Moved here from [Lang] (which re-exports it) so the engine can
    prune on [live_states] without a module cycle. *)

val nonempty : Automaton.t -> bool

val is_empty : Automaton.t -> bool

val live_states : ?budget:Budget.t -> Automaton.t -> bool array
(** Per-state flag: can a run entering this state be continued into an
    accepting one?  Backward reachability to
    {!Emptiness.accepting_states} over all states, which ticks
    [?budget] once per SCC it examines. *)
