(** On-the-fly language inclusion for complete deterministic
    omega-automata, plus the emptiness core it is built on (which
    {!Lang} re-exports).

    {2 The engine}

    [included a b] decides [L(a) <= L(b)] by searching the reachable
    synchronous product {e lazily} — never building
    [Automaton.complement] into a product table the way the test
    suite's complement-and-product oracle does.  For deterministic operands the antichain construction
    (Wulf-Doyen-Henzinger-Raskin, CAV 2006) collapses to its best
    case: every macro-state is a singleton pair, so the difference
    [L(a) \ L(b)] is non-empty iff a reachable cycle of pairs satisfies
    [a.acc /\ dual b.acc].  One {!Emptiness.on_the_fly} search answers
    that, and stops at the first accepting SCC:

    - {b keys}: the pair [(qa, qb)] is the key [(qa lsl s) lor qb],
      with [s] the bit width of [b]'s state numbers (the least [s] with
      [b.n <= 2{^s}]), so a pair's components are read back with a
      shift and a mask; a successor's position is its letter: the search asks for one
      letter at a time, in order, while the pair's frame is on top of
      its stack, and the successor is read from [a.delta] and
      [b.delta] only then, so a search that accepts early never
      generates the rest;
    - {b dead-[a] pruning}: a letter whose [a]-successor has an empty
      residual language ([live_states a]) answers {!Emptiness.skip},
      as no accepting cycle passes through or after that pair (the
      antichain/simulation order on pairs);
    - {b marks}: each distinct atom set of [a.acc] and of [dual b.acc]
      is one mark, and a pair carries those its components lie in; a
      [Fin] atom splits the search into runs (see
      {!Emptiness.on_the_fly}).

    The engine takes no pool: the search is sequential.

    {2 Observability}

    Work is charged one {!Budget.tick} per pair discovered, in each run
    of the search.  One [inclusion.search] span (around [live_states a]
    and the search) and the counters [inclusion.pairs] (pairs
    discovered, summed over the runs), [inclusion.pruned] (dead-[a]
    letters the search asked for: at most once per letter of each pair
    discovered in each run, and all of them in a run that finds
    nothing; again whenever a run re-checks a finished SCC for a [Fin]
    atom left in its condition and walks its pairs' letters once more)
    and [inclusion.same_table] report to
    [?telemetry] (default: the ambient handle). *)

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
    searched product has at most [a.n] pairs, against the oracle's
    complement-and-emptiness over all of [a]. *)

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
