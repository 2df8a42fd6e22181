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
    - {b positional acceptance}: atoms of [b]'s dualized condition are
      shifted by [a.n] and evaluated by pair membership, so no
      quadratic lifting of acceptance sets ever happens;
    - {b interned ids}: reachable pairs get dense ids, and emptiness
      is one SCC scan over the explored arrays (every interned pair is
      reachable, so no extra reachability pass).

    {2 Determinism under [?pool]}

    The product exploration is sequential.  [?pool] fans out only the
    per-conjunct SCC passes: those of {!live_states} (dead-[a]
    pruning) and those of the final emptiness scan, which keeps the
    left-to-right short-circuit semantics.  Verdicts, telemetry
    counters and budget trip points are identical at every job count.

    {2 Observability}

    Work is charged one {!Budget.tick} per expanded pair.  Spans
    [inclusion.explore] / [inclusion.emptiness] and counters
    [inclusion.pairs] / [inclusion.pruned] / [inclusion.same_table]
    report to [?telemetry] (default: the ambient handle). *)

val included :
  ?budget:Budget.t ->
  ?telemetry:Telemetry.t ->
  ?pool:Pool.t ->
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
  ?pool:Pool.t ->
  Automaton.t ->
  Automaton.t ->
  bool
(** Both inclusion directions, left one first (short-circuiting). *)

val is_universal :
  ?budget:Budget.t ->
  ?telemetry:Telemetry.t ->
  ?pool:Pool.t ->
  Automaton.t ->
  bool
(** [is_universal a] = [included (Automaton.full a.alpha) a]: the
    explored product has at most [a.n] pairs, against the explicit
    path's complement-and-emptiness over all of [a]. *)

(** {2 Emptiness core}

    Moved here from [Lang] (which re-exports them) so the engine can
    prune on [live_states] without a module cycle. *)

val nonempty : Automaton.t -> bool

val is_empty : Automaton.t -> bool

val exists_accepting_cycle : ?budget:Budget.t -> Automaton.t -> bool
(** Does some reachable cycle satisfy the acceptance condition?  The
    same answer as {!nonempty}, reached by Emerson-Lei SCC recursion
    (Baier et al., ATVA 2019) instead of {!Acceptance.dnf}: the
    condition is restricted to each SCC and split on one [Fin] atom at
    a time, so the cost is exponential in the number of distinct [Fin]
    sets after restriction, not in the DNF width.  Meant for wide
    conjunctions (the m-fold condition of uniform liveness), where the
    DNF blows up; it answers for the start state only, whereas
    {!live_states} answers per state.  Each recursion step calls
    {!Budget.check} on [?budget] (no fuel spent), so a deadline bounds
    it; raises [Budget.Tripped] when one passes. *)

val maximal_accepting_cycles :
  ?budget:Budget.t -> Automaton.t -> Acceptance.t -> Iset.t -> Iset.t list
(** [maximal_accepting_cycles a acc s]: the maximal cycles inside the
    cycle [s] (a strongly connected state set carrying an edge) that
    satisfy [acc], found by the recursion of {!exists_accepting_cycle}
    run to completion.  Every cycle inside [s] satisfying [acc] is
    contained in a member, and no member contains another; [[s]] when
    [s] itself satisfies [acc].  [Budget.check] once per recursion
    step. *)

val live_states :
  ?budget:Budget.t ->
  ?telemetry:Telemetry.t ->
  ?pool:Pool.t ->
  Automaton.t ->
  bool array
(** Per-state flag: can a run entering this state be continued into an
    accepting one?  Multi-conjunct acceptance conditions fan their
    per-conjunct SCC passes out on [?pool]; the parent [?budget] is
    ticked once per DNF conjunct on the submitting domain, so trip
    positions are identical with and without a pool at every job
    count. *)

val restricted_sccs : Automaton.t -> Iset.t -> int list list
(** SCCs of the automaton graph restricted to states outside the given
    [Fin] set. *)

val scc_nontrivial : Automaton.t -> Iset.t -> int list -> bool
(** Does the component carry a cycle avoiding the given [Fin] set? *)
