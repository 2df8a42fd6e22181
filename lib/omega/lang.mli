(** Language-level operations on deterministic omega-automata: emptiness
    and inclusion, prefix languages, the safety closure, and the
    safety-liveness machinery of section 2 (with its topological reading,
    section 3). *)

(** Is the accepted language non-empty?  Exact for every acceptance
    condition ({!Emptiness.accepting_states}). *)
val nonempty : Automaton.t -> bool

val is_empty : Automaton.t -> bool

(** A lasso word accepted by the automaton, if any: a prefix to a
    reachable accepting cycle ({!Emptiness.accepting_scc}) and the
    closed walk {!Emptiness.lasso} builds inside it, each state step
    read back as the first letter taking it. *)
val witness : Automaton.t -> Finitary.Word.lasso option

(** The engine behind {!included}/{!equal}/{!is_universal} on operands
    with distinct transition tables: [`Antichain] (the default)
    explores the product lazily via {!Inclusion}; [`Explicit] builds
    the complement and the full product — asymptotically worse, kept
    as the differential-test oracle.  Verdicts are identical; only
    cost and telemetry counters differ.

    Selection is layered: every query takes an optional [?engine]
    argument; absent that, a [Domain.DLS] scoped override installed by
    {!with_engine} applies; absent both, the process-wide default set
    by {!set_engine}.  Long-lived concurrent hosts (the serve daemon)
    must use the scoped forms — a global flip is visible to every
    in-flight request on every domain. *)
type engine = [ `Antichain | `Explicit ]

val set_engine : engine -> unit
(** Set the process-wide default engine ([Atomic]; safe but global —
    prefer {!with_engine} anywhere requests may overlap). *)

val engine : unit -> engine
(** The calling domain's effective engine: the scoped override if one
    is installed, the process-wide default otherwise. *)

val with_engine : engine -> (unit -> 'a) -> 'a
(** [with_engine e f] runs [f ()] with the engine forced to [e] on the
    calling domain only (restored afterwards, also on exceptions).
    Registered as a {!Kernel.Ambient} provider: {!Pool} tasks
    submitted inside [f] inherit [e] on their worker domains. *)

(** Does the automaton accept every infinite word? *)
val is_universal : ?engine:engine -> Automaton.t -> bool

(** Language inclusion / equality.  Three mechanisms cut the repeated
    work: a same-transition-table fast path that replaces any product
    with an acceptance-only emptiness check (engine-independent), the
    lazy {!Inclusion} engine for different-table queries (default),
    and — on the explicit oracle path — a shared size-bounded
    complement cache ({!Kernel.Cache}, keyed by {!Automaton.t.uid}).
    All report counters to the ambient {!Telemetry} handle
    ([lang.complement.request/hit/miss],
    [lang.included.same_table/antichain/product]).  One inclusion
    runs sequentially: the pool argument is accepted and ignored, and
    stays only because [perfbench/w_large.ml] passes one; it goes when
    that file may change (ROADMAP item 6). *)
val included : ?pool:Pool.t -> ?engine:engine -> Automaton.t -> Automaton.t -> bool

val equal : ?engine:engine -> Automaton.t -> Automaton.t -> bool
(** Both inclusion directions, in order: the second runs only when the
    first holds. *)

(** [set_caches false] disables the complement cache and the
    same-table fast path, forcing the cold path on every
    query (and dropping resident entries — the caches are shared
    across domains, so this reaches entries warmed by pool workers
    too).  Test instrumentation for differential cache-consistency
    checks — not for production use.  Default: enabled.  Lookups are
    gated on the effective toggle, so a disabled cache never serves a
    previously-warmed hit. *)
val set_caches : bool -> unit

val with_caches : bool -> (unit -> 'a) -> 'a
(** Scoped, calling-domain-only override of the {!set_caches} toggle
    (restored afterwards, also on exceptions); a {!Kernel.Ambient}
    provider propagates it into {!Pool} tasks.  The form concurrent
    hosts must use. *)

val set_complement_cache_capacity : int -> unit
(** Bound (in approximate resident bytes) on the shared complement
    cache; [<= 0] disables it.  Default: 4 MiB.  Shrinking evicts
    immediately (2-random policy — see {!Kernel.Cache}). *)

val complement_cache_stats : unit -> Cache.stats

(** A lasso in the symmetric difference, if the languages differ. *)
val distinguishing_witness :
  Automaton.t -> Automaton.t -> Finitary.Word.lasso option

(** [live_states a]: per-state flag, true iff the language of the
    automaton started at that state is non-empty.  [?budget] is ticked
    once per SCC the search examines. *)
val live_states : ?budget:Budget.t -> Automaton.t -> bool array

(** [pref a]: the paper's [Pref(Pi)] as a DFA — the non-empty finite
    words extendable to an accepted infinite word. *)
val pref : Automaton.t -> Finitary.Dfa.t

(** The safety closure [A(Pref(Pi))] — topologically, the closure
    [cl(Pi)] (section 3 proves these coincide; we implement the left side
    and the test suite checks closure axioms).  The result shares the
    argument's transition table; the work is {!live_states}, which
    ticks [?budget].  The pool argument is accepted and ignored, and
    stays only because [perfbench/w_large.ml] passes one; it goes when
    that file may change (ROADMAP item 6). *)
val safety_closure :
  ?budget:Budget.t -> ?pool:Pool.t -> Automaton.t -> Automaton.t

(** The liveness extension [L(Pi) = Pi union E(not Pref(Pi))] used in the
    decomposition theorem.  Same [?budget] behavior as
    {!safety_closure}. *)
val liveness_extension : ?budget:Budget.t -> Automaton.t -> Automaton.t

(** Is the property a liveness property ([Pref(Pi) = Sigma+];
    topologically: is the set dense)? *)
val is_liveness : Automaton.t -> bool

(** The decomposition [Pi = Pi_S inter Pi_L] of the paper's claim:
    returns (safety closure, liveness extension), each ticking
    [?budget] as {!live_states} does. *)
val safety_liveness_decomposition :
  ?budget:Budget.t -> Automaton.t -> Automaton.t * Automaton.t

(** Is the property a {e uniform} liveness property: is there a single
    infinite word [w] with [Sigma+ . w <= Pi]?  Decided exactly by a
    product over all states reachable in at least one step — a subset
    construction, worst-case exponential in [a.n], so the expansion
    ticks [?budget] once per vector state.  Its m-fold conjunction of
    acceptance copies is decided by {!Emptiness.accepting_scc}, never
    in DNF, with a deadline check per recursion step.  Raises
    [Budget.Tripped] when fuel or the deadline runs out. *)
val is_uniform_liveness : ?budget:Budget.t -> Automaton.t -> bool
