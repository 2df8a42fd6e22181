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

(** Does the automaton accept every infinite word?
    ({!Inclusion.is_universal}) *)
val is_universal : Automaton.t -> bool

(** Language inclusion, decided by {!Inclusion}'s on-the-fly product
    search, which short-cuts operands sharing one transition table.
    Its [inclusion.*] counters go to the ambient {!Telemetry} handle.
    The test suite checks every verdict against an independent
    complement-and-product oracle ([Scans.included_by_product]).
    One inclusion runs sequentially: the pool argument is accepted and
    ignored, and stays only because [perfbench/w_large.ml] passes one;
    it goes when that file may change (ROADMAP item 6).  Raises
    [Invalid_argument] when the two alphabets differ. *)
val included : ?pool:Pool.t -> Automaton.t -> Automaton.t -> bool

val equal : Automaton.t -> Automaton.t -> bool
(** Both inclusion directions, in order: the second runs only when the
    first holds.  Raises [Invalid_argument] when the two alphabets
    differ. *)

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
    topologically: is the set dense)?  A read of the bottom SCCs of a
    fresh {!Classify.forest} ({!Classify.liveness}): every one must hold
    an accepting cycle. *)
val is_liveness : Automaton.t -> bool

(** The decomposition [Pi = Pi_S inter Pi_L] of the paper's claim:
    returns (safety closure, liveness extension), each ticking
    [?budget] as {!live_states} does. *)
val safety_liveness_decomposition :
  ?budget:Budget.t -> Automaton.t -> Automaton.t * Automaton.t

(** Is the property a {e uniform} liveness property: is there a single
    infinite word [w] with [Sigma+ . w <= Pi]?  Decided exactly by one
    {!Emptiness.on_the_fly} search of the synchronous product of [m]
    copies of the automaton, started at the [m] states reachable in at
    least one step.  Its keys are vector states, and a successor's
    position is its letter: a vector is interned only when the search
    asks for it (there can be exponentially many in [a.n]).  Its
    condition is the [And] of the [m] copies of [a.acc], each on its own
    marks, never put in DNF.  The search stops at the first accepting
    cycle, and ticks [?budget] once per vector it discovers in each of
    its at most two runs (once in all when the condition is false on
    every cycle, so the first tick always falls inside the call).
    Raises [Budget.Tripped] when fuel or the deadline runs out. *)
val is_uniform_liveness : ?budget:Budget.t -> Automaton.t -> bool
