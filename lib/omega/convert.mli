(** The constructions of Proposition 5.1: a property of class kappa,
    given by an arbitrary (Streett) automaton, is specifiable by a
    kappa-{e shaped} automaton.

    Each conversion checks the semantic precondition and raises
    [Not_in_class] if the automaton's language is not in the class.
    Every construction is validated by the test suite with a language
    equality check against the input.

    Above guarantee, the shapes come from one construction, the
    ACD-transform of Casares, Colcombet and Fijalkow (ICALP 2021), read
    off {!Classify.decomposition}: a deterministic parity automaton with
    the fewest priorities, its min-parity condition written as a chain
    of Streett pairs.  The precondition (recurrence, or the obligation
    degree) is read off the same decomposition ({!Classify.forest}), so
    a conversion builds it once.  It ticks [?budget] once per output
    state (and the decomposition once per node, the precondition's
    nodes included), and is interrupted by [Budget.Tripped] when the
    budget runs out; [?telemetry] reaches the decomposition's
    [classify.rank_search] span. *)

exception Not_in_class of string

(** Safety shape: rejecting states are absorbing ("no transition from a
    bad state to a good state").  Same structure, acceptance
    [Fin dead]. *)
val to_safety : Automaton.t -> Automaton.t

(** Guarantee shape: accepting states absorbing. *)
val to_guarantee : Automaton.t -> Automaton.t

(** Recurrence shape: deterministic Buechi ([P = empty]).  The
    decomposition of a recurrence property has no accepting node below
    a rejecting one, so the transform uses priorities 0 and 1 only and
    its acceptance is [Inf] of the priority-0 states ([True] when every
    cycle accepts, [False] when none does). *)
val to_buchi :
  ?budget:Budget.t -> ?telemetry:Telemetry.t -> Automaton.t -> Automaton.t

(** Persistence shape: deterministic co-Buechi ([R = empty]); by duality
    from {!to_buchi}. *)
val to_cobuchi :
  ?budget:Budget.t -> ?telemetry:Telemetry.t -> Automaton.t -> Automaton.t

(** Convert to the shape canonical for the given class: safety and
    guarantee as above; [Recurrence] Buechi and [Persistence]
    co-Buechi; [Obligation k] (degree at most [k]) a weak automaton,
    every SCC inside or outside each acceptance atom; [Reactivity k]
    exactly as many Streett pairs ({!Acceptance.to_streett_pairs}) as
    the reactivity rank, which must be at most [k]. *)
val to_shape :
  ?budget:Budget.t ->
  ?telemetry:Telemetry.t ->
  Kappa.t ->
  Automaton.t ->
  Automaton.t
