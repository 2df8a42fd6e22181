(** Deterministic testers for past formulae (the construction behind
    Proposition 5.3 of the paper).

    The truth value of a past formula at each position of a word is a
    function of the current letter and the truth values of its past
    subformulae at the previous position.  Tracking the vector of those
    truth values therefore yields a {e deterministic} automaton over the
    alphabet which, after reading any non-empty word, knows the value of
    every tracked formula at the word's last position.

    This single device yields: the DFA for the paper's [esat(p)] (the
    finitary property defined by a past formula), the kappa-formula to
    kappa-automaton translation, and the compilation of mixed past/future
    formulae for the tableau. *)

type t

(** [make alpha ps] builds a tester tracking every formula in [ps]
    simultaneously.  Raises [Invalid_argument] if some [p] is not a past
    formula, mentions an atom unknown to [alpha], or if the combined
    closure exceeds 62 subformulae.

    Cost: one pass over the closure to compile it (slots and opcodes),
    [|alpha|] evaluations of each atom, then one step per reachable
    state and letter, each linear in the closure size and followed by
    one lookup of the [int] vector in an {!Int_index}.  A state is the
    full truth vector of the closure, so {!value} can read any tracked
    formula; the tableau reads them all.  The result has at most
    [2{^s} + 1] states for [s] subformulae, but only the reachable ones
    are built. *)
val make : Finitary.Alphabet.t -> Formula.t list -> t

val alpha : t -> Finitary.Alphabet.t

(** Number of reachable tester states. *)
val n_states : t -> int

(** The state before any letter has been read. *)
val initial : t -> int

val step : t -> int -> Finitary.Alphabet.letter -> int

(** [value tester q i]: truth of the [i]-th tracked formula at the last
    position read, in state [q].  Raises [Invalid_argument] in the initial
    state (no position has been read yet). *)
val value : t -> int -> int -> bool

(** [esat alpha p] is the paper's [esat(p)]: the DFA over [alpha]
    accepting exactly the non-empty words that end-satisfy [p].
    (The DFA rejects the empty word.)  The result is minimized.

    It does not go through {!make}.  Its tester keys a state by the
    bits that a later step or acceptance reads, not by the full truth
    vector: the operands of [Y]/[Z], the [S]/[W]/[O]/[H] slots
    themselves, and the root.  Two full vectors that agree on those
    bits have the same future, so the smaller tester accepts the same
    words; on the [classify] corpus it has about 70% of the full
    tester's states.  Cost: {!make}'s compilation and BFS on that
    smaller tester, then one {!Finitary.Dfa.minimize} of it.

    No function turns a {!make} tester into a DFA ([to_dfa] is gone):
    a caller that tracks several formulae on one structure reads
    {!step} and {!value}. *)
val esat : Finitary.Alphabet.t -> Formula.t -> Finitary.Dfa.t
