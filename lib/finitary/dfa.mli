(** Complete deterministic finite automata over a finite alphabet.

    DFAs represent the paper's {e finitary properties}: subsets of
    [Sigma{^+}] (and, technically, of [Sigma{^*}]; the empty word's
    membership is irrelevant to every construction in the paper and is
    reported by {!accepts_empty}).  All automata are complete: every state
    has a successor on every letter. *)

type state = int

type t = private {
  alpha : Alphabet.t;
  n : int;  (** number of states, numbered [0 .. n-1] *)
  start : state;
  delta : state array array;  (** [delta.(q).(a)] *)
  accept : bool array;
}

(** [make ~alpha ~n ~start ~delta ~accept] checks well-formedness
    (completeness, ranges) and builds the automaton. *)
val make :
  alpha:Alphabet.t ->
  n:int ->
  start:state ->
  delta:state array array ->
  accept:bool array ->
  t

(** The automaton accepting no word. *)
val empty_lang : Alphabet.t -> t

(** The automaton accepting every word (including the empty word). *)
val full : Alphabet.t -> t

(** The automaton accepting exactly [Sigma{^+}]. *)
val sigma_plus : Alphabet.t -> t

(** [word_lang a w] accepts exactly the word [w]. *)
val word_lang : Alphabet.t -> Word.t -> t

val step : t -> state -> Alphabet.letter -> state

(** [run d w] is the state reached from the start on [w]. *)
val run : t -> Word.t -> state

val accepts : t -> Word.t -> bool

val accepts_empty : t -> bool

(** Complement with respect to [Sigma{^*}] (callers complementing a
    finitary property with respect to [Sigma{^+}] should not rely on the
    empty word; all paper constructions are insensitive to it). *)
val complement : t -> t

val inter : t -> t -> t

val union : t -> t -> t

val diff : t -> t -> t

(** Symmetric difference. *)
val xor : t -> t -> t

(** Keep only states reachable from the start (renumbering states). *)
val trim : t -> t

(** Minimization by Hopcroft's partition refinement on the reachable
    part, in O(k·n·log n) time and O(k·n) space for [n] reachable
    states and [k] letters, on flat arrays (inverse transitions per
    letter, blocks as ranges of one state array, a worklist of
    (block, letter) splitters).  A chain of [n] states, where Moore
    refinement needs [n] rounds, costs one pass.  Classes are numbered
    by BFS from the start over letters in order, so the result is the
    canonical minimal complete DFA for the language: equal languages
    give structurally equal automata. *)
val minimize : t -> t

(** Is the accepted language empty? *)
val is_empty : t -> bool

(** Is the language empty when restricted to non-empty words (i.e. as a
    finitary property in the paper's sense, a subset of [Sigma{^+}])? *)
val is_empty_nonepsilon : t -> bool

(** Does it accept every word? *)
val is_universal : t -> bool

(** [equal d1 d2]: same language.  [Invalid_argument] on different
    alphabets. *)
val equal : t -> t -> bool

(** [included d1 d2]: language inclusion. *)
val included : t -> t -> bool

(** Language equality / inclusion as finitary properties, i.e. ignoring the
    empty word. *)
val equal_nonepsilon : t -> t -> bool

val included_nonepsilon : t -> t -> bool

(** A shortest accepted word, if any. *)
val shortest_accepted : t -> Word.t option

(** All accepted words of length at most [max_len] (for tests and small
    demos). *)
val accepted_upto : t -> max_len:int -> Word.t list

(** States from which some accepting state is reachable. *)
val live_states : t -> bool array

val pp : t Fmt.t
