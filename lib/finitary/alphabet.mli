(** Finite alphabets.

    The paper works with an abstract set of states [Sigma]; every concrete
    example uses a finite alphabet.  A letter is an integer in
    [0 .. size - 1].  Two flavours are provided:

    - {e symbolic} alphabets whose letters are named symbols
      (['a'], ['b'], ...), matching the paper's language-theoretic examples;
    - {e propositional} alphabets whose letters are valuations of a finite
      set of boolean propositions, matching the predicate-automaton view
      where computation states interpret state formulae. *)

type t

type letter = int

(** [of_chars "ab"] builds the symbolic alphabet [{a, b}].  Letters are
    numbered in string order.  Raises [Invalid_argument] on duplicates or
    an empty string. *)
val of_chars : string -> t

(** [of_names names] builds a symbolic alphabet with one letter per name. *)
val of_names : string list -> t

(** [of_props props] builds the propositional alphabet over the given
    atomic propositions: [2^n] letters, letter [i] making proposition [j]
    true iff bit [j] of [i] is set. *)
val of_props : string list -> t

val size : t -> int

val letters : t -> letter list

(** Human-readable name of a letter: the symbol name, or a set-like
    rendering such as ["{p,q}"] for propositional letters. *)
val letter_name : t -> letter -> string

(** [letter_of_name a n] is the letter named [n].
    Raises [Invalid_argument] — naming [n] and listing the alphabet —
    if no such letter exists (use {!letter_of_name_opt} to probe). *)
val letter_of_name : t -> string -> letter

(** [letter_of_name_opt a n] is [Some] of the letter named [n], or
    [None] if no such letter exists.  Never raises. *)
val letter_of_name_opt : t -> string -> letter option

(** [holds a atom l] evaluates an atomic state formula on a letter: for
    symbolic alphabets, [atom] must name a letter and holds iff [l] is that
    letter; for propositional alphabets, [atom] must name a proposition and
    holds iff the valuation [l] sets it.  Raises [Invalid_argument] on an
    unknown atom. *)
val holds : t -> string -> letter -> bool

(** [truth a atom] is [holds a atom] on every letter, indexed by letter,
    after one lookup of the name: [Array.init (size a) (holds a atom)]
    without a name scan per letter.  Raises the same [Invalid_argument]
    as {!holds} on an unknown atom. *)
val truth : t -> string -> bool array

(** The atoms usable with {!holds}: letter names or proposition names. *)
val atoms : t -> string list

val equal : t -> t -> bool

val pp : t Fmt.t

val pp_letter : t -> letter Fmt.t
