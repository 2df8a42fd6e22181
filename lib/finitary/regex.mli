(** Regular expressions over a finite alphabet, in the paper's notation.

    Concrete syntax (used throughout tests and examples to transcribe the
    paper's languages):

    - a single character names a letter of the alphabet;
    - ['lock'] or ["lock"] (quoted) names a multi-character letter, and
      [{p,q}] (braces included in the name) a propositional letter;
    - ['.'] is any letter (the paper's [Sigma]);
    - juxtaposition is concatenation, ['+'] is union (as in the paper);
    - postfix ['*'] and [^*] are Kleene star, [^+] is Kleene plus,
      [^3] is a fixed power;
    - parentheses group; ["()"] denotes the empty word.

    Example: the paper's [a{^+}b{^*}] is written ["a^+ b*"], and
    [(a{^6}){^*}a{^2} + (a{^6}){^*}a{^4}] is
    ["(a^6)^* a^2 + (a^6)^* a^4"]. *)

type t =
  | Empty  (** the empty language *)
  | Eps  (** the empty word *)
  | Letter of Alphabet.letter
  | Any  (** any single letter *)
  | Alt of t * t
  | Seq of t * t
  | Star of t
  | Plus of t
  | Pow of t * int

(** [parse alpha s] parses the concrete syntax above.
    Raises [Invalid_argument] with a position message on syntax errors. *)
val parse : Alphabet.t -> string -> t

(** [size e] is the number of states {!to_nfa} builds for [e] (the
    Thompson construction's state count, powers multiplied out),
    saturating at [max_int].  Linear in the size of [e], not of its
    unrolling, so a caller can charge a budget before compiling. *)
val size : t -> int

(** Compile to an epsilon-NFA (Thompson construction). *)
val to_nfa : Alphabet.t -> t -> Nfa.t

(** [compile alpha s]: parse, compile, determinize, minimize.  The main
    entry point for building finitary properties from paper notation. *)
val compile : Alphabet.t -> string -> Dfa.t

(** Compile an already-parsed expression. *)
val to_dfa : Alphabet.t -> t -> Dfa.t

val pp : Alphabet.t -> t Fmt.t
