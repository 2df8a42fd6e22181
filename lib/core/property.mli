(** The hierarchy, assembled: analyze a property in all four views.

    A property is given as a deterministic omega-automaton (any property
    in this library reduces to one — from a temporal formula via
    {!Omega.Of_formula}, from finitary languages via {!Omega.Build}, or
    directly).  The report places it in the hierarchy of Figure 1 and in
    the orthogonal safety-liveness classification. *)

type report = {
  semantic : Kappa.t;
      (** class of the denoted property (automata view, §5.1), exact *)
  syntactic : Kappa.t option;
      (** class of the canonical formula, when one was supplied
          (temporal logic view, §4); an upper bound for [semantic] *)
  memberships : (Kappa.t * bool option) list;
      (** one row of Figure 1's membership matrix, every column [Some] *)
  is_liveness : bool;  (** SL classification: topologically dense (§2-3) *)
  is_uniform_liveness : bool;
  counter_free : bool;
      (** expressible in temporal logic at all (§5, McNaughton-Papert) *)
  n_states : int;
}

(** Analyze an automaton (optionally recording the formula it came
    from for the syntactic column). *)
val analyze : ?formula:Logic.Formula.t -> Omega.Automaton.t -> report

(** Translate a canonical formula over the given alphabet and analyze
    it; [None] outside the canonical fragment. *)
val analyze_formula :
  Finitary.Alphabet.t -> Logic.Formula.t -> report option

(** Parse, translate, analyze. *)
val analyze_string : Finitary.Alphabet.t -> string -> report option

(** The decomposition theorem: [Pi = Pi_S inter Pi_L] with [Pi_S] the
    safety closure and [Pi_L] the liveness extension — and [Pi_L] is a
    live kappa-property for the same class kappa (the paper's
    orthogonality observation). *)
val safety_liveness_decomposition :
  Omega.Automaton.t -> Omega.Automaton.t * Omega.Automaton.t

val pp_report : report Fmt.t
