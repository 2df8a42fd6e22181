(** Acceptance conditions on the infinity set of a run.

    The paper's automata carry a pair [(R, P)] of recurrent/persistent
    state sets (a one-pair Streett condition), or a list of such pairs
    (a full Streett condition).  We represent acceptance generally as a
    positive boolean combination of the atoms

    - [Inf S] — the run visits [S] infinitely often
      ([inf(r) /\ S <> empty]), and
    - [Fin S] — the run visits [S] only finitely often
      ([inf(r) /\ S = empty]),

    evaluated on the infinity set of the (unique, deterministic) run.
    Buechi, co-Buechi, Streett, Rabin and the paper's [(R, P)] pairs are
    special shapes; complementation is dualization; products combine
    conditions with [And]/[Or].  This uniformity is what makes the
    hierarchy's boolean-closure arguments executable. *)

type t =
  | True
  | False
  | Inf of Iset.t
  | Fin of Iset.t
  | And of t list
  | Or of t list

(** [eval acc inf_set]: does a run with this infinity set satisfy the
    condition? *)
val eval : t -> Iset.t -> bool

(** [eval_with ~meets acc run]: [eval] over any representation of the
    infinity set, given [meets run s] = "the infinity set [run] shares
    a state with [s]". *)
val eval_with : meets:('a -> Iset.t -> bool) -> t -> 'a -> bool

(** Logical negation ([Inf <-> Fin], [And <-> Or]). *)
val dual : t -> t

(** Apply a state renaming/expansion to every atom's state set. *)
val map_sets : (Iset.t -> Iset.t) -> t -> t

(** All states mentioned by the condition. *)
val states : t -> Iset.t

(** [number_atoms ~first ~n acc] = [(acc', marks, next)]: [acc] with
    each atom's state set replaced by one mark index, numbered from
    [first] up to [next - 1], equal sets sharing one; and per state of
    an [n]-state automaton, the marks of the atoms it lies in.  A run
    satisfies [acc] iff the union of its infinity set's marks satisfies
    [acc'], which is how the on-the-fly searches of products read a
    component's condition ({!Emptiness.on_the_fly}). *)
val number_atoms : first:int -> n:int -> t -> t * Iset.t array * int

(** The paper's basic automaton shapes. *)

(** [buchi r]: [Inf r] (recurrence automata have [P = empty]). *)
val buchi : Iset.t -> t

(** [co_buchi p]: [Fin (Q - p)] given the full state count — the run
    eventually stays inside [p] (persistence automata have [R = empty]).
    [n] is the total number of states. *)
val co_buchi : n:int -> Iset.t -> t

(** [streett_pair ~n (r, p)]: [Inf r \/ Fin (Q - p)] — the paper's
    acceptance [inf(r) /\ R <> empty or inf(r) <= P]. *)
val streett_pair : n:int -> Iset.t * Iset.t -> t

(** [streett ~n pairs]: conjunction of pairs (a Streett automaton). *)
val streett : n:int -> (Iset.t * Iset.t) list -> t

(** [rabin ~n pairs]: dual of Streett — disjunction of
    [Fin e /\ Inf f]. *)
val rabin : n:int -> (Iset.t * Iset.t) list -> t

(** Conjunctive normal form: a list of clauses [(x, ys)], the condition
    holding iff every clause does, a clause holding iff [inf(r)] meets
    [x] or avoids some [y in ys].  ([Inf] atoms in a clause union into
    one [x]; [Fin] atoms cannot be merged.)  Exact for every condition,
    but its width is the product of the widths of an [Or]'s children,
    so it is kept to the one shape question that needs clauses,
    {!to_streett_pairs}.  Questions about cycles never expand the
    condition: {!Emptiness} splits on one [Fin] atom at a time. *)
val cnf : t -> (Iset.t * Iset.t list) list

(** The condition as Streett pairs [(r_j, p_j)] (acceptance
    [And_j (Inf r_j \/ Fin (Q - p_j))]), when it has that shape — i.e.
    when every CNF clause carries at most one [Fin].  Conditions with a
    multi-[Fin] clause (e.g. [Fin Y1 \/ Fin Y2]) are not expressible as
    a Streett condition on the same state space (Streett-satisfying
    infinity sets are closed under union; such disjunctions are not);
    raises [Invalid_argument] for them. *)
val to_streett_pairs : n:int -> t -> (Iset.t * Iset.t) list

(** Structural simplification (flattening, units, absorption of
    empty-set atoms: [Inf {} = False], [Fin {} = True]). *)
val simplify : t -> t

val pp : t Fmt.t
