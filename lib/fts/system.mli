(** Fair transition systems — the paper's model of reactive programs
    (section 1; fairness in section 4).

    A system has a finite set of named boolean/bounded-integer variables,
    an initial condition, and named guarded transitions.  Every system
    implicitly includes an {e idling} transition, so terminated or
    blocked computations extend to infinite ones by stuttering, exactly
    as the paper prescribes for terminating programs.

    A {e computation} is an infinite sequence of states, each obtained
    from its predecessor by some enabled transition, satisfying all
    fairness requirements:

    - weak fairness (justice) for [tau]: not forever continually enabled
      but never taken — the recurrence formula
      [[]<>(not En(tau) \/ taken(tau))];
    - strong fairness (compassion) for [tau]: enabled infinitely often
      implies taken infinitely often — the simple reactivity formula
      [[]<>En(tau) -> []<>taken(tau)].

    The reachable-state graph is extracted eagerly; states beyond
    [max_states] raise [State_space_too_large]. *)

exception State_space_too_large of int

type state = int array
(** Valuation of the declared variables, in declaration order. *)

type var = { name : string; lo : int; hi : int }

type transition = {
  tname : string;
  guard : state -> bool;
  action : state -> state list;
      (** possible successor states (nondeterministic); must stay in
          range *)
}

type fairness = Weak of string | Strong of string

type t

(** [make ~vars ~init ~transitions ~fairness ()] declares a system.
    [init] lists the initial states.  Transition names must be distinct;
    fairness requirements must name declared transitions.  [budget] is
    charged once per interned reachable state; a fuel or deadline budget
    interrupts the eager exploration with [Budget.Tripped]. *)
val make :
  ?budget:Budget.t ->
  ?max_states:int ->
  vars:var list ->
  init:state list ->
  transitions:transition list ->
  fairness:fairness list ->
  unit ->
  t

val vars : t -> var list

val transitions : t -> string list

val fairness : t -> fairness list

(** Value of a named variable in a state. *)
val value : t -> state -> string -> int

(** Number of reachable states. *)
val n_reachable : t -> int

(** All reachable states. *)
val reachable_states : t -> state list

(** The state predicates usable as atoms in specifications:
    - ["x=3"], ["x"] (nonzero test) for each variable [x];
    - ["en_tau"] / ["taken_tau"] for each transition [tau].
    (Taken-ness is a property of how a state was entered; see
    {!Check}.) *)
val atom_holds : t -> state -> string -> bool

(** [atom_pred t atom] is [fun s -> atom_holds t s atom] with the atom
    parsed once; it raises as {!atom_holds} does, before any state is
    read. *)
val atom_pred : t -> string -> state -> bool

(** Does the state satisfy a state formula (a {!Logic.Formula.t} with
    no temporal operators, atoms as above, except [taken_*])? *)
val state_formula_holds : t -> state -> Logic.Formula.t -> bool

val pp_state : t -> state Fmt.t

(**/**)

(* Internal accessors used by {!Check}. *)

val internal_edges : t -> (int * int * int) list

val internal_states : t -> state array

val internal_transition_names : t -> string array

val internal_init_ids : t -> int list

val internal_guard : t -> string -> state -> bool

val internal_transitions : t -> transition list

val internal_init : t -> state list

val idle_name : string
