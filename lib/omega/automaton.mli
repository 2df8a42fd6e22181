(** Complete deterministic omega-automata over a finite alphabet
    (the paper's predicate automata, section 5).

    States are [0 .. n-1]; the transition function is total
    ("complete deterministic automata" in the paper), so every infinite
    word has exactly one run, and acceptance — an {!Acceptance.t}
    evaluated on the run's infinity set — is a property of the word.
    Boolean operations are synchronous products with the acceptance
    conditions combined, and complement just dualizes the condition. *)

type t = private {
  alpha : Finitary.Alphabet.t;
  n : int;
  start : int;
  delta : int array array;  (** [delta.(q).(a)] *)
  acc : Acceptance.t;
  succ_table : int list array Atomic.t;
      (** memoized {!successors} table, filled lazily row by row;
          [[||]] until the first query (the type is private: only this
          module mutates it).  Domain-safe: the array is installed by
          CAS and row fills are idempotent — see {!successors}. *)
}

val make :
  alpha:Finitary.Alphabet.t ->
  n:int ->
  start:int ->
  delta:int array array ->
  acc:Acceptance.t ->
  t

(** The empty and universal omega-languages. *)
val empty_lang : Finitary.Alphabet.t -> t

val full : Finitary.Alphabet.t -> t

val step : t -> int -> Finitary.Alphabet.letter -> int

(** State reached from [start] on a finite word. *)
val run : t -> Finitary.Word.t -> int

(** The infinity set of the unique run over a lasso word. *)
val infinity_set : t -> Finitary.Word.lasso -> Iset.t

(** Membership of a lasso word. *)
val accepts : t -> Finitary.Word.lasso -> bool

(** Complement: same structure, dual acceptance. *)
val complement : t -> t

(** Same structure (sharing the transition table), new acceptance
    condition; validates that the condition only mentions known
    states. *)
val with_acc : t -> Acceptance.t -> t

(** Synchronous product over the pairs reachable from the start pair;
    the acceptance conditions of both factors are lifted to the kept
    pairs and combined with the given constructor.  Pairs are numbered
    in pair-code order ([qa * b.n + qb]), so the result equals {!trim}
    of the product over all [a.n * b.n] pairs, which is never built:
    time and memory follow the reachable pairs, plus two ints per pair
    code for the search (codes pack [qb] into the bits of [b.n], so
    there are fewer than [2 * a.n * b.n]). *)
val product :
  (Acceptance.t -> Acceptance.t -> Acceptance.t) -> t -> t -> t

val inter : t -> t -> t

val union : t -> t -> t

val diff : t -> t -> t

(** Restrict to reachable states (renumbering in index order;
    acceptance atoms are intersected with the kept set).  The walk
    reads [delta] directly and leaves the {!successors} memo alone. *)
val trim : t -> t

(** [explore alpha ~codes ~start fill acc] is the automaton of the
    codes in [0 .. codes-1] reachable from [start], where [fill c row]
    writes the successor codes of [c] into [row] (one per letter; it is
    called twice per reachable code).  States are numbered in code
    order, so the result is {!trim} of the automaton over all codes;
    [acc kept] is its acceptance condition (simplified here), where
    [kept.(i)] is the code of state [i].  {!product}, {!trim} and
    {!Build}'s operators are this one pass.  Memory: two ints per code
    and the result.  A code out of range raises [Invalid_argument]
    (from an array access); [acc kept] is trusted to mention only
    states below [Array.length kept]. *)
val explore :
  Finitary.Alphabet.t ->
  codes:int ->
  start:int ->
  (int -> int array -> unit) ->
  (int array -> Acceptance.t) ->
  t

(** Successor lists (unlabelled) for graph algorithms; deduplicated and
    memoized — repeated calls do not re-filter the transition table.
    Hits and misses are counted against the ambient {!Telemetry}
    handle ([automaton.successors.hit]/[.miss]).  Safe to call from
    several domains at once: the memo table is CAS-installed and rows
    are filled with idempotent writes (racing domains compute equal
    lists), so concurrent callers always see either a complete row or
    recompute it — never a torn one. *)
val successors : t -> int -> int list

(** Strongly connected components (iterative Tarjan via
    {!Graph_kernel}), in topological order of the component DAG. *)
val sccs : t -> int list list

(** States reachable from the start. *)
val reachable : t -> bool array

val pp : t Fmt.t
