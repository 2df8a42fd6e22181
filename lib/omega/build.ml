module Dfa = Finitary.Dfa

(* Each operator is emitted trimmed in one reachability pass over the
   DFA's codes ({!Automaton.explore}): the DFA's states, plus the sink
   as code [d.n] for A and E.  States are numbered in code order, so the
   sink, when reached, is the last state. *)

let sink kept c =
  let n = Array.length kept in
  if kept.(n - 1) = c then Iset.singleton (n - 1) else Iset.empty

(* [row] gets [d]'s row of [q] through [f]; code [d.n] is the sink *)
let through (d : Dfa.t) f q row =
  if q = d.n then Array.fill row 0 (Array.length row) q
  else
    let r = d.delta.(q) in
    for l = 0 to Array.length row - 1 do
      row.(l) <- f r.(l)
    done

(* A(Phi): as soon as some non-empty prefix leaves Phi, reject forever:
   redirect transitions into non-accepting states to a dead sink, and
   require the sink to be avoided (a safety automaton: no transition from
   the bad state back to the good ones). *)
let a (d : Dfa.t) =
  let dead = d.n in
  Automaton.explore d.alpha ~codes:(d.n + 1) ~start:d.start
    (through d (fun q' -> if d.accept.(q') then q' else dead))
    (fun kept -> Acceptance.Fin (sink kept dead))

(* E(Phi): once some non-empty prefix is in Phi, accept forever: redirect
   transitions into accepting states to an accepting sink (a guarantee
   automaton: no transition from the good state back to the bad ones). *)
let e (d : Dfa.t) =
  let good = d.n in
  Automaton.explore d.alpha ~codes:(d.n + 1) ~start:d.start
    (through d (fun q' -> if d.accept.(q') then good else q'))
    (fun kept -> Acceptance.Inf (sink kept good))

(* the kept states whose DFA state's acceptance is [b] *)
let accepting (d : Dfa.t) b kept =
  Iset.init (Array.length kept) (fun i -> d.accept.(kept.(i)) = b)

(* R(Phi): Buechi acceptance on Phi's accepting states. *)
let r (d : Dfa.t) =
  Automaton.explore d.alpha ~codes:d.n ~start:d.start (through d Fun.id)
    (fun kept -> Acceptance.buchi (accepting d true kept))

(* P(Phi): co-Buechi — eventually only accepting states are visited. *)
let p (d : Dfa.t) =
  Automaton.explore d.alpha ~codes:d.n ~start:d.start (through d Fun.id)
    (fun kept -> Acceptance.Fin (accepting d false kept))

let a_re alpha s = a (Finitary.Regex.compile alpha s)

let e_re alpha s = e (Finitary.Regex.compile alpha s)

let r_re alpha s = r (Finitary.Regex.compile alpha s)

let p_re alpha s = p (Finitary.Regex.compile alpha s)

type op = A | E | R | P

let of_op = function A -> a | E -> e | R -> r | P -> p
