(* The canonical-formula translation as it was built step by step: the
   oracle for [Of_formula]'s flat passes.  Each modal atom gets the full
   tester of [Past_tester.make], read through its public [step] and
   [value] into a DFA, which [Moore.minimize] minimizes; the operators
   build the untrimmed kappa-automaton with a sink and trim it;
   conjunction and disjunction tabulate all [a.n * b.n] pairs with
   acceptance lifted over every pair, and trim that.  [trim] renumbers
   the graph kernel's reachable set.  Budget and telemetry are charged
   as [Of_formula.of_canon] charges them. *)

open Omega
module Dfa = Finitary.Dfa
module Alphabet = Finitary.Alphabet
module Past_tester = Logic.Past_tester
module Rewrite = Logic.Rewrite

(* Reachable states renumbered in index order, acceptance sets
   intersected with them: the reachability comes from the graph kernel,
   not from [Automaton.trim]'s own walk. *)
let trim (a : Automaton.t) =
  let seen = Automaton.reachable a in
  let remap = Array.make a.n (-1) and n = ref 0 in
  Array.iteri
    (fun q s ->
      if s then begin
        remap.(q) <- !n;
        incr n
      end)
    seen;
  let delta = Array.make !n [||] in
  Array.iteri
    (fun q s ->
      if s then delta.(remap.(q)) <- Array.map (fun q' -> remap.(q')) a.delta.(q))
    seen;
  let acc =
    Acceptance.simplify
      (Acceptance.map_sets
         (fun s -> Iset.filter_map (fun q -> if seen.(q) then Some remap.(q) else None) s)
         a.acc)
  in
  Automaton.make ~alpha:a.alpha ~n:!n ~start:remap.(a.start) ~delta ~acc

let esat alpha p =
  let t = Past_tester.make alpha [ p ] in
  let n = Past_tester.n_states t and q0 = Past_tester.initial t in
  let delta =
    Array.init n (fun q ->
        Array.of_list (List.map (Past_tester.step t q) (Alphabet.letters alpha)))
  in
  let accept = Array.init n (fun q -> q <> q0 && Past_tester.value t q 0) in
  Moore.minimize (Dfa.make ~alpha ~n ~start:q0 ~delta ~accept)

let accepting_set (d : Dfa.t) =
  Iset.init d.n (fun q -> d.accept.(q))

(* [d] with a sink [d.n]: transitions into states where [into] holds go
   to the sink instead *)
let with_sink (d : Dfa.t) into acc =
  let k = Alphabet.size d.alpha in
  let sink = d.n in
  let delta =
    Array.init (d.n + 1) (fun q ->
        if q = sink then Array.make k sink
        else
          Array.map (fun q' -> if into d.accept.(q') then sink else q') d.delta.(q))
  in
  trim
    (Automaton.make ~alpha:d.alpha ~n:(d.n + 1) ~start:d.start ~delta
       ~acc:(acc (Iset.singleton sink)))

let build_a d = with_sink d not (fun s -> Acceptance.Fin s)

let build_e d = with_sink d Fun.id (fun s -> Acceptance.Inf s)

let build_r (d : Dfa.t) =
  trim
    (Automaton.make ~alpha:d.alpha ~n:d.n ~start:d.start ~delta:d.delta
       ~acc:(Acceptance.buchi (accepting_set d)))

let build_p (d : Dfa.t) =
  trim
    (Automaton.make ~alpha:d.alpha ~n:d.n ~start:d.start ~delta:d.delta
       ~acc:(Acceptance.co_buchi ~n:d.n (accepting_set d)))

(* every pair, acceptance lifted over every pair, then trimmed *)
let product combine (a : Automaton.t) (b : Automaton.t) =
  let k = Alphabet.size a.alpha in
  let code qa qb = (qa * b.n) + qb in
  let delta =
    Array.init (a.n * b.n) (fun q ->
        let qa = q / b.n and qb = q mod b.n in
        Array.init k (fun l -> code a.delta.(qa).(l) b.delta.(qb).(l)))
  in
  let lift_a s =
    Iset.init (a.n * b.n) (fun q -> Iset.mem (q / b.n) s)
  and lift_b s = Iset.init (a.n * b.n) (fun q -> Iset.mem (q mod b.n) s) in
  let acc =
    Acceptance.simplify
      (combine (Acceptance.map_sets lift_a a.acc) (Acceptance.map_sets lift_b b.acc))
  in
  trim
    (Automaton.make ~alpha:a.alpha ~n:(a.n * b.n) ~start:(code a.start b.start)
       ~delta ~acc)

let rec of_canon ~budget ~telemetry alpha c =
  Budget.check budget;
  let a =
    match c with
    | Rewrite.CPast p ->
        build_e (Dfa.inter (esat alpha p) (Finitary.Regex.compile alpha "."))
    | Rewrite.CAlw p -> build_a (esat alpha p)
    | Rewrite.CEv p -> build_e (esat alpha p)
    | Rewrite.CAlwEv p -> build_r (esat alpha p)
    | Rewrite.CEvAlw p -> build_p (esat alpha p)
    | Rewrite.CAnd (c1, c2) ->
        product
          (fun x y -> Acceptance.And [ x; y ])
          (of_canon ~budget ~telemetry alpha c1)
          (of_canon ~budget ~telemetry alpha c2)
    | Rewrite.COr (c1, c2) ->
        product
          (fun x y -> Acceptance.Or [ x; y ])
          (of_canon ~budget ~telemetry alpha c1)
          (of_canon ~budget ~telemetry alpha c2)
  in
  Budget.ticks budget a.Automaton.n;
  Telemetry.add telemetry "translate.states" a.Automaton.n;
  a

let translate ?(budget = Budget.unlimited) ?(telemetry = Telemetry.disabled)
    alpha f =
  Option.map (of_canon ~budget ~telemetry alpha) (Rewrite.to_canon f)
