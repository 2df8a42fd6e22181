module Rewrite = Logic.Rewrite
module Past_tester = Logic.Past_tester
module Dfa = Finitary.Dfa

(* init p: the word's first letter (position 0) decides; esat(p)
   restricted to words of length exactly 1, then E(.). *)
let init_automaton alpha p =
  let esat = Past_tester.esat alpha p in
  let len1 =
    Finitary.Regex.compile alpha "."
  in
  Build.e (Dfa.inter esat len1)

(* Each constructor is charged to the budget in proportion to the size
   of the automaton it builds, so a fuel or deadline budget interrupts
   a blowing-up product chain between steps (the engine boundary turns
   the trip into a structured error). *)
let rec of_canon ?(budget = Budget.unlimited)
    ?(telemetry = Telemetry.disabled) alpha c =
  Budget.check budget;
  let a =
    match c with
    | Rewrite.CPast p -> init_automaton alpha p
    | Rewrite.CAlw p -> Build.a (Past_tester.esat alpha p)
    | Rewrite.CEv p -> Build.e (Past_tester.esat alpha p)
    | Rewrite.CAlwEv p -> Build.r (Past_tester.esat alpha p)
    | Rewrite.CEvAlw p -> Build.p (Past_tester.esat alpha p)
    | Rewrite.CAnd (c1, c2) ->
        Automaton.inter
          (of_canon ~budget ~telemetry alpha c1)
          (of_canon ~budget ~telemetry alpha c2)
    | Rewrite.COr (c1, c2) ->
        Automaton.union
          (of_canon ~budget ~telemetry alpha c1)
          (of_canon ~budget ~telemetry alpha c2)
  in
  Budget.ticks budget a.Automaton.n;
  Telemetry.add telemetry "translate.states" a.Automaton.n;
  a

let translate ?budget ?(telemetry = Telemetry.disabled) alpha f =
  Telemetry.span telemetry "translate" @@ fun () ->
  Option.map
    (fun c ->
      Telemetry.span telemetry "translate.of_canon" @@ fun () ->
      of_canon ?budget ~telemetry alpha c)
    (Rewrite.to_canon f)

let of_string alpha s =
  match translate alpha (Logic.Parser.parse s) with
  | Some a -> a
  | None ->
      invalid_arg
        (Printf.sprintf "Of_formula.of_string: %S is outside the canonical fragment" s)

let classify ?budget ?telemetry alpha f =
  Option.map Classify.classify (translate ?budget ?telemetry alpha f)
