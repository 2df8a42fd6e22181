(* The bridge between the temporal-logic and automata views
   (Proposition 5.3): Sat([]p) = A(esat p) and its three siblings, the
   canonical translation, and lasso-level agreement between formula
   semantics and translated automata. *)

open Omega

let pq = Finitary.Alphabet.of_props [ "p"; "q" ]
let ab = Finitary.Alphabet.of_chars "ab"
let check = Alcotest.(check bool)
let f = Logic.Parser.parse

let modality_tests =
  [
    Alcotest.test_case "Sat([]p) = A(esat p), etc." `Quick (fun () ->
        (* for several past formulas, the four modalities coincide with
           the four operators applied to esat *)
        List.iter
          (fun past_s ->
            let p = f past_s in
            let esat = Logic.Past_tester.esat ab p in
            List.iter
              (fun (wrap, op) ->
                let via_formula =
                  Option.get (Of_formula.translate ab (wrap p))
                in
                let via_operator = Build.of_op op esat in
                check
                  (past_s ^ " / " ^
                   (match op with Build.A -> "A" | Build.E -> "E"
                    | Build.R -> "R" | Build.P -> "P"))
                  true
                  (Lang.equal via_formula via_operator))
              [
                ((fun p -> Logic.Formula.Alw p), Build.A);
                ((fun p -> Logic.Formula.Ev p), Build.E);
                ((fun p -> Logic.Formula.(Alw (Ev p))), Build.R);
                ((fun p -> Logic.Formula.(Ev (Alw p))), Build.P);
              ])
          [ "b"; "O b"; "a S b"; "b & Z H a"; "Y a" ]);
  ]

let arb_formula =
  (* canonical-fragment generator: boolean combinations of modal shapes
     over small past formulas *)
  let open QCheck.Gen in
  let past =
    oneof
      [
        return (f "p");
        return (f "q");
        return (f "O p");
        return (f "p S q");
        return (f "Y p");
        return (f "H (p | q)");
        return (f "!q & O p");
        (* the weak past operators and position-0 tests *)
        return (f "p B q");
        return (f "Z p");
        return (f "Z (p S q)");
        return (f "first & O p");
      ]
  in
  let modal =
    past >>= fun p ->
    oneofl
      Logic.Formula.[ Alw p; Ev p; Alw (Ev p); Ev (Alw p); p ]
  in
  let g =
    sized_size (int_bound 3)
    @@ fix (fun self n ->
           if n = 0 then modal
           else
             oneof
               [
                 modal;
                 map2 (fun a b -> Logic.Formula.And (a, b)) (self (n - 1)) modal;
                 map2 (fun a b -> Logic.Formula.Or (a, b)) (self (n - 1)) modal;
                 map (fun a -> Logic.Formula.Not a) (self (n - 1));
               ])
  in
  QCheck.make ~print:Logic.Formula.to_string g

let gen_lasso =
  let open QCheck.Gen in
  let letter = int_bound 3 in
  map2
    (fun pre cyc ->
      Finitary.Word.lasso ~prefix:(Array.of_list pre)
        ~cycle:(Array.of_list (if cyc = [] then [ 0 ] else cyc)))
    (list_size (0 -- 3) letter)
    (list_size (1 -- 3) letter)

let arb_lasso =
  QCheck.make
    ~print:(fun l -> Format.asprintf "%a" (Finitary.Word.pp_lasso pq) l)
    gen_lasso

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~name:"translated automaton agrees with semantics"
        ~count:150
        (QCheck.pair arb_formula arb_lasso)
        (fun (form, l) ->
          match Of_formula.translate pq form with
          | None -> QCheck.assume_fail ()
          | Some a ->
              Automaton.accepts a l = Logic.Semantics.holds pq form l);
      QCheck.Test.make ~name:"canon denotes the same language as the tableau"
        ~count:60 arb_formula
        (fun form ->
          (* deterministic translation vs nondeterministic tableau,
             compared on a battery of lassos *)
          match Of_formula.translate pq form with
          | None -> QCheck.assume_fail ()
          | Some a ->
              let nba = Logic.Tableau.translate pq form in
              List.for_all
                (fun l ->
                  Automaton.accepts a l = Logic.Tableau.accepts_lasso nba l)
                (Finitary.Word.enumerate_lassos pq ~max_prefix:1 ~max_cycle:2));
      QCheck.Test.make ~name:"the property lies inside its syntactic class"
        ~count:60 arb_formula
        (fun form ->
          (* the syntactic class is an upper bound: the denoted property
             must be a member of it (the minimal class itself may be
             incomparable, e.g. a clopen property classified as safety
             with a guarantee-shaped formula) *)
          match
            (Of_formula.translate pq form, Logic.Rewrite.classify form)
          with
          | Some a, Some syn ->
              let member =
                match syn with
                | Kappa.Safety -> Classify.is_safety a
                | Kappa.Guarantee -> Classify.is_guarantee a
                | Kappa.Obligation k -> (
                    match Classify.obligation_degree a with
                    | Some d -> d <= k
                    | None -> false)
                | Kappa.Recurrence -> Classify.is_recurrence a
                | Kappa.Persistence -> Classify.is_persistence a
                | Kappa.Reactivity k -> Classify.reactivity_rank a <= k
              in
              member
          | (Some _ | None), _ -> QCheck.assume_fail ());
    ]

let fragment_tests =
  [
    Alcotest.test_case "outside the fragment reported as None" `Quick
      (fun () ->
        check "[]<>(p U q)" true
          (Of_formula.translate pq (f "[]<> (p U q)") = None));
    Alcotest.test_case "of_string raises on bad input" `Quick (fun () ->
        check "raises" true
          (try ignore (Of_formula.of_string pq "[]<> (p U q)"); false
           with Invalid_argument _ -> true));
    Alcotest.test_case "state formulas are letter properties" `Quick
      (fun () ->
        let a = Of_formula.of_string pq "p & !q" in
        let lp = Finitary.Alphabet.letter_of_name pq "{p}" in
        let lq = Finitary.Alphabet.letter_of_name pq "{q}" in
        check "starts with {p}" true
          (Automaton.accepts a
             (Finitary.Word.lasso ~prefix:[| lp |] ~cycle:[| lq |]));
        check "starts with {q}" false
          (Automaton.accepts a
             (Finitary.Word.lasso ~prefix:[| lq |] ~cycle:[| lp |])));
  ]

(* Flat translation against [Translate_oracle], the step-by-step
   construction: random canonical formulas over 1-3 propositions, every
   past operator in the payloads, conjunctions and disjunctions nested
   to depth 3.  Both run under the same fuel, so a blow-up must trip
   both at the same spend. *)
let arb_canonical =
  let open QCheck.Gen in
  let past props =
    let atom = map (fun x -> Logic.Formula.Atom x) (oneofl props) in
    fix
      (fun self n ->
        if n = 0 then
          frequency
            [ (6, atom); (1, return Logic.Formula.True); (1, return Logic.Formula.False) ]
        else
          let sub = self (n - 1) in
          frequency
            [
              (3, atom);
              (1, map (fun a -> Logic.Formula.Not a) sub);
              (1, map2 (fun a b -> Logic.Formula.And (a, b)) sub sub);
              (1, map2 (fun a b -> Logic.Formula.Or (a, b)) sub sub);
              (1, map2 (fun a b -> Logic.Formula.Imp (a, b)) sub sub);
              (1, map2 (fun a b -> Logic.Formula.Iff (a, b)) sub sub);
              (1, map (fun a -> Logic.Formula.Prev a) sub);
              (1, map (fun a -> Logic.Formula.Wprev a) sub);
              (1, map2 (fun a b -> Logic.Formula.Since (a, b)) sub sub);
              (1, map2 (fun a b -> Logic.Formula.Wsince (a, b)) sub sub);
              (1, map (fun a -> Logic.Formula.Once a) sub);
              (1, map (fun a -> Logic.Formula.Hist a) sub);
            ])
      3
  in
  let gen =
    int_range 1 3 >>= fun np ->
    let props = List.filteri (fun i _ -> i < np) [ "p"; "q"; "r" ] in
    let modal =
      past props >>= fun p ->
      oneofl Logic.Formula.[ Alw p; Ev p; Alw (Ev p); Ev (Alw p); p ]
    in
    let rec tree d =
      if d = 0 then modal
      else
        frequency
          [
            (2, modal);
            (1, map2 (fun a b -> Logic.Formula.And (a, b)) (tree (d - 1)) (tree (d - 1)));
            (1, map2 (fun a b -> Logic.Formula.Or (a, b)) (tree (d - 1)) (tree (d - 1)));
          ]
    in
    map (fun f -> (props, f)) (tree 3)
  in
  QCheck.make
    ~print:(fun (props, f) -> String.concat "," props ^ ": " ^ Logic.Formula.to_string f)
    gen

let run_translate translate alpha f =
  let budget = Budget.make ~fuel:120 () in
  let telemetry = Telemetry.collector () in
  let a =
    match translate ~budget ~telemetry alpha f with
    | Some (a : Automaton.t) -> Ok (a.n, a.start, a.delta, a.acc)
    | None -> Error "outside the fragment"
    | exception Budget.Tripped _ -> Error "tripped"
  in
  (a, Budget.spent budget, Telemetry.counter telemetry "translate.states")

(* Random automata over {a, b} with unreachable states and arbitrary
   Emerson-Lei conditions, for [product] and [trim] on inputs that no
   translation produces. *)
let arb_automaton =
  let ab = Finitary.Alphabet.of_chars "ab" in
  let gen =
    let open QCheck.Gen in
    int_range 1 6 >>= fun n ->
    let set = map (fun l -> Iset.of_list l) (list_size (0 -- n) (int_bound (n - 1))) in
    let acc =
      fix
        (fun self d ->
          let atom =
            oneof
              [ map (fun s -> Acceptance.Inf s) set; map (fun s -> Acceptance.Fin s) set ]
          in
          if d = 0 then atom
          else
            frequency
              [
                (2, atom);
                (1, map2 (fun x y -> Acceptance.And [ x; y ]) (self (d - 1)) (self (d - 1)));
                (1, map2 (fun x y -> Acceptance.Or [ x; y ]) (self (d - 1)) (self (d - 1)));
              ])
        2
    in
    int_bound (n - 1) >>= fun start ->
    array_repeat n (array_repeat 2 (int_bound (n - 1))) >>= fun delta ->
    map (fun acc -> Automaton.make ~alpha:ab ~n ~start ~delta ~acc) acc
  in
  QCheck.make ~print:(Format.asprintf "%a" Automaton.pp) gen

let shape (a : Automaton.t) = (a.n, a.start, a.delta, a.acc)

let oracle_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~name:"flat translate = step-by-step oracle" ~count:500
        arb_canonical (fun (props, f) ->
          let alpha = Finitary.Alphabet.of_props props in
          let flat =
            run_translate
              (fun ~budget ~telemetry -> Of_formula.translate ~budget ~telemetry)
              alpha f
          and oracle =
            run_translate
              (fun ~budget ~telemetry ->
                Translate_oracle.translate ~budget ~telemetry)
              alpha f
          in
          flat = oracle);
      QCheck.Test.make ~name:"product and trim = full-table oracle"
        ~count:1000 (QCheck.pair arb_automaton arb_automaton)
        (fun (a, b) ->
          let both x y = Acceptance.And [ x; y ]
          and either x y = Acceptance.Or [ x; y ] in
          shape (Automaton.trim a) = shape (Translate_oracle.trim a)
          && shape (Automaton.inter a b)
             = shape (Translate_oracle.product both a b)
          && shape (Automaton.union a b)
             = shape (Translate_oracle.product either a b));
    ]

let () =
  Alcotest.run "translate"
    [
      ("modalities", modality_tests);
      ("random", qcheck_tests);
      ("fragment", fragment_tests);
      ("oracle", oracle_tests);
    ]
