(* Proposition 5.1: every kappa-property given by an arbitrary automaton
   is specifiable by a kappa-shaped automaton; the constructions preserve
   the language exactly. *)

open Omega

let ab = Finitary.Alphabet.of_chars "ab"
let pq = Finitary.Alphabet.of_props [ "p"; "q" ]
let check = Alcotest.(check bool)
let fm s = Of_formula.of_string pq s

(* disguise an automaton behind products so the conversion has work to
   do: X = (X inter full) union empty, with scrambled acceptance *)
let disguise a =
  Automaton.trim
    (Automaton.union
       (Automaton.inter a (Automaton.full a.Automaton.alpha))
       (Automaton.empty_lang a.Automaton.alpha))

let shape_is_buchi (a : Automaton.t) =
  match Acceptance.simplify a.Automaton.acc with
  | Acceptance.Inf _ | Acceptance.True | Acceptance.False -> true
  | Acceptance.Fin _ | Acceptance.And _ | Acceptance.Or _ -> false

let shape_is_cobuchi (a : Automaton.t) =
  match Acceptance.simplify a.Automaton.acc with
  | Acceptance.Fin _ | Acceptance.True | Acceptance.False -> true
  | Acceptance.Inf _ | Acceptance.And _ | Acceptance.Or _ -> false

let pairs (a : Automaton.t) =
  List.length (Acceptance.to_streett_pairs ~n:a.n a.acc)

let rec atoms = function
  | Acceptance.True | Acceptance.False -> []
  | Acceptance.Inf s | Acceptance.Fin s -> [ s ]
  | Acceptance.And l | Acceptance.Or l -> List.concat_map atoms l

(* Weak: every SCC lies inside or outside each acceptance atom. *)
let is_weak (a : Automaton.t) =
  List.for_all
    (fun comp ->
      let c = Iset.of_list comp in
      List.for_all
        (fun s -> Iset.subset c s || Iset.disjoint c s)
        (atoms a.acc))
    (Automaton.sccs a)

let conversion_tests =
  [
    Alcotest.test_case "to_safety" `Quick (fun () ->
        List.iter
          (fun a ->
            let c = Convert.to_safety a in
            check "language preserved" true (Lang.equal a c);
            check "still safety" true (Classify.is_safety c))
          [
            Build.a_re ab "a^+ b*";
            disguise (Build.a_re ab "(a b)^*a + (a b)^*");
            fm "[] (p -> O q)";
            Automaton.full ab;
          ]);
    Alcotest.test_case "to_guarantee" `Quick (fun () ->
        List.iter
          (fun a ->
            let c = Convert.to_guarantee a in
            check "language preserved" true (Lang.equal a c);
            check "still guarantee" true (Classify.is_guarantee c))
          [ Build.e_re ab ".* b a"; disguise (Build.e_re ab "a .* b"); fm "p U q" ]);
    Alcotest.test_case "to_buchi on recurrence properties" `Quick (fun () ->
        List.iter
          (fun a ->
            let b = Convert.to_buchi a in
            check "language preserved" true (Lang.equal a b);
            check "Buechi shape" true (shape_is_buchi b))
          [
            Build.r_re ab ".* b";
            fm "[] (p -> <> q)";
            fm "[]<> p & []<> q";
            (* a safety property is also recurrence; the construction
               must still work *)
            Build.a_re ab "a^+ b*";
            disguise (Build.r_re ab "(a + b)^* b a");
          ]);
    Alcotest.test_case "to_cobuchi on persistence properties" `Quick
      (fun () ->
        List.iter
          (fun a ->
            let b = Convert.to_cobuchi a in
            check "language preserved" true (Lang.equal a b);
            check "co-Buechi shape" true (shape_is_cobuchi b))
          [ Build.p_re ab ".* b"; fm "<>[] p | <>[] q"; fm "p -> <>[] q" ]);
    Alcotest.test_case "conversions reject wrong classes" `Quick (fun () ->
        check "to_safety on recurrence" true
          (try ignore (Convert.to_safety (Build.r_re ab ".* b")); false
           with Convert.Not_in_class _ -> true);
        check "to_buchi on persistence-only" true
          (try ignore (Convert.to_buchi (Build.p_re ab ".* b")); false
           with Convert.Not_in_class _ -> true);
        check "to_shape simple reactivity on rank 2" true
          (try
             ignore
               (Convert.to_shape (Kappa.Reactivity 1) (fm "[]<> p & <>[] q"));
             false
           with Convert.Not_in_class _ -> true));
    Alcotest.test_case "to_shape dispatch" `Quick (fun () ->
        let a = fm "[] (p -> <> q)" in
        let c = Convert.to_shape (Classify.classify a) a in
        check "language preserved" true (Lang.equal a c));
    Alcotest.test_case "to_shape gives rank-many pairs" `Quick (fun () ->
        List.iter
          (fun (name, a, k) ->
            let c = Convert.to_shape (Kappa.Reactivity k) a in
            check (name ^ ": language preserved") true (Lang.equal a c);
            Alcotest.(check int) (name ^ ": pairs") k (pairs c))
          (("[]<> p & <>[] q", fm "[]<> p & <>[] q", 2)
          :: List.map
               (fun k -> (Printf.sprintf "staircase %d" k, Samples.staircase k, k))
               [ 1; 2; 3; 4; 5 ]));
    Alcotest.test_case "a conversion builds the decomposition once" `Quick
      (fun () ->
        (* the precondition is read off the tree the transform expands,
           so the conversion passes the SCC kernel over no more states
           than the decomposition alone *)
        let a = Automaton.inter (fm "[]<> p") (Samples.counter pq 30) in
        let scc_counts run =
          let t = Telemetry.collector () in
          Telemetry.with_ambient t (fun () -> ignore (run ()));
          ( Telemetry.counter t "graph.scc.components",
            Telemetry.counter t "graph.scc.nodes" )
        in
        let pair = Alcotest.(pair int int) in
        Alcotest.check pair "decomposition" (2, 90)
          (scc_counts (fun () -> Classify.decomposition a));
        Alcotest.check pair "to_buchi" (2, 90)
          (scc_counts (fun () -> Convert.to_buchi a));
        let b = Automaton.inter (fm "<>[] p") (Samples.counter pq 30) in
        Alcotest.check pair "to_cobuchi"
          (scc_counts (fun () -> Classify.decomposition b))
          (scc_counts (fun () -> Convert.to_cobuchi b)));
  ]

(* Prop. 5.1 on random automata: the shape for the class [classify]
   finds accepts the same language, by [Lang.equal] and by the
   complement-and-product oracle, and has the class's shape. *)
let has_shape kappa (c : Automaton.t) =
  match kappa with
  | Kappa.Safety | Kappa.Guarantee | Kappa.Obligation _ -> is_weak c
  | Kappa.Recurrence -> shape_is_buchi c
  | Kappa.Persistence -> shape_is_cobuchi c
  | Kappa.Reactivity k -> pairs c = k

let shape_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~name:"to_shape: same language, class's shape"
        ~count:1000 Samples.arb_wide_automaton (fun a ->
          let kappa = Classify.classify a in
          let c = Convert.to_shape kappa a in
          Lang.equal a c
          && Scans.equal_by_product a c
          && has_shape kappa c);
    ]

(* streett pair extraction *)
let pair_tests =
  [
    Alcotest.test_case "to_streett_pairs is sound" `Quick (fun () ->
        List.iter
          (fun a ->
            let pairs =
              Acceptance.to_streett_pairs ~n:a.Automaton.n a.Automaton.acc
            in
            let rebuilt = Acceptance.streett ~n:a.Automaton.n pairs in
            (* same acceptance on every candidate infinity set of the
               small automaton *)
            let rec subsets = function
              | [] -> [ [] ]
              | x :: rest ->
                  let s = subsets rest in
                  s @ List.map (fun l -> x :: l) s
            in
            List.iter
              (fun sub ->
                match sub with
                | [] -> ()
                | _ ->
                    let s = Iset.of_list sub in
                    check "agrees" (Acceptance.eval a.Automaton.acc s)
                      (Acceptance.eval rebuilt s))
              (subsets (List.init (min 6 a.Automaton.n) Fun.id)))
          [
            fm "[]<> p | <>[] q";
            fm "[] p & <> q";
            Build.r_re ab ".* b";
            Automaton.union (Build.r_re ab ".* b") (Build.p_re ab ".* a");
          ]);
  ]

let () =
  Alcotest.run "convert"
    [
      ("conversions", conversion_tests);
      ("pairs", pair_tests);
      ("shapes", shape_tests);
    ]
