(* Section 5.1's decision procedures, the Kappa lattice, and the
   reactivity rank. *)

open Omega

let ab = Finitary.Alphabet.of_chars "ab"
let pq = Finitary.Alphabet.of_props [ "p"; "q" ]
let check = Alcotest.(check bool)
let kappa = Alcotest.testable (Fmt.of_to_string Kappa.name) Kappa.equal

let fm s = Of_formula.of_string pq s

let decision_tests =
  [
    Alcotest.test_case "classify canonical formulas" `Quick (fun () ->
        List.iter
          (fun (s, expected) ->
            Alcotest.check kappa s expected (Classify.classify (fm s)))
          [
            ("[] p", Kappa.Safety);
            ("<> p", Kappa.Guarantee);
            ("[] p | <> q", Kappa.Obligation 1);
            ("[] p & <> q", Kappa.Obligation 2);
            ("[]<> p", Kappa.Recurrence);
            ("<>[] p", Kappa.Persistence);
            ("[]<> p | <>[] q", Kappa.Reactivity 1);
            ("[]<> p & <>[] q", Kappa.Reactivity 2);
            ("<>[] p & []<> q", Kappa.Reactivity 2);
            ("[] (p -> <> q)", Kappa.Recurrence);
            ("p U q", Kappa.Guarantee);
            ("p W q", Kappa.Safety);
            ("true", Kappa.Safety);
            ("false", Kappa.Safety);
          ]);
    Alcotest.test_case "the checks are mutually consistent" `Quick (fun () ->
        List.iter
          (fun s ->
            let a = fm s in
            let safety = Classify.is_safety a in
            let guarantee = Classify.is_guarantee a in
            let rec_ = Classify.is_recurrence a in
            let per = Classify.is_persistence a in
            let obl = Classify.is_obligation a in
            check (s ^ ": safety -> rec & per") true
              ((not safety) || (rec_ && per));
            check (s ^ ": guarantee -> rec & per") true
              ((not guarantee) || (rec_ && per));
            check (s ^ ": obl = rec & per") (rec_ && per) obl)
          [
            "[] p"; "<> p"; "[] p & <> q"; "[]<> p"; "<>[] p";
            "[]<> p | <>[] q"; "[] (p -> <> q)"; "p U q";
          ]);
    Alcotest.test_case "ranks" `Quick (fun () ->
        Alcotest.(check int) "safety rank 1" 1
          (Classify.reactivity_rank (fm "[] p"));
        Alcotest.(check int) "recurrence rank 1" 1
          (Classify.reactivity_rank (fm "[]<> p"));
        Alcotest.(check int) "simple reactivity rank 1" 1
          (Classify.reactivity_rank (fm "[]<> p | <>[] q"));
        Alcotest.(check int) "universal rank 0" 0
          (Classify.reactivity_rank (Automaton.full pq)));
    Alcotest.test_case "two independent pairs give rank 2" `Quick (fun () ->
        let a4 = Finitary.Alphabet.of_props [ "p"; "q"; "r"; "s" ] in
        let a =
          Of_formula.of_string a4 "([]<> p | <>[] q) & ([]<> r | <>[] s)"
        in
        Alcotest.(check int) "rank" 2 (Classify.reactivity_rank a);
        Alcotest.check kappa "class" (Kappa.Reactivity 2) (Classify.classify a));
  ]

let staircase_tests =
  [
    Alcotest.test_case "staircase ranks are exactly k" `Quick (fun () ->
        List.iter
          (fun k ->
            let a = Samples.staircase k in
            Alcotest.(check int) (Printf.sprintf "rank %d" k) k
              (Classify.reactivity_rank a);
            Alcotest.check kappa
              (Printf.sprintf "class %d" k)
              (if k = 1 then Kappa.Reactivity 1 else Kappa.Reactivity k)
              (Classify.classify a))
          [ 1; 2; 3; 4; 5 ]);
    Alcotest.test_case "staircase tree reads = SCC scans" `Quick (fun () ->
        List.iter
          (fun k ->
            let a = Samples.staircase k in
            check (Printf.sprintf "k=%d" k) true
              (Scans.agrees a && Scans.closure_agrees a))
          [ 2; 3; 4; 5 ]);
    Alcotest.test_case "staircase membership sanity" `Quick (fun () ->
        let a = Samples.staircase 2 in
        let alpha = a.Automaton.alpha in
        let word names =
          Finitary.Word.lasso ~prefix:[||]
            ~cycle:
              (Array.of_list
                 (List.map (Finitary.Alphabet.letter_of_name alpha) names))
        in
        check "max inf = l2 accepts" true
          (Automaton.accepts a (word [ "l0"; "l2" ]));
        check "max inf = l3 rejects" false
          (Automaton.accepts a (word [ "l0"; "l2"; "l3" ]));
        check "max inf = l4 accepts" true
          (Automaton.accepts a (word [ "l3"; "l4" ])));
  ]

let lattice_tests =
  [
    Alcotest.test_case "leq reflexive, antisymmetric on samples" `Quick
      (fun () ->
        let all =
          Kappa.
            [
              Safety; Guarantee; Obligation 1; Obligation 2; Recurrence;
              Persistence; Reactivity 1; Reactivity 3;
            ]
        in
        List.iter
          (fun a ->
            check "refl" true (Kappa.leq a a);
            List.iter
              (fun b ->
                if Kappa.leq a b && Kappa.leq b a then
                  check "antisym" true (Kappa.equal a b))
              all)
          all);
    Alcotest.test_case "figure 1 inclusions" `Quick (fun () ->
        let ( <= ) = Kappa.leq in
        check "S <= O1" true (Kappa.Safety <= Kappa.Obligation 1);
        check "G <= O1" true (Kappa.Guarantee <= Kappa.Obligation 1);
        check "O1 <= R" true (Kappa.Obligation 1 <= Kappa.Recurrence);
        check "O1 <= P" true (Kappa.Obligation 1 <= Kappa.Persistence);
        check "R <= React1" true (Kappa.Recurrence <= Kappa.Reactivity 1);
        check "P <= React1" true (Kappa.Persistence <= Kappa.Reactivity 1);
        check "S and G incomparable" true
          ((not (Kappa.Safety <= Kappa.Guarantee))
          && not (Kappa.Guarantee <= Kappa.Safety));
        check "R and P incomparable" true
          ((not (Kappa.Recurrence <= Kappa.Persistence))
          && not (Kappa.Persistence <= Kappa.Recurrence)));
    Alcotest.test_case "boolean bounds" `Quick (fun () ->
        Alcotest.check kappa "S & G" (Kappa.Obligation 2)
          (Kappa.and_ Kappa.Safety Kappa.Guarantee);
        Alcotest.check kappa "S | G" (Kappa.Obligation 1)
          (Kappa.or_ Kappa.Safety Kappa.Guarantee);
        Alcotest.check kappa "S & S" Kappa.Safety
          (Kappa.and_ Kappa.Safety Kappa.Safety);
        Alcotest.check kappa "R | P" (Kappa.Reactivity 1)
          (Kappa.or_ Kappa.Recurrence Kappa.Persistence);
        Alcotest.check kappa "R & P" (Kappa.Reactivity 2)
          (Kappa.and_ Kappa.Recurrence Kappa.Persistence);
        Alcotest.check kappa "not S" Kappa.Guarantee (Kappa.not_ Kappa.Safety);
        Alcotest.check kappa "not R" Kappa.Persistence
          (Kappa.not_ Kappa.Recurrence));
    Alcotest.test_case "semantic classification refines bounds" `Quick
      (fun () ->
        (* classify a boolean combination and compare with the lattice
           bound from the parts *)
        let x = fm "[] p | [] q" in
        (* bound: obligation 1; semantically still safety *)
        Alcotest.check kappa "union of safeties is safety" Kappa.Safety
          (Classify.classify x));
    Alcotest.test_case "memberships row consistent with classify" `Quick
      (fun () ->
        List.iter
          (fun s ->
            let a = fm s in
            let c = Classify.classify a in
            List.iter
              (fun (k, m) ->
                if Kappa.leq c k then
                  check (s ^ " in " ^ Kappa.name k) true (m = Some true))
              (Classify.memberships a))
          [ "[] p"; "<> p"; "[]<> p"; "<>[] p"; "[] p | <> q"; "[]<> p | <>[] q" ]);
  ]

(* an automaton directly over letters, as in section 5 *)
let automaton_tests =
  [
    Alcotest.test_case "safety automaton shape check (B-hat inter G)" `Quick
      (fun () ->
        (* A-construction yields bad-absorbing automata; spot-check the
           structural property the paper uses *)
        let a = Build.a_re ab "a^+ b*" in
        let dead =
          List.filter
            (fun q ->
              not
                (Acceptance.eval a.Automaton.acc (Iset.singleton q))
              && Automaton.successors a q = [ q ])
            (List.init a.Automaton.n Fun.id)
        in
        check "has an absorbing rejecting state" true (dead <> []));
    Alcotest.test_case "classification is complement-dual" `Quick (fun () ->
        List.iter
          (fun s ->
            let a = fm s in
            let c = Automaton.complement a in
            check (s ^ " safety/guarantee dual") true
              (Classify.is_safety a = Classify.is_guarantee c);
            check (s ^ " rec/per dual") true
              (Classify.is_recurrence a = Classify.is_persistence c))
          [ "[] p"; "<> p"; "[]<> p"; "[] p & <> q"; "[]<> p | <>[] q" ]);
  ]

(* random deterministic automata with random Emerson-Lei acceptance *)
let gen_automaton =
  let open QCheck.Gen in
  let n = 4 in
  let gen_set = map (fun mask ->
      Iset.of_list
        (List.filteri (fun i _ -> mask land (1 lsl i) <> 0)
           (List.init n Fun.id)))
      (int_bound ((1 lsl n) - 1))
  in
  let gen_acc =
    sized_size (int_bound 4)
    @@ fix (fun self d ->
           if d = 0 then
             oneof
               [ map (fun s -> Acceptance.Inf s) gen_set;
                 map (fun s -> Acceptance.Fin s) gen_set ]
           else
             oneof
               [ map (fun s -> Acceptance.Inf s) gen_set;
                 map (fun s -> Acceptance.Fin s) gen_set;
                 map2 (fun a b -> Acceptance.And [ a; b ]) (self (d - 1)) (self (d - 1));
                 map2 (fun a b -> Acceptance.Or [ a; b ]) (self (d - 1)) (self (d - 1)) ])
  in
  map2
    (fun rows acc ->
      Automaton.make ~alpha:ab ~n ~start:0
        ~delta:(Array.of_list (List.map Array.of_list rows))
        ~acc)
    (list_repeat n (list_repeat 2 (int_bound (n - 1))))
    gen_acc

let arb_automaton =
  QCheck.make
    ~print:(fun a -> Format.asprintf "%a" Automaton.pp a)
    gen_automaton

(* The oracle the decomposition replaced: every cycle of each SCC from
   [Cycles.enumerate], then the most rejecting members of an
   alternating inclusion chain, by dynamic programming over the cycles
   sorted by size ([d.(i)]: the best chain topped by cycle [i]). *)
let enumeration_rank a =
  let group_best group =
    let cycles = Array.of_list group in
    Array.stable_sort
      (fun (c1, _) (c2, _) -> compare (Iset.cardinal c1) (Iset.cardinal c2))
      cycles;
    let m = Array.length cycles in
    let d = Array.make m 0 in
    for i = 0 to m - 1 do
      let ci, fi = cycles.(i) in
      let below = ref 0 in
      for j = 0 to i - 1 do
        let cj, fj = cycles.(j) in
        if fj <> fi && Iset.subset cj ci && not (Iset.equal cj ci) then
          below := max !below d.(j)
      done;
      d.(i) <- (!below + if fi then 0 else 1)
    done;
    Array.fold_left max 0 d
  in
  List.fold_left (fun r g -> max r (group_best g)) 0 (Cycles.enumerate a)

(* The paper's condition for simple reactivity (section 5.1): every
   accepting cycle is superset-closed (every cycle containing it
   accepts) or subset-closed (every cycle inside it accepts). *)
let simple_reactivity_condition a =
  let cycles = List.concat (Cycles.enumerate a) in
  List.for_all
    (fun (j, fj) ->
      (not fj)
      || List.for_all (fun (x, fx) -> fx || not (Iset.subset j x)) cycles
      || List.for_all (fun (x, fx) -> fx || not (Iset.subset x j)) cycles)
    cycles

(* Maximal elements of the enumerated cycles inside [s] that satisfy
   [acc], sorted. *)
let enumerated_maximal a acc s =
  let cycles =
    List.filter
      (fun c -> Iset.subset c s && Acceptance.eval acc c)
      (List.concat_map (List.map fst) (Cycles.enumerate a))
  in
  List.sort Iset.compare
    (List.filter
       (fun c ->
         not
           (List.exists
              (fun d -> Iset.subset c d && not (Iset.equal c d))
              cycles))
       cycles)

let random_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~name:"decomposition rank = enumeration rank"
        ~count:2000 Samples.arb_wide_automaton
        (fun a -> Classify.reactivity_rank a = enumeration_rank a);
      QCheck.Test.make ~name:"rank <= 1 iff paper's condition holds"
        ~count:2000 Samples.arb_wide_automaton
        (fun a ->
          (Classify.reactivity_rank a <= 1) = simple_reactivity_condition a);
      QCheck.Test.make ~name:"kernel = enumerated accepting cycles"
        ~count:500 Samples.arb_wide_automaton Emptiness_oracle.automaton_agrees;
      QCheck.Test.make ~name:"maximal accepting cycles = enumerated maxima"
        ~count:500 Samples.arb_wide_automaton
        (fun a ->
          let reach = Automaton.reachable a in
          List.for_all
            (fun comp ->
              let s = Iset.of_list comp in
              (not (reach.(List.hd comp) && Cycles.is_cycle a s))
              || List.for_all
                   (fun acc ->
                     List.sort Iset.compare
                       (Emptiness.maximal_accepting_cycles ~n:a.n
                          ~succ:(Automaton.successors a) acc s)
                     = enumerated_maximal a acc s)
                   [ a.Automaton.acc; Acceptance.dual a.Automaton.acc ])
            (Automaton.sccs a));
      QCheck.Test.make ~name:"safety/guarantee complement duality" ~count:150
        arb_automaton
        (fun a ->
          Classify.is_safety a
          = Classify.is_guarantee (Automaton.complement a));
      QCheck.Test.make ~name:"recurrence/persistence complement duality"
        ~count:150 arb_automaton
        (fun a ->
          Classify.is_recurrence a
          = Classify.is_persistence (Automaton.complement a));
      QCheck.Test.make ~name:"obligation = recurrence and persistence"
        ~count:150 arb_automaton
        (fun a ->
          Classify.is_obligation a
          = (Classify.is_recurrence a && Classify.is_persistence a));
      QCheck.Test.make ~name:"safety iff fixed by the closure" ~count:100
        arb_automaton
        (fun a ->
          Classify.is_safety a = Lang.equal a (Lang.safety_closure a));
      QCheck.Test.make ~name:"classify is a member of its own class"
        ~count:100 arb_automaton
        (fun a ->
          match Classify.classify a with
          | Kappa.Safety -> Classify.is_safety a
          | Kappa.Guarantee -> Classify.is_guarantee a
          | Kappa.Obligation k -> (
              match Classify.obligation_degree a with
              | Some d -> d <= k
              | None -> false)
          | Kappa.Recurrence -> Classify.is_recurrence a
          | Kappa.Persistence -> Classify.is_persistence a
          | Kappa.Reactivity k -> Classify.reactivity_rank a <= k);
      QCheck.Test.make ~name:"union of safety properties is safety" ~count:80
        (QCheck.pair arb_automaton arb_automaton)
        (fun (a, b) ->
          QCheck.assume (Classify.is_safety a && Classify.is_safety b);
          Classify.is_safety (Automaton.union a b));
      QCheck.Test.make ~name:"intersection of recurrence is recurrence"
        ~count:80
        (QCheck.pair arb_automaton arb_automaton)
        (fun (a, b) ->
          QCheck.assume (Classify.is_recurrence a && Classify.is_recurrence b);
          Classify.is_recurrence (Automaton.inter a b));
      QCheck.Test.make ~name:"cnf clauses preserve acceptance" ~count:150
        arb_automaton
        (fun a ->
          let clauses = Acceptance.cnf a.Automaton.acc in
          let rebuilt =
            Acceptance.And
              (List.map
                 (fun (x, ys) ->
                   Acceptance.Or
                     (Acceptance.Inf x :: List.map (fun y -> Acceptance.Fin y) ys))
                 clauses)
          in
          List.for_all
            (fun mask ->
              let s =
                Iset.of_list
                  (List.filteri
                     (fun i _ -> mask land (1 lsl i) <> 0)
                     (List.init a.Automaton.n Fun.id))
              in
              Iset.is_empty s
              || Acceptance.eval a.Automaton.acc s = Acceptance.eval rebuilt s)
            (List.init (1 lsl a.Automaton.n) Fun.id));
      QCheck.Test.make ~name:"streett pairs sound when they exist" ~count:150
        arb_automaton
        (fun a ->
          match
            Acceptance.to_streett_pairs ~n:a.Automaton.n a.Automaton.acc
          with
          | exception Invalid_argument _ -> true
          | pairs ->
              let rebuilt = Acceptance.streett ~n:a.Automaton.n pairs in
              List.for_all
                (fun mask ->
                  let s =
                    Iset.of_list
                      (List.filteri
                         (fun i _ -> mask land (1 lsl i) <> 0)
                         (List.init a.Automaton.n Fun.id))
                  in
                  Iset.is_empty s
                  || Acceptance.eval a.Automaton.acc s
                     = Acceptance.eval rebuilt s)
                (List.init (1 lsl a.Automaton.n) Fun.id));
      QCheck.Test.make ~name:"witness satisfies the automaton" ~count:100
        arb_automaton
        (fun a ->
          match Lang.witness a with
          | Some w -> Automaton.accepts a w
          | None -> Lang.is_empty a);
      QCheck.Test.make ~name:"membership row is upward closed" ~count:100
        arb_automaton
        (fun a ->
          let row = Classify.memberships a in
          List.for_all
            (fun (k1, m1) ->
              List.for_all
                (fun (k2, m2) ->
                  (not (Kappa.leq k1 k2))
                  || m1 <> Some true
                  || m2 = Some true)
                row)
            row);
      QCheck.Test.make ~name:"tree reads = SCC scans" ~count:2000
        Samples.arb_wide_automaton Scans.agrees;
      QCheck.Test.make ~name:"forest safety/guarantee = closure equality"
        ~count:2000 Samples.arb_wide_automaton Scans.closure_agrees;
    ]

let budget_tests =
  [
    Alcotest.test_case "a 60-state reactivity SCC classifies exactly" `Quick
      (fun () ->
        (* regression: this SCC is past the old enumeration caps (22
           states, 4000 cycles), which left the rank a lower bound and
           the reactivity membership unknown *)
        let big = Automaton.inter (fm "[]<> p | <>[] q") (Samples.counter pq 30) in
        Alcotest.check kappa "exact simple reactivity" (Kappa.Reactivity 1)
          (Classify.classify big);
        Alcotest.(check int) "rank" 1 (Classify.reactivity_rank big);
        check "every membership decided" true
          (List.for_all (fun (_, m) -> m <> None) (Classify.memberships big)));
    Alcotest.test_case "tree reads = SCC scans on the counter products" `Quick
      (fun () ->
        List.iter
          (fun f ->
            let a = Automaton.inter (fm f) (Samples.counter pq 30) in
            check f true (Scans.agrees a && Scans.closure_agrees a))
          [
            "[]<> p | <>[] q"; "[]<> p"; "<>[] p"; "[] p | <> q";
            "[] p & <> q"; "[]<> p & <>[] q"; "[] (p -> <> q)";
          ]);
    Alcotest.test_case "a trip at the rank column's first tick degrades"
      `Quick (fun () ->
        let big = Automaton.inter (fm "[]<> p | <>[] q") (Samples.counter pq 30) in
        (* the low columns expand the decomposition's top two levels,
           one tick per node, so the rank column's first tick follows
           them *)
        let top =
          List.fold_left
            (fun n (t : Classify.acd) -> n + 1 + List.length t.children)
            0 (Classify.decomposition big)
        in
        let first = top + 1 in
        let r =
          Classify.classify_budgeted ~budget:(Budget.inject_trip_at first) big
        in
        check "lower bound is simple reactivity" true
          (r.Classify.verdict
          = `Interval { Classify.at_least = Some (Kappa.Reactivity 1); at_most = None });
        check "only the rank column is unknown" true
          (List.map (fun (k, m) -> (k, m = None)) r.Classify.row
          = List.map
              (fun (k, _) -> (k, Kappa.equal k (Kappa.Reactivity 1)))
              r.Classify.row);
        check "injected trip recorded" true
          (match r.Classify.exhaustion with
          | Some { Budget.reason = Budget.Injected; _ } -> true
          | _ -> false));
    Alcotest.test_case "a trip at the first tick degrades from safety on"
      `Quick (fun () ->
        (* the safety column expands the decomposition's roots, so it
           spends the first tick *)
        let big = Automaton.inter (fm "[]<> p | <>[] q") (Samples.counter pq 30) in
        let r =
          Classify.classify_budgeted ~budget:(Budget.inject_trip_at 1) big
        in
        check "no bound" true
          (r.Classify.verdict
          = `Interval { Classify.at_least = None; at_most = None });
        check "every column unknown" true
          (List.for_all (fun (_, m) -> m = None) r.Classify.row));
    Alcotest.test_case "polynomial classes never hit the budget" `Quick
      (fun () ->
        (* same SCC inflation, but the class is decidable by the
           polynomial columns alone *)
        let big = Automaton.inter (fm "[]<> p") (Samples.counter pq 30) in
        Alcotest.check kappa "exact recurrence" Kappa.Recurrence
          (Classify.classify big));
    Alcotest.test_case "a 10k-state automaton classifies" `Slow (fun () ->
        (* one 10_000-state SCC: [a] steps around the cycle, [b] idles;
           accepting iff state 0 recurs.  The recursive SCC passes and
           quadratic language products both used to make this size
           unreachable. *)
        let n = 10_000 in
        let ab2 = Finitary.Alphabet.of_chars "ab" in
        let delta = Array.init n (fun q -> [| (q + 1) mod n; q |]) in
        let a =
          Automaton.make ~alpha:ab2 ~n ~start:0 ~delta
            ~acc:(Acceptance.Inf (Iset.singleton 0))
        in
        Alcotest.check kappa "recurrence" Kappa.Recurrence (Classify.classify a);
        check "every membership decided" true
          (List.for_all (fun (_, m) -> m <> None) (Classify.memberships a)));
    Alcotest.test_case
      "a trip after the top level leaves safety, guarantee and obligation \
       decided" `Quick (fun () ->
        (* safety expands the roots, recurrence and persistence their
           children: a trip at any tick past the roots, up to the first
           one past their children, spares the first three columns *)
        let big = Automaton.inter (fm "[]<> p | <>[] q") (Samples.counter pq 30) in
        let trees = Classify.decomposition big in
        let roots = List.length trees in
        let top =
          List.fold_left
            (fun n (t : Classify.acd) -> n + List.length t.children)
            roots trees
        in
        let exact = Classify.memberships big in
        for trip = roots + 1 to top + 1 do
          let r =
            Classify.classify_budgeted ~budget:(Budget.inject_trip_at trip)
              big
          in
          check (Printf.sprintf "trip at %d tripped" trip) true
            (r.Classify.exhaustion <> None);
          check
            (Printf.sprintf "trip at %d: the first three columns" trip)
            true
            (List.filteri (fun i _ -> i < 3) r.Classify.row
            = List.filteri (fun i _ -> i < 3) exact)
        done);
  ]

let () =
  Alcotest.run "classify"
    [
      ("decision", decision_tests);
      ("staircase", staircase_tests);
      ("lattice", lattice_tests);
      ("automata", automaton_tests);
      ("random", random_tests);
      ("budget", budget_tests);
    ]
