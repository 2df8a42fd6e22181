(* Exact lasso semantics, cross-checked three ways: hand-computed cases,
   agreement with the tableau automaton, and algebraic laws on random
   formulas and lassos. *)

open Logic

let pq = Finitary.Alphabet.of_props [ "p"; "q" ]
let ab = Finitary.Alphabet.of_chars "ab"
let check = Alcotest.(check bool)
let f = Parser.parse
let lasso = Finitary.Word.lasso_of_string ab

(* over {a,b}, atoms are the letters themselves *)
let holds s l = Semantics.holds ab (f s) (lasso l)

let hand_tests =
  [
    Alcotest.test_case "eventually / always" `Quick (fun () ->
        check "<>b on a(b)" true (holds "<> b" "a(b)");
        check "<>b on (a)" false (holds "<> b" "(a)");
        check "[]a on (a)" true (holds "[] a" "(a)");
        check "[]a on a(ba)" false (holds "[] a" "a(ba)"));
    Alcotest.test_case "recurrence / persistence" `Quick (fun () ->
        check "[]<>b on (ab)" true (holds "[]<> b" "(ab)");
        check "[]<>b on ab(a)" false (holds "[]<> b" "ab(a)");
        check "<>[]a on ab(a)" true (holds "<>[] a" "ab(a)");
        check "<>[]a on (ab)" false (holds "<>[] a" "(ab)"));
    Alcotest.test_case "until is non-strict with untouched right" `Quick (fun () ->
        check "aUb on (b)" true (holds "a U b" "(b)");
        check "aUb on ab(a)" true (holds "a U b" "ab(a)");
        check "aUb on (a)" false (holds "a U b" "(a)");
        check "aUb needs a until then" false (holds "a U b" "ba(b)" |> not)
        (* b at position 0 satisfies immediately *));
    Alcotest.test_case "weak until" `Quick (fun () ->
        check "aWb on (a)" true (holds "a W b" "(a)");
        check "aWb on ab(a)" true (holds "a W b" "ab(a)"));
    Alcotest.test_case "next and previous" `Quick (fun () ->
        check "Xb on ab(a)" true (holds "X b" "ab(a)");
        check "Xb on ba(a)" false (holds "X b" "ba(a)");
        check "Y at 0 false" false (holds "Y a" "(a)");
        check "Z at 0 true" true (holds "Z b" "(a)"));
    Alcotest.test_case "positions" `Quick (fun () ->
        let l = lasso "ab(ba)" in
        check "p1 b" true (Semantics.holds_at ab (f "b") l 1);
        check "p2 b" true (Semantics.holds_at ab (f "b") l 2);
        check "p3 a" true (Semantics.holds_at ab (f "a") l 3);
        check "Y at 4" true (Semantics.holds_at ab (f "Y a") l 4);
        check "O a at 1" true (Semantics.holds_at ab (f "O a") l 1);
        check "H a at 1" false (Semantics.holds_at ab (f "H a") l 1));
    Alcotest.test_case "since" `Quick (fun () ->
        let l = lasso "ba(a)" in
        check "a S b at 2" true (Semantics.holds_at ab (f "a S b") l 2);
        let l2 = lasso "bb(a)" in
        check "a S b at 1 (b now)" true (Semantics.holds_at ab (f "a S b") l2 1);
        let l3 = lasso "b(a)" in
        check "holds far into cycle" true (Semantics.holds_at ab (f "a S b") l3 40));
    Alcotest.test_case "periodic stabilization of past" `Quick (fun () ->
        (* O b over (ab): true from position 1 on *)
        let l = lasso "(ab)" in
        check "0" false (Semantics.holds_at ab (f "O b") l 0);
        List.iter
          (fun i -> check (string_of_int i) true (Semantics.holds_at ab (f "O b") l i))
          [ 1; 2; 3; 17; 100 ]);
  ]

(* random formula generator: future + past over p, q *)
let gen_formula ~past_ok =
  let open QCheck.Gen in
  let atom = map (fun b -> Formula.Atom (if b then "p" else "q")) bool in
  sized_size (int_bound 8) @@ fix (fun self n ->
      if n <= 1 then oneof [ atom; return Formula.True ]
      else
        let sub = self (n / 2) in
        let unary_future =
          [ map (fun a -> Formula.Not a) sub;
            map (fun a -> Formula.Next a) sub;
            map (fun a -> Formula.Ev a) sub;
            map (fun a -> Formula.Alw a) sub ]
        in
        let binary_future =
          [ map2 (fun a b -> Formula.And (a, b)) sub sub;
            map2 (fun a b -> Formula.Or (a, b)) sub sub;
            map2 (fun a b -> Formula.Until (a, b)) sub sub;
            map2 (fun a b -> Formula.Wuntil (a, b)) sub sub ]
        in
        let past =
          if past_ok then
            (* past operators applied to pure-past operands only *)
            let psub = self (n / 3) in
            let pure p = QCheck.Gen.map (fun x -> if Formula.is_past x then x else Formula.Atom "p") p in
            [ map (fun a -> Formula.Prev a) (pure psub);
              map (fun a -> Formula.Once a) (pure psub);
              map (fun a -> Formula.Hist a) (pure psub);
              map2 (fun a b -> Formula.Since (a, b)) (pure psub) (pure psub);
              map2 (fun a b -> Formula.Wsince (a, b)) (pure psub) (pure psub) ]
          else []
        in
        oneof (unary_future @ binary_future @ past))

let arb_formula =
  QCheck.make ~print:Formula.to_string (gen_formula ~past_ok:true)

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
      QCheck.Test.make ~name:"semantics agrees with tableau automaton" ~count:120
        (QCheck.pair arb_formula arb_lasso)
        (fun (form, l) ->
          let nba = Tableau.translate pq form in
          Semantics.holds pq form l = Tableau.accepts_lasso nba l);
      QCheck.Test.make ~name:"negation flips" ~count:100
        (QCheck.pair arb_formula arb_lasso)
        (fun (form, l) ->
          Semantics.holds pq (Formula.Not form) l = not (Semantics.holds pq form l));
      QCheck.Test.make ~name:"expansion law for until" ~count:100
        (QCheck.pair (QCheck.pair arb_formula arb_formula) arb_lasso)
        (fun ((a, b), l) ->
          Semantics.holds pq (Formula.Until (a, b)) l
          = Semantics.holds pq
              Formula.(Or (b, And (a, Next (Until (a, b)))))
              l);
      QCheck.Test.make ~name:"spelling invariance" ~count:100
        (QCheck.pair arb_formula arb_lasso)
        (fun (form, l) ->
          (* the same infinite word with the cycle unrolled once *)
          let unrolled =
            Finitary.Word.lasso
              ~prefix:(Array.append l.Finitary.Word.prefix l.Finitary.Word.cycle)
              ~cycle:l.Finitary.Word.cycle
          in
          Semantics.holds pq form l = Semantics.holds pq form unrolled);
      QCheck.Test.make ~name:"equiv witness side agrees with the semantics"
        ~count:100 (QCheck.pair arb_formula arb_formula)
        (fun (f1, f2) ->
          match Hierarchy.Engine.equiv pq f1 f2 with
          | Ok `Equivalent -> Tableau.equiv pq f1 f2
          | Ok (`Distinct (w, side)) -> (
              let h1 = Semantics.holds pq f1 w and h2 = Semantics.holds pq f2 w in
              match side with
              | Hierarchy.Engine.First_only -> h1 && not h2
              | Second_only -> h2 && not h1)
          | Error _ -> false);
      QCheck.Test.make ~name:"expand preserves semantics" ~count:100
        (QCheck.pair arb_formula arb_lasso)
        (fun (form, l) ->
          Semantics.holds pq form l
          = Semantics.holds pq (Formula.expand form) l);
      (* checked by the lasso semantics alone, not by an automaton *)
      QCheck.Test.make ~name:"witness satisfies the formula, none is refuted"
        ~count:200 (QCheck.pair arb_formula arb_lasso)
        (fun (form, l) ->
          match Tableau.witness pq form with
          | Some w -> Semantics.holds pq form w
          | None -> not (Semantics.holds pq form l));
    ]

let () =
  Alcotest.run "semantics"
    [ ("hand", hand_tests); ("random", qcheck_tests) ]
