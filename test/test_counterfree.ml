(* Counter-freedom (section 5): only counter-free automata denote
   LTL-expressible properties. *)

open Omega

let ab = Finitary.Alphabet.of_chars "ab"
let pq = Finitary.Alphabet.of_props [ "p"; "q" ]
let check = Alcotest.(check bool)

let tests =
  [
    Alcotest.test_case "LTL-derived automata are counter-free" `Quick
      (fun () ->
        List.iter
          (fun s ->
            check s true
              (Counter_free.is_counter_free (Of_formula.of_string pq s)))
          [
            "[] p"; "<> p"; "[]<> p"; "<>[] p"; "[] (p -> <> q)"; "p U q";
            "[] p & <> q"; "[]<> p | <>[] q";
          ]);
    Alcotest.test_case "modulo counting detected" `Quick (fun () ->
        check "even a-blocks" false
          (Counter_free.is_counter_free (Build.r_re ab "(a a)^+"));
        check "every third letter" false
          (Counter_free.is_counter_free (Build.a_re ab "(. . a)^* + (. . a)^* . + (. . a)^* . .")));
    Alcotest.test_case "counter-free operator images" `Quick (fun () ->
        check "A of counter-free regex" true
          (Counter_free.is_counter_free (Build.a_re ab "a^+ b*"));
        check "R of counter-free" true
          (Counter_free.is_counter_free (Build.r_re ab ".* b")));
    Alcotest.test_case "monoid size grows but stays finite" `Quick (fun () ->
        let m1 = Scans.monoid_size (Build.a_re ab "a^+ b*") in
        check "positive" true (m1 > 0));
    Alcotest.test_case "counter-free closed under product" `Quick (fun () ->
        let x = Of_formula.of_string pq "[]<> p" in
        let y = Of_formula.of_string pq "<>[] q" in
        check "union" true
          (Counter_free.is_counter_free (Automaton.union x y));
        check "inter" true
          (Counter_free.is_counter_free (Automaton.inter x y)));
    Alcotest.test_case "counting product is not counter-free" `Quick
      (fun () ->
        let c = Build.r_re ab "(a a)^+" in
        check "product keeps the counter" false
          (Counter_free.is_counter_free
             (Automaton.union c (Of_formula.of_string ab "[]<> b"))));
  ]

(* Random complete automata, 1-6 states over 1-3 letters: random
   letter maps often permute a cycle, so many of them count. *)
let gen_complete =
  let open QCheck.Gen in
  int_range 1 6 >>= fun n ->
  int_range 1 3 >>= fun k ->
  map2
    (fun start rows ->
      Automaton.make
        ~alpha:(Finitary.Alphabet.of_chars (String.sub "abc" 0 k))
        ~n ~start
        ~delta:(Array.of_list (List.map Array.of_list rows))
        ~acc:Acceptance.True)
    (int_bound (n - 1))
    (list_repeat n (list_repeat k (int_bound (n - 1))))

let arb_complete =
  QCheck.make ~print:(fun a -> Format.asprintf "%a" Automaton.pp a) gen_complete

(* E13's examples: the formula-derived automata and the counting ones *)
let e13_examples =
  List.map (Of_formula.of_string pq)
    [ "[] p"; "<> p"; "[]<> p"; "<>[] p"; "[] (p -> <> q)"; "p U q" ]
  @ [
      Build.r_re ab "(a a)^+";
      Build.a_re ab "(. . a)^* + (. . a)^* . + (. . a)^* . .";
      Build.a_re ab "a^+ b*";
      Build.r_re ab ".* b";
      Automaton.union (Build.r_re ab "(a a)^+")
        (Of_formula.of_string ab "[]<> b");
    ]

let oracle_tests =
  [
    Alcotest.test_case "per-SCC counter-freedom = whole-monoid oracle on E13"
      `Quick (fun () ->
        List.iter
          (fun a ->
            check "agrees" (Scans.is_counter_free a)
              (Counter_free.is_counter_free a))
          e13_examples);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"per-SCC counter-freedom = whole-monoid oracle"
         ~count:3000 arb_complete (fun a ->
           Counter_free.is_counter_free a = Scans.is_counter_free a));
  ]

let () =
  Alcotest.run "counterfree"
    [ ("counterfree", tests); ("oracle", oracle_tests) ]
