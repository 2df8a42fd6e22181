(* Finitary substrate: alphabets, words, DFAs, NFAs, regular
   expressions. *)

open Finitary

let ab = Alphabet.of_chars "ab"
let abc = Alphabet.of_chars "abc"
let pq = Alphabet.of_props [ "p"; "q" ]
let w = Word.of_string ab
let check = Alcotest.(check bool)

let alphabet_tests =
  [
    Alcotest.test_case "sizes" `Quick (fun () ->
        Alcotest.(check int) "ab" 2 (Alphabet.size ab);
        Alcotest.(check int) "abc" 3 (Alphabet.size abc);
        Alcotest.(check int) "props" 4 (Alphabet.size pq));
    Alcotest.test_case "letter names roundtrip" `Quick (fun () ->
        List.iter
          (fun l ->
            Alcotest.(check int)
              "roundtrip" l
              (Alphabet.letter_of_name ab (Alphabet.letter_name ab l)))
          (Alphabet.letters ab));
    Alcotest.test_case "propositional atoms" `Quick (fun () ->
        let l = Alphabet.letter_of_name pq "{p}" in
        check "p holds" true (Alphabet.holds pq "p" l);
        check "q fails" false (Alphabet.holds pq "q" l);
        let l2 = Alphabet.letter_of_name pq "{p,q}" in
        check "both" true (Alphabet.holds pq "p" l2 && Alphabet.holds pq "q" l2));
    Alcotest.test_case "symbolic atoms" `Quick (fun () ->
        check "a is a" true (Alphabet.holds ab "a" (Alphabet.letter_of_name ab "a"));
        check "a is not b" false (Alphabet.holds ab "a" (Alphabet.letter_of_name ab "b")));
    Alcotest.test_case "bad inputs rejected" `Quick (fun () ->
        Alcotest.check_raises "empty" (Invalid_argument "Alphabet.of_chars: empty alphabet")
          (fun () -> ignore (Alphabet.of_chars ""));
        check "unknown atom raises" true
          (try ignore (Alphabet.holds ab "z" 0); false
           with Invalid_argument _ -> true));
  ]

let word_tests =
  [
    Alcotest.test_case "prefix relations" `Quick (fun () ->
        check "proper" true (Word.is_proper_prefix (w "ab") (w "abb"));
        check "not itself" false (Word.is_proper_prefix (w "ab") (w "ab"));
        check "non-strict itself" true (Word.is_prefix (w "ab") (w "ab"));
        check "mismatch" false (Word.is_prefix (w "ba") (w "bb")));
    Alcotest.test_case "lasso positions" `Quick (fun () ->
        let l = Word.lasso_of_string ab "ab(ba)" in
        let names = List.init 7 (fun i -> Alphabet.letter_name ab (Word.at l i)) in
        Alcotest.(check (list string)) "abbabab" [ "a"; "b"; "b"; "a"; "b"; "a"; "b" ] names);
    Alcotest.test_case "lasso equality: spellings" `Quick (fun () ->
        let eq a b =
          Word.equal_lasso (Word.lasso_of_string ab a) (Word.lasso_of_string ab b)
        in
        check "unrolled" true (eq "(ab)" "ab(ab)");
        check "doubled cycle" true (eq "(ab)" "(abab)");
        check "folded" true (eq "a(ba)" "(ab)");
        check "different" false (eq "(ab)" "(ba)");
        check "prefix matters" false (eq "a(b)" "(b)"));
    Alcotest.test_case "distance" `Quick (fun () ->
        let l = Word.lasso_of_string ab in
        Alcotest.(check (float 1e-9)) "differ at 0" 1.0 (Word.distance (l "(a)") (l "(b)"));
        Alcotest.(check (float 1e-9)) "differ at 2" 0.25 (Word.distance (l "aa(a)") (l "aa(b)"));
        Alcotest.(check (float 1e-9)) "equal" 0.0 (Word.distance (l "(ab)") (l "ab(ab)")));
    Alcotest.test_case "distance is zero on every equal-lasso spelling" `Quick
      (fun () ->
        (* regression: spellings that differ in prefix/cycle split,
           unrolling and rotation used to hit the exhausted-scan branch *)
        let l = Word.lasso_of_string ab in
        List.iter
          (fun (s1, s2) ->
            Alcotest.(check (float 1e-9))
              (s1 ^ " vs " ^ s2)
              0.0
              (Word.distance (l s1) (l s2)))
          [
            ("a(a)", "(aa)");
            ("(a)", "aaa(aa)");
            ("a(ba)", "(ab)");
            ("ab(ab)", "(abab)");
            ("abab(ab)", "a(ba)");
            ("(abab)", "ab(abab)");
          ]);
    Alcotest.test_case "enumerate" `Quick (fun () ->
        Alcotest.(check int) "words up to 3 over 2 letters" (2 + 4 + 8)
          (List.length (Word.enumerate ab ~max_len:3));
        let lassos = Word.enumerate_lassos ab ~max_prefix:1 ~max_cycle:2 in
        (* prefixes: eps, a, b (3); cycles: a, b, aa, ab, ba, bb (6) *)
        Alcotest.(check int) "lassos" 18 (List.length lassos));
  ]

let dfa_tests =
  let phi = Regex.compile ab "a^+ b*" in
  [
    Alcotest.test_case "regex membership" `Quick (fun () ->
        check "a" true (Dfa.accepts phi (w "a"));
        check "aab" true (Dfa.accepts phi (w "aab"));
        check "abb" true (Dfa.accepts phi (w "abb"));
        check "b" false (Dfa.accepts phi (w "b"));
        check "aba" false (Dfa.accepts phi (w "aba"));
        check "eps" false (Dfa.accepts phi Word.empty));
    Alcotest.test_case "boolean ops" `Quick (fun () ->
        let psi = Regex.compile ab ".* b" in
        let both = Dfa.inter phi psi in
        check "aab in inter" true (Dfa.accepts both (w "aab"));
        check "aa notin inter" false (Dfa.accepts both (w "aa"));
        let either = Dfa.union phi psi in
        check "b in union" true (Dfa.accepts either (w "b"));
        check "ba notin union" false (Dfa.accepts either (w "ba"));
        check "complement" true (Dfa.accepts (Dfa.complement phi) (w "ba")));
    Alcotest.test_case "minimization canonical" `Quick (fun () ->
        let d1 = Regex.compile ab "a (a + b)* + a" in
        let d2 = Regex.compile ab "a .*  + a" in
        Alcotest.(check int) "same size" d1.Dfa.n d2.Dfa.n;
        check "equal language" true (Dfa.equal d1 d2));
    Alcotest.test_case "emptiness and universality" `Quick (fun () ->
        check "inter of disjoint empty" true
          (Dfa.is_empty (Dfa.inter (Regex.compile ab "a .*") (Regex.compile ab "b .*")));
        check "sigma star universal" true (Dfa.is_universal (Regex.compile ab ".*"));
        check "sigma plus not universal (eps)" false
          (Dfa.is_universal (Dfa.sigma_plus ab));
        check "sigma plus universal nonepsilon" true
          (Dfa.is_empty_nonepsilon (Dfa.complement (Dfa.sigma_plus ab))));
    Alcotest.test_case "inclusion" `Quick (fun () ->
        check "a+b* included in a.*" true
          (Dfa.included_nonepsilon phi (Regex.compile ab "a .*"));
        check "reverse fails" false
          (Dfa.included_nonepsilon (Regex.compile ab "a .*") phi));
    Alcotest.test_case "shortest accepted" `Quick (fun () ->
        match Dfa.shortest_accepted (Regex.compile ab ".* b a b") with
        | Some word -> Alcotest.(check int) "length 3" 3 (Word.length word)
        | None -> Alcotest.fail "no word found");
    Alcotest.test_case "word_lang" `Quick (fun () ->
        let d = Dfa.word_lang ab (w "aba") in
        check "the word" true (Dfa.accepts d (w "aba"));
        check "another" false (Dfa.accepts d (w "abb"));
        check "longer" false (Dfa.accepts d (w "abaa")));
  ]

let regex_tests =
  [
    Alcotest.test_case "size counts the unrolled NFA, saturating" `Quick
      (fun () ->
        List.iter
          (fun src ->
            let e = Regex.parse ab src in
            Alcotest.(check int) src (Regex.to_nfa ab e).Nfa.n (Regex.size e))
          [ "(a b)^3"; "(a + b^+)^2 a*"; "()^0"; "(. b)^* a^4" ];
        Alcotest.(check int) "a^2000000" 4_000_002
          (Regex.size (Regex.parse ab "a^2000000"));
        Alcotest.(check int) "saturates" max_int
          (Regex.size Regex.(Pow (Plus (Pow (Any, max_int / 2)), 3))));
    Alcotest.test_case "powers" `Quick (fun () ->
        let d = Regex.compile ab "(a b)^3" in
        check "ababab" true (Dfa.accepts d (w "ababab"));
        check "abab" false (Dfa.accepts d (w "abab")));
    Alcotest.test_case "plus vs star" `Quick (fun () ->
        check "a* has eps" true (Dfa.accepts (Regex.compile ab "a^*") Word.empty);
        check "a^+ no eps" false (Dfa.accepts (Regex.compile ab "a^+") Word.empty));
    Alcotest.test_case "empty word ()" `Quick (fun () ->
        let d = Regex.compile ab "() + a b" in
        check "eps" true (Dfa.accepts d Word.empty);
        check "ab" true (Dfa.accepts d (w "ab"));
        check "a" false (Dfa.accepts d (w "a")));
    Alcotest.test_case "dot is any" `Quick (fun () ->
        let d = Regex.compile abc ". c" in
        check "ac" true (Dfa.accepts d (Word.of_string abc "ac"));
        check "cc" true (Dfa.accepts d (Word.of_string abc "cc"));
        check "ca" false (Dfa.accepts d (Word.of_string abc "ca")));
    Alcotest.test_case "parse errors" `Quick (fun () ->
        List.iter
          (fun bad ->
            check bad true
              (try ignore (Regex.parse ab bad); false
               with Invalid_argument _ -> true))
          [ "a +"; "(a"; "a)"; "x"; "a ^"; "" ]);
    Alcotest.test_case "print/parse roundtrip" `Quick (fun () ->
        List.iter
          (fun s ->
            let e = Regex.parse ab s in
            let printed = Format.asprintf "%a" (Regex.pp ab) e in
            check s true (Dfa.equal (Regex.to_dfa ab e) (Regex.compile ab printed)))
          [ "a^+ b*"; "(a + b)^2 a"; ".* b (a + ())" ]);
  ]

(* qcheck: random regexes, algebraic laws of the language operations *)
let gen_regex =
  let open QCheck.Gen in
  sized_size (int_bound 10)
  @@ fix (fun self n ->
      if n <= 1 then
        oneof [ return Regex.Eps; map (fun b -> Regex.Letter (if b then 0 else 1)) bool; return Regex.Any ]
      else
        frequency
          [
            (3, map2 (fun a b -> Regex.Alt (a, b)) (self (n / 2)) (self (n / 2)));
            (4, map2 (fun a b -> Regex.Seq (a, b)) (self (n / 2)) (self (n / 2)));
            (2, map (fun a -> Regex.Star a) (self (n - 1)));
            (1, map (fun a -> Regex.Plus a) (self (n - 1)));
          ])

let arb_regex =
  QCheck.make ~print:(fun e -> Format.asprintf "%a" (Regex.pp ab) e) gen_regex

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~name:"de morgan on random regex pairs" ~count:60
        (QCheck.pair arb_regex arb_regex)
        (fun (e1, e2) ->
          let d1 = Regex.to_dfa ab e1 and d2 = Regex.to_dfa ab e2 in
          Dfa.equal
            (Dfa.complement (Dfa.union d1 d2))
            (Dfa.inter (Dfa.complement d1) (Dfa.complement d2)));
      QCheck.Test.make ~name:"star idempotent" ~count:40 arb_regex (fun e ->
          Dfa.equal
            (Regex.to_dfa ab (Regex.Star (Regex.Star e)))
            (Regex.to_dfa ab (Regex.Star e)));
      QCheck.Test.make ~name:"minimize preserves language on samples" ~count:40
        arb_regex
        (fun e ->
          let d = Nfa.determinize (Regex.to_nfa ab e) in
          let m = Dfa.minimize d in
          List.for_all
            (fun word -> Dfa.accepts d word = Dfa.accepts m word)
            (Word.enumerate ab ~max_len:5));
      QCheck.Test.make ~name:"size is the Thompson state count" ~count:60
        arb_regex (fun e ->
          List.for_all
            (fun e -> Regex.size e = (Regex.to_nfa ab e).Nfa.n)
            [ e; Regex.Pow (e, 3); Regex.Plus e ]);
      QCheck.Test.make ~name:"nfa and dfa agree" ~count:40 arb_regex (fun e ->
          let nfa = Regex.to_nfa ab e in
          let dfa = Nfa.determinize nfa in
          List.for_all
            (fun word -> Nfa.accepts nfa word = Dfa.accepts dfa word)
            (Word.enumerate ab ~max_len:4));
      QCheck.Test.make ~name:"canonical lasso preserves the word" ~count:100
        (QCheck.pair QCheck.(list_of_size Gen.(0 -- 3) (QCheck.int_bound 1))
           QCheck.(list_of_size Gen.(1 -- 4) (QCheck.int_bound 1)))
        (fun (pre, cyc) ->
          QCheck.assume (cyc <> []);
          let l = Word.lasso ~prefix:(Array.of_list pre) ~cycle:(Array.of_list cyc) in
          let c = Word.canonical l in
          List.for_all (fun i -> Word.at l i = Word.at c i)
            (List.init 12 Fun.id));
      (let arb_lasso =
         QCheck.map
           (fun (pre, cyc) ->
             Word.lasso
               ~prefix:(Array.of_list pre)
               ~cycle:(Array.of_list (match cyc with [] -> [ 0 ] | l -> l)))
           (QCheck.pair
              QCheck.(list_of_size Gen.(0 -- 4) (QCheck.int_bound 1))
              QCheck.(list_of_size Gen.(1 -- 5) (QCheck.int_bound 1)))
       in
       QCheck.Test.make
         ~name:"distance is total, symmetric, zero iff equal" ~count:400
         (QCheck.pair arb_lasso arb_lasso)
         (fun (l1, l2) ->
           (* regression: distance used to [assert false] when the
              difference scan overran its bound on equal words *)
           let d = Word.distance l1 l2 in
           d = Word.distance l2 l1
           && d >= 0.
           && (d = 0.) = Word.equal_lasso l1 l2));
    ]

(* Canonicity of [Dfa.minimize] on random complete DFAs: same language,
   idempotent, and blind to how the input numbers its states. *)
let arb_dfa =
  let gen =
    let open QCheck.Gen in
    int_range 2 4 >>= fun k ->
    int_range 1 12 >>= fun n ->
    let alpha = Alphabet.of_chars (String.sub "abcd" 0 k) in
    int_bound (n - 1) >>= fun start ->
    array_repeat n (array_repeat k (int_bound (n - 1))) >>= fun delta ->
    array_repeat n bool >>= fun accept ->
    (* a renumbering of the states *)
    shuffle_l (List.init n Fun.id) >|= fun perm ->
    (Dfa.make ~alpha ~n ~start ~delta ~accept, Array.of_list perm)
  in
  QCheck.make ~print:(fun (d, _) -> Format.asprintf "%a" Dfa.pp d) gen

(* Larger DFAs with few accepting states and a bias towards
   neighbouring targets, so that classes split at many depths. *)
let arb_sparse_dfa =
  let gen =
    let open QCheck.Gen in
    int_range 1 3 >>= fun k ->
    int_range 1 60 >>= fun n ->
    let alpha = Alphabet.of_chars (String.sub "abc" 0 k) in
    let target q =
      frequency
        [ (3, return ((q + 1) mod n)); (1, return q); (1, int_bound (n - 1)) ]
    in
    int_bound (n - 1) >>= fun start ->
    flatten_a (Array.init n (fun q -> array_repeat k (target q)))
    >>= fun delta ->
    array_repeat n (frequencyl [ (5, false); (1, true) ]) >|= fun accept ->
    Dfa.make ~alpha ~n ~start ~delta ~accept
  in
  QCheck.make ~print:(Format.asprintf "%a" Dfa.pp) gen

let renumber (d : Dfa.t) perm =
  let delta = Array.make d.n [||] and accept = Array.make d.n false in
  Array.iteri
    (fun q row ->
      delta.(perm.(q)) <- Array.map (fun q' -> perm.(q')) row;
      accept.(perm.(q)) <- d.accept.(q))
    d.delta;
  Dfa.make ~alpha:d.alpha ~n:d.n ~start:perm.(d.start) ~delta ~accept

let minimize_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~name:"minimize is canonical" ~count:500 arb_dfa
        (fun (d, perm) ->
          let m = Dfa.minimize d in
          Dfa.equal d m
          && Dfa.minimize m = m
          && Dfa.minimize (renumber d perm) = m);
      QCheck.Test.make ~name:"Hopcroft = Moore, structurally" ~count:2000
        arb_sparse_dfa (fun d -> Dfa.minimize d = Moore.minimize d);
    ]
  @ [
      Alcotest.test_case "a 5000-state chain minimizes in linear space"
        `Quick (fun () ->
          (* Moore refinement takes one round per state on a chain, each
             allocating a signature table: about 10^9 words here *)
          let d = Finitary.Regex.compile (Alphabet.of_chars "a") "a^5000" in
          let chain =
            Dfa.make ~alpha:d.alpha ~n:d.n ~start:d.start ~delta:d.delta
              ~accept:d.accept
          in
          let before = Gc.minor_words () in
          let m = Dfa.minimize chain in
          let words = Gc.minor_words () -. before in
          Alcotest.(check int) "states" 5002 m.n;
          if words > 200_000. then
            Alcotest.failf "minimize allocated %.0f words" words);
    ]

let () =
  Alcotest.run "finitary"
    [
      ("alphabet", alphabet_tests);
      ("word", word_tests);
      ("dfa", dfa_tests);
      ("regex", regex_tests);
      ("properties", qcheck_tests);
      ("minimize", minimize_tests);
    ]
