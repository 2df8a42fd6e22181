(* Formula ADT, parser, printer, past testers and esat. *)

open Logic

let ab = Finitary.Alphabet.of_chars "ab"
let pq = Finitary.Alphabet.of_props [ "p"; "q" ]
let check = Alcotest.(check bool)
let f = Parser.parse

let parser_tests =
  [
    Alcotest.test_case "precedence" `Quick (fun () ->
        check "imp right assoc" true
          (Formula.equal (f "p -> q -> r") (f "p -> (q -> r)"));
        check "and binds tighter than or" true
          (Formula.equal (f "p & q | r") (f "(p & q) | r"));
        check "until binds tighter than and" true
          (Formula.equal (f "p U q & r") (f "(p U q) & r"));
        check "unary tightest" true
          (Formula.equal (f "[] p & q") (f "([] p) & q"));
        check "nested unary" true
          (Formula.equal (f "[]<> p") (Formula.Alw (Ev (Atom "p")))));
    Alcotest.test_case "all operators" `Quick (fun () ->
        check "ok" true
          (Formula.equal
             (f "p U q | p W q | p S q | p B q")
             Formula.(Or (Until (Atom "p", Atom "q"),
                          Or (Wuntil (Atom "p", Atom "q"),
                              Or (Since (Atom "p", Atom "q"),
                                  Wsince (Atom "p", Atom "q")))))));
    Alcotest.test_case "keywords" `Quick (fun () ->
        check "first" true (Formula.equal (f "first") Formula.first);
        check "true/false" true
          (Formula.equal (f "true -> false") (Imp (True, False))));
    Alcotest.test_case "value atoms" `Quick (fun () ->
        check "pc1=2" true (Formula.equal (f "pc1=2") (Atom "pc1=2")));
    Alcotest.test_case "errors" `Quick (fun () ->
        List.iter
          (fun s ->
            check s true
              (try ignore (f s); false with Invalid_argument _ -> true))
          [ "p &"; "(p"; "p )"; "Q"; "p <- q"; "" ]);
    Alcotest.test_case "print/parse roundtrip" `Quick (fun () ->
        List.iter
          (fun s ->
            let form = f s in
            check s true (Formula.equal form (f (Formula.to_string form))))
          [
            "[] (p -> <> q)";
            "p U (q & ! r)";
            "Y p S (q B r)";
            "<>[] p | []<> q -> X p";
            "p <-> q <-> r";
            "H (O p & ! Z q)";
          ]);
  ]

let formula_tests =
  [
    Alcotest.test_case "is_past / is_future / is_state" `Quick (fun () ->
        check "past" true (Formula.is_past (f "p S (q & Y r)"));
        check "not past" false (Formula.is_past (f "p S (q & X r)"));
        check "future" true (Formula.is_future (f "p U <> q"));
        check "not future" false (Formula.is_future (f "p U O q"));
        check "state" true (Formula.is_state (f "p & !q | r"));
        check "not state" false (Formula.is_state (f "O p")));
    Alcotest.test_case "subformulas bottom-up" `Quick (fun () ->
        let subs = Formula.subformulas (f "[] (p -> <> p)") in
        Alcotest.(check int) "count" 4 (List.length subs);
        check "first is atom" true (List.hd subs = Atom "p"));
    Alcotest.test_case "atoms" `Quick (fun () ->
        Alcotest.(check (list string)) "atoms" [ "p"; "q" ]
          (List.sort compare (Formula.atoms (f "[] (p -> <> (q & p))"))));
    Alcotest.test_case "size" `Quick (fun () ->
        Alcotest.(check int) "size" 5 (Formula.size (f "[] (p -> <> q)")));
  ]

let raises_invalid msg fn =
  match fn () with
  | _ -> Alcotest.failf "no Invalid_argument %S" msg
  | exception Invalid_argument m -> Alcotest.(check string) "message" msg m

(* esat: the finitary property defined by a past formula (section 4) *)
let esat_tests =
  let w = Finitary.Word.of_string ab in
  [
    Alcotest.test_case "paper example: a* b  is  b & Z H a" `Quick (fun () ->
        let d = Past_tester.esat ab (f "b & Z H a") in
        let expected = Finitary.Regex.compile ab "a^* b" in
        check "equal" true (Finitary.Dfa.equal_nonepsilon d expected));
    Alcotest.test_case "esat matches end_satisfies pointwise" `Quick (fun () ->
        List.iter
          (fun p ->
            let d = Past_tester.esat ab p in
            List.iter
              (fun word ->
                check (Formula.to_string p) (Semantics.end_satisfies ab p word)
                  (Finitary.Dfa.accepts d word))
              (Finitary.Word.enumerate ab ~max_len:5))
          [ f "O b"; f "H a"; f "a S b"; f "Y a"; f "first"; f "b & Z H a";
            f "a B b"; f "Y Y b"; f "O (a & Y b)";
            (* weak operators nested and at position 0 *)
            f "Z (a S b)"; f "a B (b & Y a)"; f "H (a B b)"; f "Z Z a";
            f "O (Z b & a)" ]);
    Alcotest.test_case "esat of once = E_f of letter" `Quick (fun () ->
        let d = Past_tester.esat ab (f "O b") in
        let expected = Finitary.Lang_ops.e_f (Finitary.Regex.compile ab ".* b") in
        check "equal" true (Finitary.Dfa.equal_nonepsilon d expected));
    Alcotest.test_case "tester tracks several formulas" `Quick (fun () ->
        let t = Past_tester.make ab [ f "O a"; f "H a" ] in
        let q = Past_tester.step t (Past_tester.initial t) (Finitary.Alphabet.letter_of_name ab "a") in
        check "O a after a" true (Past_tester.value t q 0);
        check "H a after a" true (Past_tester.value t q 1);
        let q2 = Past_tester.step t q (Finitary.Alphabet.letter_of_name ab "b") in
        check "O a after ab" true (Past_tester.value t q2 0);
        check "H a after ab" false (Past_tester.value t q2 1));
    Alcotest.test_case "rejects future formulas" `Quick (fun () ->
        raises_invalid "Past_tester.make: not a past formula" (fun () ->
            Past_tester.esat ab (f "<> a"));
        raises_invalid "Past_tester.make: not a past formula" (fun () ->
            Past_tester.make pq [ f "O p"; f "p U q" ]));
    Alcotest.test_case "empty word rejected by esat dfa" `Quick (fun () ->
        check "no eps" false
          (Finitary.Dfa.accepts_empty (Past_tester.esat ab (f "H a"))));
    Alcotest.test_case "end_satisfies basics" `Quick (fun () ->
        check "Y a on ba" false (Semantics.end_satisfies ab (f "Y a") (w "ba"));
        check "Y b on ba" true (Semantics.end_satisfies ab (f "Y b") (w "ba"));
        check "first on a" true (Semantics.end_satisfies ab (f "first") (w "a"));
        check "first on aa" false (Semantics.end_satisfies ab (f "first") (w "aa")));
    Alcotest.test_case "weak operators at position 0" `Quick (fun () ->
        (* Z is weak previous: vacuously true at the first position,
           where Y is false; B is weak since: H g | (g S h) *)
        check "Z a on b" true (Semantics.end_satisfies ab (f "Z a") (w "b"));
        check "Y a on b" false (Semantics.end_satisfies ab (f "Y a") (w "b"));
        check "Z a on ba" false (Semantics.end_satisfies ab (f "Z a") (w "ba"));
        check "Z b on ba" true (Semantics.end_satisfies ab (f "Z b") (w "ba"));
        check "a B b on aa" true
          (Semantics.end_satisfies ab (f "a B b") (w "aa")));
    Alcotest.test_case "weak-operator laws, pointwise" `Quick (fun () ->
        (* p B q = H p | p S q  and  Z p = !Y !p, on every short word *)
        let same s1 s2 =
          let g1 = f s1 and g2 = f s2 in
          List.iter
            (fun word ->
              check
                (s1 ^ " = " ^ s2)
                (Semantics.end_satisfies ab g1 word)
                (Semantics.end_satisfies ab g2 word))
            (Finitary.Word.enumerate ab ~max_len:5)
        in
        same "a B b" "H a | a S b";
        same "Z a" "! Y ! a";
        same "Z (a S b)" "! Y ! (a S b)");
  ]

(* The compiled tester against [Semantics], which does not use it:
   random pure-past formulas of depth <= 4, every past operator and
   connective, tracked one to three at a time. *)
let gen_past atoms =
  let open QCheck.Gen in
  let leaf =
    frequency
      [ (4, map (fun a -> Formula.Atom a) (oneofa atoms));
        (1, oneofl [ Formula.True; Formula.False; Formula.first ]) ]
  in
  let rec past d =
    if d = 0 then leaf
    else
      let sub = past (d - 1) in
      frequency
        [ (1, leaf);
          ( 2,
            oneof
              [ map (fun a -> Formula.Not a) sub;
                map (fun a -> Formula.Prev a) sub;
                map (fun a -> Formula.Wprev a) sub;
                map (fun a -> Formula.Once a) sub;
                map (fun a -> Formula.Hist a) sub ] );
          ( 3,
            oneof
              [ map2 (fun a b -> Formula.And (a, b)) sub sub;
                map2 (fun a b -> Formula.Or (a, b)) sub sub;
                map2 (fun a b -> Formula.Imp (a, b)) sub sub;
                map2 (fun a b -> Formula.Iff (a, b)) sub sub;
                map2 (fun a b -> Formula.Since (a, b)) sub sub;
                map2 (fun a b -> Formula.Wsince (a, b)) sub sub ] ) ]
  in
  int_range 1 4 >>= past

let arb_tracked =
  let gen =
    let open QCheck.Gen in
    oneofl [ [ "p"; "q" ]; [ "p"; "q"; "r" ] ] >>= fun props ->
    list_size (int_range 1 3) (gen_past (Array.of_list props)) >|= fun ps ->
    (props, ps)
  in
  QCheck.make
    ~print:(fun (props, ps) ->
      String.concat "," props ^ ": "
      ^ String.concat "; " (List.map Formula.to_string ps))
    gen

(* Every word up to length 5, walked letter by letter through the
   tester. *)
let tester_agrees (props, ps) =
  let alpha = Finitary.Alphabet.of_props props in
  let t = Past_tester.make alpha ps in
  let rec walk q rev_word len =
    (len = 0
    ||
    let word = Array.of_list (List.rev rev_word) in
    List.for_all Fun.id
      (List.mapi
         (fun i p ->
           Past_tester.value t q i = Semantics.end_satisfies alpha p word)
         ps))
    && (len = 5
       || List.for_all
            (fun a -> walk (Past_tester.step t q a) (a :: rev_word) (len + 1))
            (Finitary.Alphabet.letters alpha))
  in
  walk (Past_tester.initial t) [] 0

(* [nots n g]: [g] under [n] negations, [n + 1] state-free subformulas *)
let rec nots n g = if n = 0 then g else Formula.Not (nots (n - 1) g)

let tester_tests =
  [
    Alcotest.test_case "62 subformulas build, 63 are refused" `Quick
      (fun () ->
        (* O p & q under m negations: O p, p, the m + 1 negation chain
           and the And; the conjunction is state-free but for O p *)
        let closure m = Formula.And (f "O p", nots m (f "q")) in
        Alcotest.(check int) "62" 62
          (List.length (Formula.subformulas (closure 58)));
        let t = Past_tester.make pq [ closure 58 ] in
        let run word =
          List.fold_left
            (fun q l ->
              Past_tester.step t q (Finitary.Alphabet.letter_of_name pq l))
            (Past_tester.initial t) word
        in
        check "{q}" false (Past_tester.value t (run [ "{q}" ]) 0);
        check "{p,q}" true (Past_tester.value t (run [ "{p,q}" ]) 0);
        check "{p} {q}" true (Past_tester.value t (run [ "{p}"; "{q}" ]) 0);
        Alcotest.(check int) "states" 7 (Past_tester.n_states t);
        raises_invalid "Past_tester.make: formula too large (> 62 subformulae)"
          (fun () -> Past_tester.make pq [ closure 59 ]));
    Alcotest.test_case "an unknown atom raises Alphabet.holds's error" `Quick
      (fun () ->
        (* the first unknown atom in closure order is the one named *)
        raises_invalid "Alphabet.holds: unknown proposition \"y\""
          (fun () -> Past_tester.make pq [ f "p"; f "O (y & x)" ]);
        raises_invalid "Alphabet.holds: unknown letter \"c\""
          (fun () -> Past_tester.make ab [ f "a S c" ]));
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        QCheck.Test.make ~name:"value = end_satisfies on every short word"
          ~count:50 arb_tracked tester_agrees;
      ]
  @ [
      Alcotest.test_case "make's state counts are pinned" `Quick (fun () ->
          (* [make] keys states by the full truth vector (the tableau
             reads every tracked formula), unlike [esat]'s tester *)
          let pqr = Finitary.Alphabet.of_props [ "p"; "q"; "r" ] in
          List.iter
            (fun (ps, n) ->
              let t = Past_tester.make pqr (List.map f ps) in
              Alcotest.(check int) (String.concat "; " ps) n
                (Past_tester.n_states t))
            [
              ([ "p S q" ], 6);
              ([ "Y p" ], 5);
              ([ "Z (p S q)" ], 10);
              ([ "H (p | q)" ], 8);
              ([ "!q & O p" ], 7);
              ([ "p B q" ], 6);
              ([ "first & O p" ], 6);
              ([ "(p S q) & Y Y p" ], 21);
              ([ "O (p & Y q) S H !r" ], 59);
              ([ "O p"; "H q"; "p S q" ], 11);
              ([ "Y (p S (q & Z r))"; "O (r & Y Y p)" ], 225);
              ([ "(p <-> Y q) B (O r -> H p)" ], 45);
            ]);
    ]

(* canonical-form rewriting on the edges Shape leans on: the weak
   operators W/B/Z and past nested under future modalities *)
let rewrite_tests =
  [
    Alcotest.test_case "classify on weak and nested-past shapes" `Quick
      (fun () ->
        List.iter
          (fun (s, expected) ->
            Alcotest.(check (option string))
              s
              (Option.map Kappa.name expected)
              (Option.map Kappa.name (Rewrite.classify (f s))))
          [
            ("p W q", Some (Kappa.Obligation 1));
            ("p B q", Some Kappa.Safety);
            ("Z p", Some Kappa.Safety);
            ("<> (p B q)", Some Kappa.Guarantee);
            ("[] (p -> O q)", Some Kappa.Safety);
            ("[]<> O p", Some Kappa.Recurrence);
            ("[] (p -> <> (q & O p))", Some Kappa.Recurrence);
            ("X O p", Some Kappa.Guarantee);
            (* nested future under [] is outside the canonical fragment *)
            ("[] (p W q)", None);
            ("p W (q W p)", None);
          ]);
    Alcotest.test_case "to_canon is equivalence-preserving" `Quick (fun () ->
        List.iter
          (fun s ->
            let form = f s in
            match Rewrite.to_canon form with
            | None -> Alcotest.fail (s ^ " should normalize")
            | Some c ->
                check s true
                  (Tableau.equiv pq (Rewrite.to_formula c) form);
                check (s ^ " dual") true
                  (Tableau.equiv pq
                     (Rewrite.to_formula (Rewrite.dual c))
                     (Formula.Not form)))
          [
            "p W q";
            "p B q";
            "Z p";
            "X O p";
            "[] (p -> O q)";
            "<> (p S q) & p W q";
            "[] (first -> p)";
          ]);
  ]

(* tableau basics (the equivalences battery is its own executable) *)
let tableau_tests =
  [
    Alcotest.test_case "satisfiability" `Quick (fun () ->
        check "p" true (Tableau.satisfiable pq (f "p"));
        check "contradiction" false (Tableau.satisfiable pq (f "p & !p"));
        check "deep contradiction" false
          (Tableau.satisfiable pq (f "[]<> p & <>[] !p"));
        check "fine" true (Tableau.satisfiable pq (f "[]<> p & []<> !p")));
    Alcotest.test_case "validity" `Quick (fun () ->
        check "excluded middle" true (Tableau.valid pq (f "<> p | [] !p"));
        check "not valid" false (Tableau.valid pq (f "<> p")));
    Alcotest.test_case "witness satisfies its formula" `Quick (fun () ->
        List.iter
          (fun s ->
            let form = f s in
            match Tableau.witness pq form with
            | Some l -> check s true (Semantics.holds pq form l)
            | None -> Alcotest.fail ("no witness for " ^ s))
          [ "[]<> p & []<> !p"; "p U q"; "<>[] (p & !q)"; "X X p & [] (p -> X !p)";
            "O p" ]);
    Alcotest.test_case "unsupported nesting raises" `Quick (fun () ->
        check "past over future" true
          (try ignore (Tableau.satisfiable pq (f "O <> p")); false
           with Tableau.Unsupported _ -> true));
    Alcotest.test_case "past-augmented satisfiability" `Quick (fun () ->
        check "response with past" true
          (Tableau.satisfiable pq (f "[] (p -> <> (q & O p)) & []<> p"));
        check "first-position trick" true
          (Tableau.valid pq (f "[] (first -> (p | !p))")));
    Alcotest.test_case "unknown atoms raise when a letter is checked" `Quick
      (fun () ->
        (* an atom outside the alphabet raises as soon as a product
           step evaluates it on a letter; a formula whose tableau closes
           before any node mentions it is simply unsatisfiable *)
        List.iter
          (fun s ->
            Alcotest.check_raises s
              (Invalid_argument "Alphabet.holds: unknown proposition \"r\"")
              (fun () -> ignore (Tableau.satisfiable pq (f s))))
          [ "r"; "Y r"; "[] (p -> <> r)" ];
        check "closed before r" false
          (Tableau.satisfiable pq (f "p & !p & r")));
    Alcotest.test_case "products need one alphabet" `Quick (fun () ->
        let pqr = Finitary.Alphabet.of_props [ "p"; "q"; "r" ] in
        Alcotest.check_raises "mismatch"
          (Invalid_argument "Tableau.intersects: alphabet mismatch")
          (fun () ->
            ignore
              (Tableau.intersects (Tableau.translate pq (f "p"))
                 (Tableau.translate pqr (f "p")))));
  ]

(* Random formulas over [atoms], past operators applied to pure-past
   operands only (the tableau rejects past over future). *)
let gen_formula atoms =
  let open QCheck.Gen in
  let atom = map (fun a -> Formula.Atom a) (oneofa atoms) in
  let rec past n =
    if n <= 1 then atom
    else
      let sub = past (n / 2) in
      oneof
        [ atom;
          map (fun a -> Formula.Not a) sub;
          map (fun a -> Formula.Prev a) sub;
          map (fun a -> Formula.Wprev a) sub;
          map (fun a -> Formula.Once a) sub;
          map (fun a -> Formula.Hist a) sub;
          map2 (fun a b -> Formula.Since (a, b)) sub sub;
          map2 (fun a b -> Formula.Wsince (a, b)) sub sub;
          map2 (fun a b -> Formula.And (a, b)) sub sub ]
  in
  sized_size (int_bound 6) @@ fix (fun self n ->
      if n <= 1 then oneof [ atom; atom; return Formula.True; past 3 ]
      else
        let sub = self (n / 2) in
        oneof
          [ map (fun a -> Formula.Not a) sub;
            map (fun a -> Formula.Next a) sub;
            map (fun a -> Formula.Ev a) sub;
            map (fun a -> Formula.Alw a) sub;
            map2 (fun a b -> Formula.And (a, b)) sub sub;
            map2 (fun a b -> Formula.Or (a, b)) sub sub;
            map2 (fun a b -> Formula.Imp (a, b)) sub sub;
            map2 (fun a b -> Formula.Until (a, b)) sub sub;
            map2 (fun a b -> Formula.Wuntil (a, b)) sub sub;
            past 3 ])

(* A requirement pair over two or three atoms.  Independent random
   formulas rarely imply or contradict each other, so a third of the
   pairs are built to: [b] weakens [a], or contradicts a part of it. *)
let gen_requirement_pair =
  let open QCheck.Gen in
  oneofl [ [| "p"; "q" |]; [| "p"; "q"; "r" |] ] >>= fun atoms ->
  let f = gen_formula atoms in
  triple f f (int_bound 5) >|= fun (a, b, how) ->
  let b =
    match how with
    | 0 -> Formula.Or (a, b)
    | 1 -> Formula.And (Formula.Not a, b)
    | _ -> b
  in
  (atoms, a, b)

(* The pairs reachable from [(0, 0)] in the synchronous product,
   counted by a BFS over the two automata's transitions. *)
let reachable_pairs a b =
  let seen = Hashtbl.create 64 and queue = Queue.create () in
  let visit pair =
    if not (Hashtbl.mem seen pair) then begin
      Hashtbl.add seen pair ();
      Queue.add pair queue
    end
  in
  visit (0, 0);
  while not (Queue.is_empty queue) do
    let i, j = Queue.pop queue in
    List.iter
      (fun (l, i') ->
        List.iter
          (fun (l', j') -> if l = l' then visit (i', j'))
          (Tableau.transitions b j))
      (Tableau.transitions a i)
  done;
  Hashtbl.length seen

(* [intersects a b] with the ticks it spent and the product states it
   reports visiting. *)
let intersects_counted a b =
  let budget = Budget.make ~fuel:1_000_000_000 () in
  let t = Telemetry.collector () in
  let meets =
    Telemetry.with_ambient t (fun () -> Tableau.intersects ~budget a b)
  in
  let visited =
    match
      List.assoc_opt "tableau.product_states"
        (Telemetry.report t).Telemetry.histograms
    with
    | Some h -> int_of_float h.Telemetry.sum
    | None -> Alcotest.fail "no tableau.product_states histogram"
  in
  (meets, Budget.spent budget, visited)

(* One tick per product state visited; an empty product is visited
   whole, a non-empty one only until its first accepting SCC. *)
let budget_contract a b =
  let meets, ticks, visited = intersects_counted a b in
  ticks = visited
  && if meets then ticks <= reachable_pairs a b
     else ticks = reachable_pairs a b

(* Lint decides its pairwise matrix on products of the per-requirement
   automata; the compound formulas it used to translate are the oracle *)
let product_tests =
  Alcotest.test_case "a non-empty product stops early" `Quick (fun () ->
      let a = Tableau.translate pq (f "[] (p -> <> q)")
      and b = Tableau.translate pq (f "[] <> p") in
      let meets, ticks, visited = intersects_counted a b in
      let all = reachable_pairs a b in
      check "non-empty" true meets;
      Alcotest.(check int) "one tick per visited state" visited ticks;
      if ticks >= all then
        Alcotest.failf "%d ticks on a product of %d reachable pairs" ticks all)
  :: List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~name:"products tick once per state visited"
        ~count:300
        (QCheck.make
           ~print:(fun (_, a, b) ->
             Formula.to_string a ^ "  ,  " ^ Formula.to_string b)
           gen_requirement_pair)
        (fun (atoms, a, b) ->
          let alpha = Finitary.Alphabet.of_props (Array.to_list atoms) in
          let pos g = Tableau.translate alpha g
          and neg g = Tableau.translate alpha (Formula.Not g) in
          budget_contract (pos a) (pos b)
          && budget_contract (pos a) (neg b)
          && budget_contract (pos b) (neg a));
      QCheck.Test.make ~name:"products agree with the compound formulas"
        ~count:500
        (QCheck.make
           ~print:(fun (_, a, b) ->
             Formula.to_string a ^ "  ,  " ^ Formula.to_string b)
           gen_requirement_pair)
        (fun (atoms, a, b) ->
          let alpha = Finitary.Alphabet.of_props (Array.to_list atoms) in
          let pos g = Tableau.translate alpha g
          and neg g = Tableau.translate alpha (Formula.Not g) in
          let a_pos = pos a and a_neg = neg a and b_pos = pos b
          and b_neg = neg b in
          Tableau.nonempty a_pos = Tableau.satisfiable alpha a
          && Tableau.nonempty a_neg = not (Tableau.valid alpha a)
          && Tableau.intersects a_pos b_pos
             = Tableau.satisfiable alpha (Formula.And (a, b))
          && (not (Tableau.intersects a_pos b_neg))
             = Tableau.valid alpha (Formula.Imp (a, b))
          && (not (Tableau.intersects b_pos a_neg))
             = Tableau.valid alpha (Formula.Imp (b, a)));
    ]

(* Parser fuzz: on any input, [parse] either returns or raises its
   documented [Invalid_argument "Parser: ... at position N ..."], and
   [parse_spanned] does exactly the same. *)
let parser_outcome parse s =
  match parse s with
  | f -> Ok f
  | exception Invalid_argument m -> Error m

let documented_error m =
  String.starts_with ~prefix:"Parser: " m
  &&
  let key = " at position " in
  let k = String.length key in
  let rec find i =
    i + k < String.length m
    && ((String.sub m i k = key && m.[i + k] >= '0' && m.[i + k] <= '9')
       || find (i + 1))
  in
  find 0

let parses_or_fails_documented s =
  let plain = parser_outcome Parser.parse s in
  let spanned =
    Result.map (fun sp -> sp.Parser.f) (parser_outcome Parser.parse_spanned s)
  in
  (match plain with Ok _ -> true | Error m -> documented_error m)
  && plain = spanned

(* the token characters, with stray and control bytes mixed in *)
let fuzz_chars =
  "pqr_xy01=9 ()!&|-<>[]XUWYZSBOH truefalsefirst\t\n#.,=A\000\255"

let gen_fuzz_string =
  QCheck.Gen.(string_size ~gen:(map (String.get fuzz_chars) (int_bound (String.length fuzz_chars - 1))) (int_bound 40))

(* a printed random formula, then one to three edits: delete, insert,
   duplicate a slice or truncate *)
let gen_mutated_formula =
  let open QCheck.Gen in
  let edit s =
    let n = String.length s in
    int_bound 3 >>= fun how ->
    int_bound (max 0 n) >>= fun i ->
    int_bound (max 0 (n - i)) >>= fun len ->
    map (String.get fuzz_chars) (int_bound (String.length fuzz_chars - 1))
    >|= fun c ->
    match how with
    | 0 when n > 0 && i < n -> String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
    | 1 -> String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)
    | 2 -> String.sub s 0 i ^ String.sub s i len ^ String.sub s i (n - i)
    | _ -> String.sub s 0 i
  in
  gen_formula [| "p"; "q"; "r" |] >>= fun f ->
  int_range 1 3 >>= fun edits ->
  let rec go k s = if k = 0 then return s else edit s >>= go (k - 1) in
  go edits (Formula.to_string f)

let parser_fuzz_tests =
  Alcotest.test_case "deep nesting is refused, not recursed into" `Quick
    (fun () ->
      List.iter
        (fun (opener, closer) ->
          let n = 1_000_000 in
          let s =
            String.concat "" (List.init n (fun _ -> opener))
            ^ "p"
            ^ String.concat "" (List.init n (fun _ -> closer))
          in
          match Parser.parse s with
          | _ -> Alcotest.failf "%S x %d parsed" opener n
          | exception Invalid_argument m ->
              check "documented message" true (documented_error m))
        [ ("(", ")"); ("!", ""); ("p & ", ""); ("X ", "") ];
      check "moderate nesting parses" true
        (match Parser.parse (String.make 5_000 '(' ^ "p" ^ String.make 5_000 ')') with
        | Formula.Atom "p" -> true
        | _ -> false))
  :: List.map QCheck_alcotest.to_alcotest
       [
         QCheck.Test.make ~name:"random strings raise only the documented error"
           ~count:3000
           (QCheck.make ~print:(Printf.sprintf "%S") gen_fuzz_string)
           parses_or_fails_documented;
         QCheck.Test.make
           ~name:"mutated formulas raise only the documented error"
           ~count:3000
           (QCheck.make ~print:(Printf.sprintf "%S") gen_mutated_formula)
           parses_or_fails_documented;
       ]

let () =
  Alcotest.run "logic"
    [
      ("parser", parser_tests);
      ("fuzz", parser_fuzz_tests);
      ("formula", formula_tests);
      ("esat", esat_tests);
      ("tester", tester_tests);
      ("rewrite", rewrite_tests);
      ("tableau", tableau_tests);
      ("product", product_tests);
    ]
