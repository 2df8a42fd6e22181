(* Every temporal equivalence stated in section 4 of the paper, checked
   mechanically with the tableau decision procedure.  Each entry cites
   the paper's context. *)

open Logic

let pq = Finitary.Alphabet.of_props [ "p"; "q" ]
let pqr = Finitary.Alphabet.of_props [ "p"; "q"; "r" ]
let check = Alcotest.(check bool)
let f = Parser.parse

let equiv ?(alpha = pq) a b = Tableau.equiv alpha (f a) (f b)

let paper_equivalences =
  [
    (* derived operator definitions *)
    ("<> as until", "<> p", "true U p");
    ("[] as dual", "[] p", "!(true U !p)");
    ("unless", "p W q", "[] p | (p U q)");
    ("weak since", "p B q", "H p | (p S q)");
    ("once", "O p", "true S p");
    ("first characterizes position 0", "first", "! Y true");
    (* closure of the safety class *)
    ("safety conjunction", "[] p & [] q", "[] (p & q)");
    ("safety disjunction", "[] p | [] q", "[] (H p | H q)");
    (* conditional safety *)
    ("conditional safety", "p -> [] q", "[] (O (p & first) -> q)");
    (* closure of the guarantee class *)
    ("guarantee disjunction", "<> p | <> q", "<> (p | q)");
    ("guarantee conjunction", "<> p & <> q", "<> (O p & O q)");
    ("conditional guarantee", "p -> <> q", "<> (O (first & p) -> q)");
    (* negation swaps the dual classes *)
    ("negated box", "! [] p", "<> !p");
    ("negated diamond", "! <> p", "[] !p");
    (* simple obligation, two forms *)
    ("obligation as implication", "<> r -> <> q", "[] !r | <> q");
    (* response formulas are recurrence-equivalent *)
    ("response", "[] (p -> <> q)", "[]<> ((!p) B q)");
    (* closure of the recurrence class *)
    ("recurrence disjunction", "[]<> p | []<> q", "[]<> (p | q)");
    ("recurrence conjunction (minex)", "[]<> p & []<> q",
     "[]<> (q & Y ((!q) S p))");
    (* recurrence contains the lower classes: note the PAST embeddings *)
    ("safety into recurrence", "[] p", "[]<> (H p)");
    ("guarantee into recurrence", "<> p", "[]<> (O p)");
    (* closure of the persistence class *)
    ("persistence conjunction", "<>[] p & <>[] q", "<>[] (p & q)");
    ("persistence disjunction", "<>[] p | <>[] q",
     "<>[] (q | Y (p S (p & !q)))");
    ("conditional persistence", "[] (p -> <>[] q)", "<>[] (O p -> q)");
    (* persistence contains the lower classes *)
    ("safety into persistence", "[] p", "<>[] (H p)");
    ("guarantee into persistence", "<> p", "<>[] (O p)");
    (* duality recurrence/persistence *)
    ("negated recurrence", "! []<> p", "<>[] !p");
    ("negated persistence", "! <>[] p", "[]<> !p");
    (* simple reactivity, two forms *)
    ("reactivity as implication", "[]<> r -> []<> p", "[]<> p | <>[] !r");
  ]

let equivalence_tests =
  List.map
    (fun (name, a, b) ->
      Alcotest.test_case name `Quick (fun () ->
          check (a ^ " ~ " ^ b) true (equiv ~alpha:pqr a b)))
    paper_equivalences

(* the simple-obligation disjunction law (stated with subscripts in the
   paper) *)
let obligation_tests =
  [
    Alcotest.test_case "obligation disjunction regroups" `Quick (fun () ->
        check "regroup" true
          (Tableau.equiv pqr
             (f "([] p | <> q) | ([] r | <> (q & r))")
             (f "([] p | [] r) | (<> q | <> (q & r))")));
    Alcotest.test_case "exception formula guards its trigger" `Quick
      (fun () ->
        (* <> p -> <> (q & O p): q happens only after p (paper's
           exceptions example); check it is implied by the conjunction of
           its parts and implies <>p -> <>q *)
        check "implies" true
          (Tableau.implies pq (f "<> p -> <> (q & O p)") (f "<> p -> <> q")));
  ]

(* non-equivalences the paper warns about *)
let sanity_tests =
  [
    Alcotest.test_case "future box does not embed safety in recurrence"
      `Quick (fun () ->
        (* [] p is NOT equivalent to []<>[] p with the future box *)
        check "differs" false (equiv "[] p" "[]<> [] p"));
    Alcotest.test_case "response is not a safety or guarantee formula"
      `Quick (fun () ->
        check "not guarantee" false (equiv "[] (p -> <> q)" "<> ((!p) B q)");
        check "not safety" false (equiv "[] (p -> <> q)" "[] ((!p) B q)"));
    Alcotest.test_case "aUb safety closure is aWb" `Quick (fun () ->
        (* section 2's discussion of the SL classification: the safety
           part of p U q is p W q *)
        let alpha = pq in
        let a = Omega.Of_formula.of_string alpha "p U q" in
        let cl = Omega.Lang.safety_closure a in
        let w = Omega.Of_formula.of_string alpha "p W q" in
        check "closure = unless" true (Omega.Lang.equal cl w));
    Alcotest.test_case "strong vs weak until" `Quick (fun () ->
        check "differ" false (equiv "p U q" "p W q");
        check "W is U or box" true (equiv "p W q" "(p U q) | [] p"));
  ]

(* the reactivity normal form theorem, spot-checked: assorted formulas
   are equivalent to their canonical forms *)
let normal_form_tests =
  [
    Alcotest.test_case "canonical forms are equivalent originals" `Quick
      (fun () ->
        List.iter
          (fun s ->
            let form = f s in
            match Rewrite.to_canon form with
            | None -> Alcotest.fail ("no canon for " ^ s)
            | Some c ->
                check s true
                  (Tableau.equiv pqr form (Rewrite.to_formula c)))
          [
            "[] (p -> <> q)";
            "p U q";
            "p W q";
            "<> p -> <> q";
            "[]<> p -> []<> q";
            "p -> [] q";
            "p -> <>[] q";
            "[] (p & X p | !p & X !p)";
            "X X p";
            "[] (X p -> <> q)";
            "!(p U q)";
            "(p U q) & (q U p)";
            "[] ((q & <> r) -> O p)";
            "<> p & <> q & <> r";
            "[] p | <> q | []<> r | <>[] q";
          ]);
  ]

(* Exploration counts of the tableau construction, pinned: the concrete
   state count ([Tableau.size]) and the [tableau.expansions] and
   [tableau.graph_nodes] histograms of one translation.  The GPVW
   expansion order decides the state numbering, and with it every
   witness lasso [hpt witness] prints; a change that reorders the
   exploration fails here before it shows up as a cram diff.  Rows:
   (size, expansions, graph nodes). *)
let translation_counts alpha form =
  let tl = Telemetry.collector () in
  let a = Tableau.translate ~telemetry:tl alpha form in
  let sum name =
    match List.assoc_opt name (Telemetry.report tl).Telemetry.histograms with
    | Some h -> int_of_float h.Telemetry.sum
    | None -> Alcotest.fail ("no histogram " ^ name)
  in
  (Tableau.size a, sum "tableau.expansions", sum "tableau.graph_nodes")

(* the translation [equiv] decides for each paper equivalence: the
   negated biconditional over {p,q,r} *)
let equivalence_counts =
  [
    ("<> as until", (4, 53, 3));
    ("[] as dual", (4, 53, 3));
    ("unless", (7, 176, 6));
    ("weak since", (1, 18, 4));
    ("once", (1, 12, 3));
    ("first characterizes position 0", (1, 12, 3));
    ("safety conjunction", (7, 149, 6));
    ("safety disjunction", (29, 566, 36));
    ("conditional safety", (13, 175, 15));
    ("guarantee disjunction", (7, 149, 6));
    ("guarantee conjunction", (29, 566, 36));
    ("conditional guarantee", (7, 124, 9));
    ("negated box", (4, 53, 3));
    ("negated diamond", (4, 53, 3));
    ("obligation as implication", (11, 242, 10));
    ("response", (48, 705, 31));
    ("recurrence disjunction", (38, 1354, 37));
    ("recurrence conjunction (minex)", (120, 2119, 43));
    ("safety into recurrence", (14, 218, 15));
    ("guarantee into recurrence", (15, 192, 17));
    ("persistence conjunction", (38, 1354, 37));
    ("persistence disjunction", (116, 2119, 43));
    ("conditional persistence", (59, 1537, 45));
    ("safety into persistence", (15, 192, 17));
    ("guarantee into persistence", (14, 218, 15));
    ("negated recurrence", (11, 220, 10));
    ("negated persistence", (11, 220, 10));
    ("reactivity as implication", (45, 1815, 44));
  ]

(* the tableau cases of test_logic.ml, over {p,q} *)
let logic_counts =
  [
    ("p", (3, 4, 2));
    ("p & !p", (1, 3, 0));
    ("[]<> p & <>[] !p", (8, 144, 7));
    ("[]<> p & []<> !p", (7, 173, 6));
    ("!(<> p | [] !p)", (3, 31, 2));
    ("!(<> p)", (2, 8, 1));
    ("p U q", (4, 12, 3));
    ("<>[] (p & !q)", (4, 30, 3));
    ("X X p & [] (p -> X !p)", (10, 68, 9));
    ("O p", (4, 4, 2));
    ("[] (p -> <> (q & O p)) & []<> p", (19, 546, 12));
    ("!([] (first -> (p | !p)))", (3, 16, 1));
  ]

let counts = Alcotest.(triple int int int)

let exploration_tests =
  [
    Alcotest.test_case "paper equivalences" `Quick (fun () ->
        Alcotest.(check int)
          "one pin per equivalence"
          (List.length paper_equivalences)
          (List.length equivalence_counts);
        List.iter
          (fun (name, a, b) ->
            Alcotest.check counts name
              (List.assoc name equivalence_counts)
              (translation_counts pqr (Formula.Not (Formula.Iff (f a, f b)))))
          paper_equivalences);
    Alcotest.test_case "logic tableau cases" `Quick (fun () ->
        List.iter
          (fun (s, expected) ->
            Alcotest.check counts s expected (translation_counts pq (f s)))
          logic_counts);
  ]

let () =
  Alcotest.run "equivalences"
    [
      ("paper", equivalence_tests);
      ("obligation", obligation_tests);
      ("sanity", sanity_tests);
      ("normal-form", normal_form_tests);
      ("exploration", exploration_tests);
    ]
