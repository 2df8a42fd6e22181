(* The assembled hierarchy: Figure 1's membership matrix on canonical
   examples, the engine's report, and the linter. *)

open Omega

let ab = Finitary.Alphabet.of_chars "ab"
let pq = Finitary.Alphabet.of_props [ "p"; "q" ]
let check = Alcotest.(check bool)

(* One canonical property per class (the paper's own examples where they
   exist over a binary alphabet), and its expected membership row in
   Figure 1: safety, guarantee, simple obligation, recurrence,
   persistence, simple reactivity. *)
let figure1 =
  [
    ("A(a^+ b-star)", Build.a_re ab "a^+ b*",
     [ true; false; true; true; true; true ]);
    ("E(.-star b a)", Build.e_re ab ".* b a",
     [ false; true; true; true; true; true ]);
    ("safety u guarantee", Automaton.union (Build.a_re ab "a^*") (Build.e_re ab ".* b b"),
     [ false; false; true; true; true; true ]);
    ("R(.-star b)", Build.r_re ab ".* b",
     [ false; false; false; true; false; true ]);
    ("P(.-star b)", Build.p_re ab ".* b",
     [ false; false; false; false; true; true ]);
    (* over a binary alphabet R(S*b) u P(S*a) is universal (the two
       parts are complementary), so the strict simple-reactivity witness
       uses independent propositions instead *)
    ("[]<>p | <>[]q",
     Of_formula.of_string pq "[]<> p | <>[] q",
     [ false; false; false; false; false; true ]);
  ]

let figure1_tests =
  [
    Alcotest.test_case "membership matrix of Figure 1" `Quick (fun () ->
        List.iter
          (fun (name, a, expected) ->
            let row =
              List.map (fun (_, m) -> m = Some true) (Classify.memberships a)
            in
            Alcotest.(check (list bool)) name expected row)
          figure1);
    Alcotest.test_case "inclusion diagram edges are strict" `Quick (fun () ->
        (* each class has a member outside all lower classes: read off
           the matrix rows above *)
        let names = List.map (fun (n, _, _) -> n) figure1 in
        Alcotest.(check int) "six witnesses" 6
          (List.length (List.sort_uniq compare names)));
    Alcotest.test_case "classify returns the least class" `Quick (fun () ->
        List.iter
          (fun (name, a, _) ->
            let c = Classify.classify a in
            (* c's row entry must be true, and everything strictly below
               must be false *)
            List.iter
              (fun (k, m) ->
                if Kappa.equal k c then
                  check (name ^ " in own class") true (m = Some true)
                else if Kappa.leq k c && not (Kappa.equal k c) then
                  check (name ^ " not below") false (m = Some true))
              (Classify.memberships a))
          figure1);
  ]

(* The engine's report on a formula over p, q, unbudgeted. *)
let report s =
  match Hierarchy.Engine.classify_formula pq (Logic.Parser.parse s) with
  | Ok r -> r
  | Error e -> Alcotest.failf "%s: %a" s Hierarchy.Engine.pp_error e

let exact_class s =
  match (report s).verdict with
  | Hierarchy.Engine.Exact k -> k
  | Hierarchy.Engine.Interval _ -> Alcotest.failf "%s: not exact" s

let report_tests =
  [
    Alcotest.test_case "analyze a response formula" `Quick (fun () ->
        let r = report "[] (p -> <> q)" in
        check "semantic recurrence" true
          (Kappa.equal (exact_class "[] (p -> <> q)") Kappa.Recurrence);
        check "syntactic recurrence" true
          (r.syntactic = Some Kappa.Recurrence);
        check "liveness" true (r.is_liveness = Some true);
        check "counter-free" true (r.counter_free = Some true));
    Alcotest.test_case "syntactic bound can exceed semantic class" `Quick
      (fun () ->
        (* the canonical form's class; the engine's [syntactic] column
           meets it with the structural bound, which is tight here *)
        let k = exact_class "p W q" in
        check "semantically safety" true (Kappa.equal k Kappa.Safety);
        match Logic.Rewrite.classify (Logic.Parser.parse "p W q") with
        | Some syn ->
            check "bound above" true (Kappa.leq k syn);
            check "strictly" false (Kappa.equal k syn)
        | None -> Alcotest.fail "should have a syntactic class");
    Alcotest.test_case "decomposition is the paper's" `Quick (fun () ->
        let a = Of_formula.of_string pq "p U q" in
        let s, l = Lang.safety_liveness_decomposition a in
        check "restores" true (Lang.equal a (Automaton.inter s l));
        check "safety part = p W q" true
          (Lang.equal s (Of_formula.of_string pq "p W q"));
        check "liveness part live" true (Lang.is_liveness l));
  ]

let lint_tests =
  [
    Alcotest.test_case "all-safety specification warned" `Quick (fun () ->
        let v =
          Hierarchy.Lint.lint_strings
            [ ("mutex", "[] !(c1 & c2)"); ("order", "[] (c2 -> O c1)") ]
        in
        check "W102 issued" true
          (List.exists
             (fun d -> d.Hierarchy.Lint.code = Hierarchy.Lint.W102)
             v.diagnostics);
        check "items classified safety" true
          (List.for_all
             (fun it -> it.Hierarchy.Lint.klass = Some Kappa.Safety)
             v.items);
        check "conjunction safety" true
          (v.conjunction_class = Some Kappa.Safety));
    Alcotest.test_case "adding accessibility silences the warning" `Quick
      (fun () ->
        let v =
          Hierarchy.Lint.lint_strings
            [
              ("mutex", "[] !(c1 & c2)");
              ("accessibility", "[] (t1 -> <> c1)");
            ]
        in
        check "no diagnostics" true (v.diagnostics = []);
        check "conjunction recurrence" true
          (v.conjunction_class = Some Kappa.Recurrence));
    Alcotest.test_case "vacuous and inconsistent requirements flagged" `Quick
      (fun () ->
        let v =
          Hierarchy.Lint.lint_strings
            [
              ("inconsistent", "[] c1 & <> !c1");
              ("vacuous", "[] c1 | <> !c1");
              ("fine", "[] (c1 -> <> c2)");
            ]
        in
        let has c =
          List.exists (fun d -> d.Hierarchy.Lint.code = c) v.diagnostics
        in
        check "E001 on the unsatisfiable requirement" true
          (has Hierarchy.Lint.E001);
        check "W101 on the valid requirement" true (has Hierarchy.Lint.W101));
    Alcotest.test_case "atom-free and huge specs lint without raising" `Quick
      (fun () ->
        (* satellite: [] true used to crash the whole lint with
           invalid_arg "no atoms in specification" *)
        let v = Hierarchy.Lint.lint_strings [ ("trivial", "[] true") ] in
        check "valid flagged" true
          (List.exists
             (fun d -> d.Hierarchy.Lint.code = Hierarchy.Lint.W101)
             v.diagnostics);
        (* satellite: > 14 atoms used to crash; now degrades to the
           syntactic pass with W104 *)
        let big =
          List.init 16 (fun i ->
              (Printf.sprintf "r%d" i, Printf.sprintf "[] (a%d -> <> b%d)" i i))
        in
        let v = Hierarchy.Lint.lint_strings big in
        check "semantic pass skipped" false v.semantic;
        check "W104 issued" true
          (List.exists
             (fun d -> d.Hierarchy.Lint.code = Hierarchy.Lint.W104)
             v.diagnostics);
        check "syntactic intervals still bound every item" true
          (List.for_all
             (fun it ->
               it.Hierarchy.Lint.interval.Kappa.upper
               = Some Kappa.Recurrence)
             v.items));
    Alcotest.test_case "redundancy, conflict and downgrade diagnostics" `Quick
      (fun () ->
        let v =
          Hierarchy.Lint.lint_strings
            [
              ("strong", "[] (p & q)");
              ("weak", "[] p");
              ("clash", "<> !p");
            ]
        in
        let codes =
          List.map (fun d -> d.Hierarchy.Lint.code) v.diagnostics
        in
        check "weak is subsumed (W105)" true
          (List.mem Hierarchy.Lint.W105 codes);
        check "strong vs clash conflict (E002)" true
          (List.mem Hierarchy.Lint.E002 codes);
        (* p W q over atoms is written as an obligation but denotes a
           safety property: the class-downgrade hint *)
        let v = Hierarchy.Lint.lint_strings [ ("wait", "p W q") ] in
        check "H201 issued" true
          (List.exists
             (fun d -> d.Hierarchy.Lint.code = Hierarchy.Lint.H201)
             v.diagnostics));
  ]

(* The responsiveness ladder of section 4, end to end. *)
let ladder_tests =
  [
    Alcotest.test_case "five kinds of responsiveness, five classes" `Quick
      (fun () ->
        List.iter
          (fun (s, expected) ->
            check s true (Kappa.equal (exact_class s) expected))
          [
            ("p -> <> q", Kappa.Guarantee);
            ("<> p -> <> (q & O p)", Kappa.Obligation 1);
            ("[] (p -> <> q)", Kappa.Recurrence);
            ("p -> <>[] q", Kappa.Persistence);
            ("[]<> p -> []<> q", Kappa.Reactivity 1);
          ]);
  ]

let () =
  Alcotest.run "hierarchy"
    [
      ("figure1", figure1_tests);
      ("report", report_tests);
      ("lint", lint_tests);
      ("ladder", ladder_tests);
    ]
