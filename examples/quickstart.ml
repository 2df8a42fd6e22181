(* Quickstart: a tour of the library's public API.

   Run with: dune exec examples/quickstart.exe *)

let section title = Format.printf "@.== %s ==@." title

let () =
  (* ---------------------------------------------------------------- *)
  section "1. Properties as languages: the four operators (linguistic view)";
  (* The paper builds infinitary properties from finitary ones with the
     operators A, E, R, P.  Finitary properties are regular expressions in
     the paper's own notation. *)
  let ab = Finitary.Alphabet.of_chars "ab" in
  let safety = Omega.Build.a_re ab "a^+ b*" in
  (* A of "a^+ b-star" = a^w + a+ b^w *)
  let guarantee = Omega.Build.e_re ab ".* b a" in
  let recurrence = Omega.Build.r_re ab ".* b" in
  (* infinitely many b *)
  let persistence = Omega.Build.p_re ab ".* b" in
  (* eventually only b *)
  let show name a =
    Format.printf "%-14s: class %s@." name
      (Kappa.name (Omega.Classify.classify a))
  in
  show "A(a^+ b*)" safety;
  show "E(.* b a)" guarantee;
  show "R(.* b)" recurrence;
  show "P(.* b)" persistence;

  (* Membership of ultimately-periodic words is decidable. *)
  let w = Finitary.Word.lasso_of_string ab "aa(ab)" in
  Format.printf "aa(ab)^w in R(.* b)? %b@." (Omega.Automaton.accepts recurrence w);

  (* ---------------------------------------------------------------- *)
  section "2. Temporal logic view: classify formulas";
  let pq = Finitary.Alphabet.of_props [ "p"; "q" ] in
  List.iter
    (fun s ->
      match Hierarchy.Engine.classify_formula pq (Logic.Parser.parse s) with
      | Ok { verdict = Hierarchy.Engine.Exact k; _ } ->
          Format.printf "%-28s: %s (Borel %s)@." s (Kappa.name k)
            (Kappa.borel_name k)
      | Ok _ | Error _ ->
          Format.printf "%-28s: outside the canonical fragment@." s)
    [
      "[] p";
      "<> p";
      "[] p | <> q";
      "[] (p -> <> q)";
      "<>[] p";
      "[]<> p | <>[] q";
      "p U q";
      "p W q";
    ];
  (* The whole report, as `hpt classify` prints it. *)
  (match
     Hierarchy.Engine.classify_formula pq (Logic.Parser.parse "[] (p -> <> q)")
   with
  | Ok r -> Format.printf "@.%a@." Hierarchy.Engine.pp_report r
  | Error e -> Format.printf "@.%a@." Hierarchy.Engine.pp_error e);

  (* ---------------------------------------------------------------- *)
  section "3. The paper's equivalences are machine-checkable";
  let f = Logic.Parser.parse in
  Format.printf "[](p -> <>q) ~ []<>((!p) B q)?  %b@."
    (Logic.Tableau.equiv pq (f "[] (p -> <> q)") (f "[]<>((!p) B q)"));
  Format.printf "[]<>p & []<>q ~ []<>(q & Y((!q) S p))?  %b@."
    (Logic.Tableau.equiv pq
       (f "[]<> p & []<> q")
       (f "[]<>(q & Y((!q) S p))"));

  (* ---------------------------------------------------------------- *)
  section "4. Safety-liveness decomposition (orthogonal classification)";
  let a = Omega.Of_formula.of_string pq "p U q" in
  let s, l = Omega.Lang.safety_liveness_decomposition a in
  Format.printf "p U q = (safety part) /\\ (liveness part): %b@."
    (Omega.Lang.equal a (Omega.Automaton.inter s l));
  Format.printf "safety part is closed: %b; liveness part is dense: %b@."
    (Hierarchy.Topology.is_closed s)
    (Hierarchy.Topology.is_dense l);

  (* ---------------------------------------------------------------- *)
  section "5. Specification linting";
  let verdict =
    Hierarchy.Lint.lint_strings
      [ ("mutual-exclusion", "[] !(c1 & c2)"); ("order", "[] (c2 -> O c1)") ]
  in
  Format.printf "%a@." Hierarchy.Lint.pp_verdict verdict;

  (* ---------------------------------------------------------------- *)
  section "6. And back: automata to formulas need counter-freedom";
  let mod2 = Omega.Build.r_re ab "(a a)^+" in
  Format.printf "R((aa)^+) counter-free? %b (counts modulo 2)@."
    (Omega.Counter_free.is_counter_free mod2)
