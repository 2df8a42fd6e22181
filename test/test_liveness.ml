(* The safety-liveness classification (section 2) and its orthogonality
   with the Borel hierarchy. *)

open Omega

let ab = Finitary.Alphabet.of_chars "ab"
let check = Alcotest.(check bool)

let examples =
  [
    ("A(a^+ b-star)", Build.a_re ab "a^+ b*");
    ("E(.-star b a)", Build.e_re ab ".* b a");
    ("R(.-star b)", Build.r_re ab ".* b");
    ("P(.-star b)", Build.p_re ab ".* b");
    ("obligation", Automaton.union (Build.a_re ab "a^*") (Build.e_re ab ".* b b"));
    ("reactivity", Automaton.union (Build.r_re ab ".* b") (Build.p_re ab ".* a"));
    ("aUb", Automaton.inter (Build.a_re ab "a^* + a^* b") (Build.e_re ab "a^* b"));
  ]

let liveness_tests =
  [
    Alcotest.test_case "liveness = dense = full prefix set" `Quick (fun () ->
        List.iter
          (fun (name, a) ->
            let by_pref =
              Finitary.Dfa.is_empty_nonepsilon
                (Finitary.Dfa.diff (Finitary.Dfa.sigma_plus ab) (Lang.pref a))
            in
            check name by_pref (Lang.is_liveness a))
          examples);
    Alcotest.test_case "liveness examples" `Quick (fun () ->
        check "R is live" true (Lang.is_liveness (Build.r_re ab ".* b"));
        check "P is live" true (Lang.is_liveness (Build.p_re ab ".* b"));
        check "guarantee with dead prefixes is not live" false
          (Lang.is_liveness (Build.e_re ab "a .*"));
        check "safety is not (unless universal)" false
          (Lang.is_liveness (Build.a_re ab "a^+ b*"));
        check "universal is both safety and liveness" true
          (Lang.is_liveness (Automaton.full ab)));
    Alcotest.test_case "decomposition theorem on every example" `Quick
      (fun () ->
        List.iter
          (fun (name, a) ->
            let s, l = Lang.safety_liveness_decomposition a in
            check (name ^ ": safety part is safety") true (Classify.is_safety s);
            check (name ^ ": liveness part is live") true (Lang.is_liveness l);
            check (name ^ ": intersection restores") true
              (Lang.equal a (Automaton.inter s l)))
          examples);
    Alcotest.test_case "liveness extension preserves the class (live-kappa)"
      `Quick (fun () ->
        (* if Pi is kappa, L(Pi) is a live kappa-property *)
        List.iter
          (fun (name, a) ->
            let k = Classify.classify a in
            let l = Lang.liveness_extension a in
            let kl = Classify.classify l in
            check (name ^ ": class preserved or lower") true
              (Kappa.leq kl k || Kappa.equal kl k))
          [
            ("recurrence", Build.r_re ab ".* b");
            ("persistence", Build.p_re ab ".* b");
            ("guarantee", Build.e_re ab ".* b a");
          ]);
    Alcotest.test_case "safety and liveness disjoint except trivial" `Quick
      (fun () ->
        List.iter
          (fun (name, a) ->
            if Classify.is_safety a && Lang.is_liveness a then
              check (name ^ " must be universal") true (Lang.is_universal a))
          ((" full", Automaton.full ab) :: examples));
  ]

let uniform_tests =
  [
    Alcotest.test_case "E-properties of live kind are uniformly live" `Quick
      (fun () ->
        check "eventually b" true
          (Lang.is_uniform_liveness (Build.e_re ab ".* b")));
    Alcotest.test_case "liveness but not uniform liveness" `Quick (fun () ->
        (* first letter a -> eventually only a; first letter b ->
           infinitely many b: live (extend according to the first
           letter), but no single extension works for both *)
        let first_a = Build.a_re ab "a .*" in
        let first_b = Build.a_re ab "b .*" in
        let x =
          Automaton.union
            (Automaton.inter first_a (Build.p_re ab ".* a"))
            (Automaton.inter first_b (Build.r_re ab ".* b"))
        in
        check "liveness" true (Lang.is_liveness x);
        check "not uniform" false (Lang.is_uniform_liveness x));
    Alcotest.test_case "paper's uniformity counterexample is uniform (erratum)"
      `Quick (fun () ->
        (* a S* aa S^w + b S* bb S^w: the paper claims no uniform
           extension exists, but (aabb)^w extends every finite word;
           see EXPERIMENTS.md *)
        let x =
          Automaton.union
            (Build.e_re ab "a .* a a")
            (Build.e_re ab "b .* b b")
        in
        check "liveness" true (Lang.is_liveness x);
        check "uniformly live" true (Lang.is_uniform_liveness x));
  ]

(* The vector states of the uniform-liveness product: the automaton
   run from every state reachable in >= 1 step at once, all of them
   reachable from that start vector. *)
let vector_states (a : Automaton.t) =
  let reach = Automaton.reachable a in
  let start =
    List.sort_uniq compare
      (List.concat_map
         (fun q -> if reach.(q) then Array.to_list a.delta.(q) else [])
         (List.init a.n Fun.id))
  in
  let seen = Hashtbl.create 64 in
  let rec visit v =
    if not (Hashtbl.mem seen v) then begin
      Hashtbl.add seen v ();
      for l = 0 to Finitary.Alphabet.size a.alpha - 1 do
        visit (List.map (fun q -> a.delta.(q).(l)) v)
      done
    end
  in
  visit start;
  Hashtbl.length seen

let stops_early_test =
  Alcotest.test_case "a uniformly live search stops before the last vector"
    `Quick (fun () ->
      (* the search stops at the first accepting cycle, so it spends
         fewer ticks than there are vector states *)
      List.iter
        (fun (name, a) ->
          let budget = Budget.make ~fuel:1_000_000 () in
          check (name ^ ": uniformly live") true
            (Lang.is_uniform_liveness ~budget a);
          let spent = Budget.spent budget and n = vector_states a in
          if spent >= n then
            Alcotest.failf "%s: %d ticks for %d vector states" name spent n)
        [
          ("E(.* a b)", Build.e_re ab ".* a b");
          ("E(.* a a b b)", Build.e_re ab ".* a a b b");
          ("R(.* a a b b)", Build.r_re ab ".* a a b b");
          ( "E(a .* a a) + E(b .* b b)",
            Automaton.union (Build.e_re ab "a .* a a") (Build.e_re ab "b .* b b")
          );
        ])

(* Liveness read off the bottom roots of the cycle decomposition
   against backward reachability from the accepting cycles, and the
   implication [Engine] relies on to skip the uniform-liveness search
   on a property that is not live. *)
let random_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"forest liveness = backward-reachability liveness"
         ~count:2000 Samples.arb_wide_automaton (fun a ->
           Lang.is_liveness a = Scans.is_liveness a));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"uniform liveness implies liveness"
         ~count:2000 Samples.arb_wide_automaton (fun a ->
           (* the vector search is exponential in the states; the 3 in
              100 cases it cannot decide in 20,000 ticks pass *)
           match
             Lang.is_uniform_liveness ~budget:(Budget.make ~fuel:20_000 ()) a
           with
           | uniform -> (not uniform) || Scans.is_liveness a
           | exception Budget.Tripped _ -> true));
  ]

let () =
  Alcotest.run "liveness"
    [
      ("safety-liveness", liveness_tests);
      ("uniform", uniform_tests @ [ stops_early_test ]);
      ("random", random_tests);
    ]
