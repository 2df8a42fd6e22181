(* The topological view (section 3). *)

open Omega
module T = Hierarchy.Topology

let ab = Finitary.Alphabet.of_chars "ab"
let check = Alcotest.(check bool)
let lasso = Finitary.Word.lasso_of_string ab

let metric_tests =
  [
    Alcotest.test_case "metric axioms on samples" `Quick (fun () ->
        let pts =
          List.map lasso [ "(a)"; "(b)"; "a(b)"; "(ab)"; "ab(a)"; "bb(ab)" ]
        in
        List.iter
          (fun x ->
            check "identity" true (T.distance x x = 0.);
            List.iter
              (fun y ->
                check "symmetry" true (T.distance x y = T.distance y x);
                check "non-negative" true (T.distance x y >= 0.);
                List.iter
                  (fun z ->
                    (* ultrametric triangle inequality *)
                    check "ultrametric" true
                      (T.distance x z <= max (T.distance x y) (T.distance y z)))
                  pts)
              pts)
          pts);
    Alcotest.test_case "paper: mu(a^n b^w, a^2n b^w) = 2^-n" `Quick (fun () ->
        List.iter
          (fun n ->
            let an k =
              Finitary.Word.lasso
                ~prefix:(Array.make k (Finitary.Alphabet.letter_of_name ab "a"))
                ~cycle:[| Finitary.Alphabet.letter_of_name ab "b" |]
            in
            Alcotest.(check (float 1e-12))
              (string_of_int n)
              (2. ** float_of_int (-n))
              (T.distance (an n) (an (2 * n))))
          [ 1; 2; 5; 10 ]);
  ]

let class_correspondence_tests =
  let cases =
    [
      ("safety", Build.a_re ab "a^+ b*", (true, false, true, true));
      ("guarantee", Build.e_re ab ".* b a", (false, true, true, true));
      ("recurrence", Build.r_re ab ".* b", (false, false, true, false));
      ("persistence", Build.p_re ab ".* b", (false, false, false, true));
      ("clopen", Build.a_re ab "a .*", (true, true, true, true));
    ]
  in
  [
    Alcotest.test_case "closed/open/G_delta/F_sigma match the classes" `Quick
      (fun () ->
        List.iter
          (fun (name, a, (cl, op, gd, fs)) ->
            check (name ^ " closed") cl (T.is_closed a);
            check (name ^ " open") op (T.is_open a);
            check (name ^ " G_delta") gd (T.is_g_delta a);
            check (name ^ " F_sigma") fs (T.is_f_sigma a))
          cases);
    Alcotest.test_case "cl is a topological closure operator" `Quick (fun () ->
        let xs = List.map (fun (_, a, _) -> a) cases in
        check "cl(empty) empty" true
          (Lang.is_empty (T.closure (Automaton.empty_lang ab)));
        List.iter
          (fun x ->
            check "extensive" true (Lang.included x (T.closure x));
            check "idempotent" true
              (Lang.equal (T.closure x) (T.closure (T.closure x)));
            List.iter
              (fun y ->
                (* cl(X u Y) = cl X u cl Y *)
                check "additive" true
                  (Lang.equal
                     (T.closure (Automaton.union x y))
                     (Automaton.union (T.closure x) (T.closure y))))
              xs)
          xs);
    Alcotest.test_case "interior dual to closure" `Quick (fun () ->
        List.iter
          (fun (name, a, _) ->
            check name true
              (Lang.equal (T.interior a)
                 (Automaton.complement (T.closure (Automaton.complement a))));
            check (name ^ " interior inside") true
              (Lang.included (T.interior a) a))
          cases);
    Alcotest.test_case "paper: limit of a^k b^w" `Quick (fun () ->
        (* the sequence a^k b^w converges to a^w; a^w is a limit point
           of a^+ b^w, so it lies in the closure but not the set *)
        let abw =
          Automaton.inter (Build.a_re ab "a^+ b*") (Build.e_re ab ".* b")
        in
        check "not in set" false (Automaton.accepts abw (lasso "(a)"));
        check "in closure" true (T.is_limit_of abw (lasso "(a)"));
        check "closure adds exactly a^w" true
          (Lang.equal (T.closure abw)
             (Automaton.union abw (Build.a_re ab "a^*"))));
  ]

let witness_tests =
  [
    Alcotest.test_case "G_delta witnesses for recurrence" `Quick (fun () ->
        let r = Build.r_re ab ".* b" in
        let gs = T.g_delta_witnesses r 5 in
        Alcotest.(check int) "five of them" 5 (List.length gs);
        List.iter
          (fun g ->
            check "open" true (T.is_open g);
            check "contains Pi" true (Lang.included r g))
          gs;
        (* decreasing chain *)
        let rec chain = function
          | g1 :: (g2 :: _ as rest) ->
              check "decreasing" true (Lang.included g2 g1);
              chain rest
          | [ _ ] | [] -> ()
        in
        chain gs;
        (* no finite intersection reaches Pi *)
        let inter =
          List.fold_left Automaton.inter (Automaton.full ab) gs
        in
        check "finite intersection too big" false (Lang.included inter r));
    Alcotest.test_case "F_sigma witnesses for persistence" `Quick (fun () ->
        let p = Build.p_re ab ".* b" in
        let fs = T.f_sigma_witnesses p 4 in
        List.iter
          (fun f ->
            check "closed" true (T.is_closed f);
            check "inside Pi" true (Lang.included f p))
          fs;
        let union =
          List.fold_left Automaton.union (Automaton.empty_lang ab) fs
        in
        check "finite union too small" false (Lang.included p union));
    Alcotest.test_case "witnesses reject non-recurrence input" `Quick
      (fun () ->
        check "raises" true
          (try ignore (T.g_delta_witnesses (Build.p_re ab ".* b") 2); false
           with Convert.Not_in_class _ -> true));
  ]

(* Automata at the lattice's edges: each accepts nothing or
   everything. *)
let edge_automata =
  let make ~start delta acc =
    Automaton.make ~alpha:ab ~n:(Array.length delta) ~start ~delta ~acc
  in
  let one = Iset.singleton in
  [
    ("empty", Automaton.empty_lang ab);
    ("full", Automaton.full ab);
    ("one state, Inf & Fin", make ~start:0 [| [| 0; 0 |] |]
       (Acceptance.And [ Acceptance.Inf (one 0); Acceptance.Fin (one 0) ]));
    ("one state, Inf | Fin", make ~start:0 [| [| 0; 0 |] |]
       (Acceptance.Or [ Acceptance.Inf (one 0); Acceptance.Fin (one 0) ]));
    ("dead start", make ~start:0 [| [| 1; 1 |]; [| 1; 1 |] |]
       (Acceptance.Inf (one 0)));
    ("transient start", make ~start:0 [| [| 1; 1 |]; [| 1; 1 |] |]
       (Acceptance.Inf (one 1)));
    ("empty start, live others",
     make ~start:0 [| [| 0; 0 |]; [| 2; 1 |]; [| 1; 2 |] |]
       (Acceptance.Inf (one 1)));
  ]

(* Every public function of [Classify], [Convert.to_shape], [Topology]
   and [Lang], plus [Counter_free], on [a], an automaton at the
   lattice's edges, and the inclusion queries against the product
   oracle on [a] and each of [others] (over [a]'s alphabet).  An edge
   language is in every class and the calls pass no budget, so no
   exception an interface documents applies: each call must answer. *)
let edge_checks others (a : Automaton.t) =
  let alpha = a.alpha in
  let edge =
    if Lang.is_empty a then Automaton.empty_lang alpha else Automaton.full alpha
  in
  check "an edge" true (Lang.equal a edge);
  (* every public function of Classify answers *)
  check "safety" true (Classify.is_safety a);
  check "guarantee" true (Classify.is_guarantee a);
  check "forest safety/guarantee = closure equality" true
    (Scans.closure_agrees a);
  check "recurrence" true (Classify.is_recurrence a);
  check "persistence" true (Classify.is_persistence a);
  check "obligation" true (Classify.is_obligation a);
  check "degree" true
    (Classify.obligation_degree a
    = Some (if Lang.is_empty a then 0 else 1));
  check "every root childless" true
    (List.for_all
       (fun (t : Classify.acd) -> t.children = [])
       (Classify.decomposition a));
  check "rank" true
    (Classify.reactivity_rank a = if Lang.is_empty a then 1 else 0);
  (* the section 2 bits: the full language is (uniformly) live,
     the empty one is not; neither counts (an unreachable
     counter, as in the last automaton, does not count) *)
  check "liveness" (not (Lang.is_empty a)) (Lang.is_liveness a);
  check "uniform liveness" (not (Lang.is_empty a))
    (Lang.is_uniform_liveness a);
  check "counter-free" true (Counter_free.is_counter_free a);
  check "rank_opt" true
    (Classify.reactivity_rank_opt a
    = Some (Classify.reactivity_rank a));
  check "class" true (Classify.classify a = Kappa.Safety);
  check "row" true
    (List.for_all
       (fun (_, m) -> m = Some true)
       (Classify.memberships a));
  check "budgeted" true
    ((Classify.classify_budgeted a).Classify.verdict
    = `Exact Kappa.Safety);
  (* Prop. 5.1's shape, and every Topology function *)
  check "shape" true
    (Lang.equal a (Convert.to_shape (Classify.classify a) a));
  check "closure" true (Lang.equal a (T.closure a));
  check "interior" true (Lang.equal a (T.interior a));
  check "clopen" true (T.is_closed a && T.is_open a);
  check "G_delta and F_sigma" true (T.is_g_delta a && T.is_f_sigma a);
  check "dense iff full" (not (Lang.is_empty a)) (T.is_dense a);
  check "limit iff full" (not (Lang.is_empty a))
    (T.is_limit_of a
       (Finitary.Word.lasso ~prefix:[| 0 |]
          ~cycle:[| Finitary.Alphabet.size alpha - 1 |]));
  List.iter
    (fun w -> check "G_delta witness" true (Lang.equal a w))
    (T.g_delta_witnesses a 3);
  List.iter
    (fun w -> check "F_sigma witness" true (Lang.equal a w))
    (T.f_sigma_witnesses a 3);
  (* every public function of Lang answers *)
  let nonempty = not (Lang.is_empty a) in
  check "nonempty" nonempty (Lang.nonempty a);
  check "pref" true
    (Finitary.Dfa.equal_nonepsilon (Lang.pref a)
       (if nonempty then Finitary.Dfa.sigma_plus alpha
        else Finitary.Dfa.empty_lang alpha));
  check "witness" nonempty
    (match Lang.witness a with
    | Some w -> Automaton.accepts a w
    | None -> false);
  Array.iteri
    (fun q live ->
      check "live_states" live
        (Lang.nonempty
           (Automaton.make ~alpha ~n:a.n ~start:q ~delta:a.delta
              ~acc:a.acc)))
    (Lang.live_states a);
  check "safety closure" true (Lang.equal (Lang.safety_closure a) a);
  check "liveness extension is full" true
    (Lang.is_universal (Lang.liveness_extension a));
  let s, l = Lang.safety_liveness_decomposition a in
  check "decomposition" true (Lang.equal (Automaton.inter s l) a);
  (* the inclusion queries against the product oracle *)
  check "is_universal = oracle" (Scans.is_universal_by_product a)
    (Lang.is_universal a);
  List.iter
    (fun b ->
      check "included = oracle" (Scans.included_by_product a b)
        (Lang.included a b);
      check "equal = oracle" (Scans.equal_by_product a b)
        (Lang.equal a b);
      match Lang.distinguishing_witness a b with
      | None -> check "no witness iff equal" true (Lang.equal a b)
      | Some w ->
          check "witness in exactly one" true
            (Automaton.accepts a w <> Automaton.accepts b w))
    others

let edge_tests =
  List.map
    (fun (name, a) ->
      Alcotest.test_case name `Quick (fun () ->
          edge_checks (List.map snd edge_automata) a))
    edge_automata

(* The same checks on random edge automata over one to three letters
   ([Edges.gen_base]), each with and without unreachable junk, against
   each other and a third one; and [Lang]'s two-operand queries raise
   only their documented [Invalid_argument] on a fourth over another
   alphabet. *)
let gen_random_edges =
  let open QCheck.Gen in
  let alphabets = List.map Finitary.Alphabet.of_chars [ "a"; "ab"; "abc" ] in
  oneofl alphabets >>= fun alpha ->
  let foreign =
    List.filter (fun x -> not (Finitary.Alphabet.equal x alpha)) alphabets
  in
  Edges.gen_base alpha >>= fun a ->
  Edges.add_junk a >>= fun junked ->
  Edges.gen_edge alpha >>= fun b ->
  oneofl foreign >>= Edges.gen_edge >|= fun c -> (a, junked, b, c)

let random_edge_tests =
  let print (a, j, b, c) =
    String.concat "\n"
      (List.map (Format.asprintf "%a" Automaton.pp) [ a; j; b; c ])
  in
  let mismatch f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"random edge automata, with and without junk"
         ~count:300 (QCheck.make ~print gen_random_edges)
         (fun (a, junked, b, c) ->
           edge_checks [ a; junked; b ] a;
           edge_checks [ a; junked; b ] junked;
           mismatch (fun () -> Lang.included a c)
           && mismatch (fun () -> Lang.equal a c)
           && mismatch (fun () -> Lang.distinguishing_witness a c)));
  ]

let () =
  Alcotest.run "topology"
    [
      ("metric", metric_tests);
      ("classes", class_correspondence_tests);
      ("witnesses", witness_tests);
      ("edges", edge_tests @ random_edge_tests);
    ]
