(* Fair transition systems: model checking and the two proof
   principles. *)

open Fts

let check = Alcotest.(check bool)

let holds sys s =
  match Check.holds_s sys s with Check.Holds -> true | Check.Fails _ -> false

let counterexample sys s =
  match Check.holds_s sys s with
  | Check.Holds -> None
  | Check.Fails tr -> Some tr

let peterson_tests =
  let pet = Models.peterson () in
  [
    Alcotest.test_case "state space" `Quick (fun () ->
        check "has fair computations" true (Check.has_fair_computation pet);
        check "small reachable space" true (System.n_reachable pet <= 16));
    Alcotest.test_case "mutual exclusion (safety)" `Quick (fun () ->
        check "holds" true (holds pet "[] !(pc1=2 & pc2=2)"));
    Alcotest.test_case "accessibility (response)" `Quick (fun () ->
        check "p1" true (holds pet "[] (pc1=1 -> <> pc1=2)");
        check "p2" true (holds pet "[] (pc2=1 -> <> pc2=2)"));
    Alcotest.test_case "precedence (past safety)" `Quick (fun () ->
        check "enter only after trying" true (holds pet "[] (pc1=2 -> O pc1=1)");
        check "flag raised in critical" true (holds pet "[] (pc1=2 -> flag1=1)"));
    Alcotest.test_case "false properties give counterexamples" `Quick
      (fun () ->
        match counterexample pet "[]<> pc1=2" with
        | None -> Alcotest.fail "nobody is forced to enter repeatedly"
        | Some tr -> check "cycle nonempty" true (tr.Check.cycle <> []));
    Alcotest.test_case "counterexample trace is a real computation" `Quick
      (fun () ->
        match counterexample pet "[]<> pc1=2" with
        | None -> Alcotest.fail "expected failure"
        | Some { prefix; cycle } ->
            (* consecutive states differ by a declared transition (or
               idle), which the checker guarantees by construction; here
               we sanity-check state arity *)
            List.iter
              (fun (s, _) ->
                Alcotest.(check int) "arity" 5 (Array.length s))
              (prefix @ cycle));
  ]

let underspec_tests =
  let naive = Models.mutex_do_nothing () in
  [
    Alcotest.test_case "do-nothing satisfies safety" `Quick (fun () ->
        check "mutex" true (holds naive "[] !(pc1=2 & pc2=2)"));
    Alcotest.test_case "do-nothing fails accessibility" `Quick (fun () ->
        check "accessibility" false (holds naive "[] (pc1=1 -> <> pc1=2)"));
  ]

let fairness_tests =
  [
    Alcotest.test_case "weak fairness insufficient for the allocator" `Quick
      (fun () ->
        let weak = Models.allocator ~strong:false () in
        check "starvation possible" false (holds weak "[] (c1=1 -> <> c1=2)"));
    Alcotest.test_case "strong fairness restores accessibility" `Quick
      (fun () ->
        let strong = Models.allocator ~strong:true () in
        check "c1" true (holds strong "[] (c1=1 -> <> c1=2)");
        check "c2" true (holds strong "[] (c2=1 -> <> c2=2)"));
    Alcotest.test_case "taken atoms work" `Quick (fun () ->
        let strong = Models.allocator ~strong:true () in
        check "grants happen after requests" true
          (holds strong "[] (taken_grant1 -> O taken_request1)"));
    Alcotest.test_case "countdown terminates" `Quick (fun () ->
        let cd = Models.countdown ~n:4 () in
        check "total correctness" true (holds cd "<> (done_=1 & x=0)");
        check "partial correctness" true (holds cd "[] (done_=1 -> x=0)");
        check "x never increases past n" true (holds cd "[] !x=5"));
  ]

let philosopher_tests =
  (* the only deadlocked configuration is the circular wait in which
     every philosopher holds exactly their first fork *)
  let deadlock_free = "[] !(pc0=2 & pc1=2 & pc2=2)" in
  [
    Alcotest.test_case "symmetric philosophers deadlock" `Quick (fun () ->
        let sym = Models.philosophers ~lefty:false () in
        match Check.holds_s sym deadlock_free with
        | Check.Holds -> Alcotest.fail "circular wait should be reachable"
        | Check.Fails tr ->
            (* the counterexample ends in the all-hold-first-fork state *)
            let final, _ = List.hd (List.rev tr.Check.cycle) in
            check "everyone holds one fork" true
              (final.(0) = 2 && final.(1) = 2 && final.(2) = 2));
    Alcotest.test_case "one lefty breaks the cycle" `Quick (fun () ->
        let asym = Models.philosophers ~lefty:true () in
        check "deadlock-free" true
          (match Check.holds_s asym deadlock_free with
          | Check.Holds -> true
          | Check.Fails _ -> false));
    Alcotest.test_case "adjacent philosophers never both eat" `Quick
      (fun () ->
        List.iter
          (fun lefty ->
            let sys = Models.philosophers ~lefty () in
            List.iter
              (fun s -> check s true (holds sys s))
              [ "[] !(pc0=3 & pc1=3)"; "[] !(pc1=3 & pc2=3)";
                "[] !(pc2=3 & pc0=3)" ])
          [ false; true ]);
    Alcotest.test_case "eating needs both forks (invariance rule)" `Quick
      (fun () ->
        let sys = Models.philosophers ~lefty:false () in
        (* inductive invariant: fork_i is free iff neither neighbour
           holds it; eating philosophers hold both their forks *)
        let inv s =
          let holders i =
            (* philosophers currently holding fork i *)
            List.filter
              (fun ph ->
                (ph = i && s.(ph) >= 2) || (ph = (i + 2) mod 3 && s.(ph) = 3))
              [ 0; 1; 2 ]
          in
          List.for_all
            (fun i ->
              let h = holders i in
              List.length h <= 1 && (s.(3 + i) = 1) = (h = []))
            [ 0; 1; 2 ]
        in
        check "inductive" true
          (Proof.invariance_valid (Proof.check_invariance sys inv)));
  ]

let proof_tests =
  let pet = Models.peterson () in
  [
    Alcotest.test_case "invariance rule: strengthened invariant" `Quick
      (fun () ->
        let inv s =
          let pc1 = s.(0) and pc2 = s.(1) and f1 = s.(2) and f2 = s.(3)
          and turn = s.(4) in
          (pc1 >= 1) = (f1 = 1)
          && (pc2 >= 1) = (f2 = 1)
          && (not (pc1 = 2 && pc2 = 2))
          && (not (pc1 = 2 && pc2 >= 1) || turn = 1)
          && (not (pc2 = 2 && pc1 >= 1) || turn = 2)
        in
        check "inductive" true
          (Proof.invariance_valid (Proof.check_invariance pet inv)));
    Alcotest.test_case "invariance rule: bare assertion refuted" `Quick
      (fun () ->
        let bare s = not (s.(0) = 2 && s.(1) = 2) in
        let r = Proof.check_invariance pet bare in
        check "not inductive" false (Proof.invariance_valid r);
        check "initial ok" true (r.Proof.initially = Proof.Proved);
        check "preservation refuted" true
          (match r.Proof.preserved with
          | Proof.Refuted _ -> true
          | Proof.Proved -> false));
    Alcotest.test_case "response rule proves termination" `Quick (fun () ->
        let cd = Models.countdown ~n:5 () in
        let r =
          Proof.check_response cd
            ~p:(fun _ -> true)
            ~q:(fun s -> s.(1) = 1)
            ~phi:(fun s -> s.(1) = 0)
            ~rank:(fun s -> s.(0) + 1)
            ~helpful:(fun s -> if s.(0) > 0 then "dec" else "finish")
        in
        check "all premises" true (Proof.response_valid r));
    Alcotest.test_case "response rule refutes a bad ranking" `Quick (fun () ->
        let cd = Models.countdown ~n:5 () in
        let r =
          Proof.check_response cd
            ~p:(fun _ -> true)
            ~q:(fun s -> s.(1) = 1)
            ~phi:(fun s -> s.(1) = 0)
            ~rank:(fun _ -> 7)
            ~helpful:(fun s -> if s.(0) > 0 then "dec" else "finish")
          (* constant rank: the helpful transition cannot decrease it *)
        in
        check "r3 refuted" true
          (match r.Proof.r3 with Proof.Refuted _ -> true | Proof.Proved -> false));
    Alcotest.test_case "full space enumerates the declared ranges" `Quick
      (fun () ->
        let cd = Models.countdown ~n:3 () in
        Alcotest.(check int) "4 * 2 states" 8
          (List.length (Proof.full_space cd)));
  ]

let system_tests =
  [
    Alcotest.test_case "state formula evaluation" `Quick (fun () ->
        let pet = Models.peterson () in
        let s0 = List.hd (Fts.System.reachable_states pet) in
        check "pc1=0 initially" true
          (System.state_formula_holds pet s0 (Logic.Parser.parse "pc1=0"));
        check "en_request1 initially" true
          (System.state_formula_holds pet s0 (Logic.Parser.parse "en_request1"));
        check "en_enter1 not initially" false
          (System.state_formula_holds pet s0 (Logic.Parser.parse "en_enter1")));
    Alcotest.test_case "bad declarations rejected" `Quick (fun () ->
        check "duplicate transition" true
          (try
             ignore
               (System.make
                  ~vars:[ { System.name = "x"; lo = 0; hi = 1 } ]
                  ~init:[ [| 0 |] ]
                  ~transitions:
                    [
                      { System.tname = "t"; guard = (fun _ -> true);
                        action = (fun s -> [ s ]) };
                      { System.tname = "t"; guard = (fun _ -> true);
                        action = (fun s -> [ s ]) };
                    ]
                  ~fairness:[] ());
             false
           with Invalid_argument _ -> true);
        check "fairness names must exist" true
          (try
             ignore
               (System.make
                  ~vars:[ { System.name = "x"; lo = 0; hi = 1 } ]
                  ~init:[ [| 0 |] ]
                  ~transitions:[]
                  ~fairness:[ System.Weak "ghost" ] ());
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "mutated init state array diagnosed by name" `Quick
      (fun () ->
        (* regression: state arrays are index keys, so a caller mutating
           an init array after [make] used to surface as a bare
           [Not_found] deep in the checker *)
        let init = [| 0 |] in
        let sys =
          System.make
            ~vars:[ { System.name = "x"; lo = 0; hi = 1 } ]
            ~init:[ init ]
            ~transitions:
              [
                { System.tname = "t"; guard = (fun _ -> true);
                  action = (fun s -> [ s ]) };
              ]
            ~fairness:[] ()
        in
        Alcotest.(check (list int)) "intact lookup works" [ 0 ]
          (System.internal_init_ids sys);
        init.(0) <- 1;
        match System.internal_init_ids sys with
        | _ -> Alcotest.fail "lookup of a corrupted key should fail"
        | exception Not_found -> Alcotest.fail "bare Not_found escaped"
        | exception Invalid_argument msg ->
            check "message names the state" true
              (String.length msg > 0
              && (* the offending valuation is printed *)
              String.fold_left (fun acc c -> acc || c = '1') false msg));
  ]

(* Random graphs of 1..7 nodes with one or two starts and an
   acceptance tree over node sets.  Every lasso the search returns is
   checked step by step, and it returns none exactly when no node set
   reachable from a start is a cycle satisfying the condition (by
   brute force over all subsets). *)
let lasso_tests =
  let gen =
    let open QCheck.Gen in
    int_range 1 7 >>= fun n ->
    map3
      (fun succ starts acc -> ({ Graph.n; succ = Array.of_list succ }, starts, acc))
      (list_repeat n (list_size (int_bound 3) (int_bound (n - 1))))
      (list_size (int_range 1 2) (int_bound (n - 1)))
      (Emptiness_oracle.gen_acc n 3)
  in
  let print (g, starts, acc) =
    Fmt.str "succ=%a starts=%a acc=%a"
      Fmt.(Dump.array (Dump.list int))
      g.Graph.succ
      Fmt.(Dump.list int)
      starts Acceptance.pp acc
  in
  (* does [c] induce a strongly connected subgraph with an edge? *)
  let is_cycle (g : Graph.t) c =
    let inside v = List.mem v c in
    let reach v =
      let seen = Hashtbl.create 8 in
      let rec go v =
        List.iter
          (fun w ->
            if inside w && not (Hashtbl.mem seen w) then begin
              Hashtbl.add seen w ();
              go w
            end)
          g.succ.(v)
      in
      go v;
      seen
    in
    c <> [] && List.for_all (fun v -> List.for_all (Hashtbl.mem (reach v)) c) c
  in
  let exists_fair_cycle (g : Graph.t) starts acc =
    let reach = Graph_kernel.reachable ~n:g.n ~succ:(fun v -> g.succ.(v)) ~starts in
    List.exists
      (fun mask ->
        let c = List.filter (fun v -> mask land (1 lsl v) <> 0) (List.init g.n Fun.id) in
        List.for_all (fun v -> reach.(v)) c
        && is_cycle g c
        && Acceptance.eval acc (Iset.of_list c))
      (List.init (1 lsl g.n) Fun.id)
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"fair lassos are lassos of the graph" ~count:1000
         (QCheck.make ~print gen) (fun (g, starts, acc) ->
           match Graph.find_accepting_lasso g ~starts acc with
           | None -> not (exists_fair_cycle g starts acc)
           | Some l ->
               Emptiness_oracle.lasso_valid ~succ:(fun v -> g.succ.(v)) ~starts acc l));
  ]

let () =
  Alcotest.run "fts"
    [
      ("peterson", peterson_tests);
      ("underspecification", underspec_tests);
      ("fairness", fairness_tests);
      ("philosophers", philosopher_tests);
      ("proof", proof_tests);
      ("system", system_tests);
      ("lasso", lasso_tests);
    ]
