(* Wall-clock deadlines are sound, not just graceful: a classification
   run under an arbitrarily tight --timeout-ms must return either the
   exact verdict, a sound interval enclosing it, or a structured
   Budget_exceeded — never a wrong exact verdict and never an uncaught
   exception.  Same contract for the antichain inclusion engine, whose
   deadline poll rides the per-pair tick. *)

open Omega
module Engine = Hierarchy.Engine

let check = Alcotest.(check bool)
let pq = Finitary.Alphabet.of_props [ "p"; "q" ]

let corpus =
  [
    "[] p"; "<> p"; "[] p & <> q"; "[] p | <> q"; "[]<> p"; "<>[] p";
    "[]<> p | <>[] q"; "[] (p -> <> q)"; "p U q";
    "([] <> p -> [] <> q) & ([] <> q -> [] <> p)";
  ]

(* the unbudgeted verdicts, one per corpus formula — all exact *)
let reference =
  lazy
    (List.map
       (fun f ->
         match Engine.classify f with
         | Ok { Engine.verdict = Engine.Exact k; _ } -> (f, k)
         | Ok _ -> Alcotest.failf "reference verdict for %s not exact" f
         | Error e ->
             Alcotest.failf "reference classify failed: %a" Engine.pp_error e)
       corpus)

let encloses k : Engine.verdict -> bool = function
  | Engine.Exact k' -> Kappa.equal k k'
  | Engine.Interval { lower; upper } ->
      (match lower with Some l -> Kappa.leq l k | None -> true)
      && (match upper with Some u -> Kappa.leq k u | None -> true)

(* one tightly-budgeted classification, checked against the reference *)
let run_tight ~timeout_ms (f, k) =
  let budget = Budget.make ~timeout_ms () in
  match Engine.classify ~budget f with
  | Ok r ->
      if not (encloses k r.Engine.verdict) then
        Alcotest.failf "%s under %gms: verdict excludes the true class %s" f
          timeout_ms (Kappa.name k)
  | Error (Engine.Budget_exceeded _) -> ()
  | Error e ->
      Alcotest.failf "%s under %gms: unexpected error %a" f timeout_ms
        Engine.pp_error e
  | exception e ->
      Alcotest.failf "%s under %gms: escaped exception %s" f timeout_ms
        (Printexc.to_string e)

let classify_tests =
  [
    Alcotest.test_case "tight deadlines: sound verdict or Budget_exceeded"
      `Quick (fun () ->
        List.iter
          (fun timeout_ms ->
            List.iter (run_tight ~timeout_ms) (Lazy.force reference))
          [ 0.01; 0.05; 0.3; 2.0 ]);
    Alcotest.test_case "deadline trip is sticky across a batch" `Quick
      (fun () ->
        (* a shared budget that trips mid-batch leaves the later inputs
           degraded-or-errored, never wrong *)
        let budget = Budget.make ~timeout_ms:0.05 () in
        let results = Engine.classify_batch ~budget corpus in
        List.iter2
          (fun (f, k) -> function
            | Ok (r : Engine.report) ->
                check (f ^ " sound") true (encloses k r.Engine.verdict)
            | Error (Engine.Budget_exceeded _) -> ()
            | Error e ->
                Alcotest.failf "%s: unexpected error %a" f Engine.pp_error e)
          (Lazy.force reference) results);
    Alcotest.test_case "uniform liveness answers exactly under a deadline"
      `Quick (fun () ->
        (* three modal shapes: the m-fold acceptance conjunction of the
           uniform-liveness check has a DNF too wide to expand, so this
           bit must be decided without one *)
        let budget = Budget.make ~timeout_ms:1000. () in
        match
          Engine.classify ~budget ~props:"p,q,r" "<> q | <>[] Y r | <> p"
        with
        | Ok r ->
            check "exact verdict" true
              (match r.Engine.verdict with
              | Engine.Exact _ -> true
              | Engine.Interval _ -> false);
            check "nothing exhausted" true (r.Engine.exhausted = None);
            check "uniformly live" true
              (r.Engine.is_uniform_liveness = Some true)
        | Error e -> Alcotest.failf "unexpected error %a" Engine.pp_error e);
    Alcotest.test_case "a 20k-state sweep classifies exactly within 3 s"
      `Quick (fun () ->
        (* one SCC of 20k states (+1 on 'a', a self-loop on 'b'): the
           recurrence column scans its 20k self-loop singletons one at
           a time, so a scan that costs the whole graph per singleton
           misses the deadline *)
        let n = 20_000 in
        let a =
          Automaton.make ~alpha:(Finitary.Alphabet.of_chars "ab") ~n ~start:0
            ~delta:(Array.init n (fun q -> [| (q + 1) mod n; q |]))
            ~acc:(Acceptance.Inf (Iset.singleton 0))
        in
        let budget = Budget.make ~timeout_ms:3000. () in
        match (Classify.classify_budgeted ~budget a).Classify.verdict with
        | `Exact k -> check "recurrence" true (Kappa.equal k Kappa.Recurrence)
        | `Interval _ -> Alcotest.fail "the sweep missed the 3 s deadline");
  ]

let deadline_qcheck =
  QCheck.Test.make ~count:60
    ~name:"random tight deadline never yields a wrong exact verdict"
    QCheck.(
      pair (int_bound (List.length corpus - 1)) (int_range 1 200))
    (fun (i, hundredths) ->
      let fk = List.nth (Lazy.force reference) i in
      run_tight ~timeout_ms:(float_of_int hundredths /. 100.) fk;
      true)

(* ------------------------------------------------------------------ *)
(* Antichain inclusion under a deadline                                *)
(* ------------------------------------------------------------------ *)

let automata = lazy (List.map (Of_formula.of_string pq) corpus)

let inclusion_tests =
  [
    Alcotest.test_case
      "included under a deadline: right answer or Tripped Deadline" `Quick
      (fun () ->
        let autos = Lazy.force automata in
        List.iteri
          (fun i a ->
            List.iteri
              (fun j b ->
                let expected = Inclusion.included a b in
                let budget =
                  Budget.make ~timeout_ms:(0.01 +. (0.01 *. float_of_int (i + j))) ()
                in
                match Inclusion.included ~budget a b with
                | v ->
                    check
                      (Printf.sprintf "inclusion %d<=%d exact under deadline" i j)
                      true (v = expected)
                | exception Budget.Tripped { reason = Budget.Deadline; _ } ->
                    ()
                | exception e ->
                    Alcotest.failf "inclusion %d<=%d: escaped %s" i j
                      (Printexc.to_string e))
              autos)
          autos);
  ]

(* ------------------------------------------------------------------ *)
(* Model-aware analysis under a deadline                               *)
(* ------------------------------------------------------------------ *)

(* The safety closure of a counter's computations has subsets that grow
   as intervals sharing long prefixes; interning them must not degrade
   to list comparisons within one hash bucket, or the vacuity checks
   miss any reasonable deadline. *)
let analyze_tests =
  [
    Alcotest.test_case "vacuity checks finish on a 1501-state counter"
      `Quick (fun () ->
        let model =
          fst
            (Fts.Parse.parse
               (String.concat "\n"
                  [
                    "var x 0..1500";
                    "init x=0";
                    "trans inc:   !(x=1500) -> x:=x+1";
                    "trans reset: x=1500    -> x:=0";
                    "fair weak inc";
                  ]))
        in
        let budget = Budget.make ~timeout_ms:3000. () in
        match
          Engine.analyze ~budget ~model
            [ ("progress", "[] (x=0 -> <> x=1500)", None) ]
        with
        | Ok { Hierarchy.Lint.model = Some m; _ } ->
            List.iter
              (fun code ->
                check
                  (Fts.Analyze.code_name code ^ " checked")
                  true
                  (List.assoc code m.Hierarchy.Lint.model_checks
                  = Fts.Analyze.Checked))
              [ Fts.Analyze.M310; M311 ]
        | Ok _ -> Alcotest.fail "no model block"
        | Error e -> Alcotest.failf "unexpected error %a" Engine.pp_error e);
    (* a condition with one [Fin \/ Inf] conjunct per strong-fairness
       requirement has a DNF of 2^22 conjuncts here *)
    Alcotest.test_case "22 strong-fairness requirements inside 1000ms"
      `Quick (fun () ->
        let model =
          fst
            (Fts.Parse.parse
               (String.concat "\n"
                  ([ "var x 0..1"; "init x=0" ]
                  @ List.concat
                      (List.init 22 (fun i ->
                           [
                             Printf.sprintf "trans t%d: x=0 -> x:=1" i;
                             Printf.sprintf "trans u%d: x=1 -> x:=0" i;
                             Printf.sprintf "fair strong t%d" i;
                           ])))))
        in
        let budget = Budget.make ~timeout_ms:1000. () in
        match
          Engine.analyze ~budget ~model
            [ ("progress", "[] (x=0 -> <> x=1)", None) ]
        with
        | Ok { Hierarchy.Lint.model = Some m; _ } ->
            List.iter
              (fun code ->
                check
                  (Fts.Analyze.code_name code ^ " checked")
                  true
                  (List.assoc code m.Hierarchy.Lint.model_checks
                  = Fts.Analyze.Checked))
              [ Fts.Analyze.M310; M311 ]
        | Ok _ -> Alcotest.fail "no model block"
        | Error e -> Alcotest.failf "unexpected error %a" Engine.pp_error e);
  ]

let () =
  Alcotest.run "deadline"
    [
      ("classification", classify_tests);
      ( "classification-random",
        [ QCheck_alcotest.to_alcotest deadline_qcheck ] );
      ("inclusion", inclusion_tests);
      ("analyze", analyze_tests);
    ]
