(* The telemetry layer: the recording semantics of the handle itself
   (span nesting, exception safety, the ambient window), and the
   differential property justifying the memo it counts — the
   successors memo never changes a verdict, and its hit/miss
   accounting adds up to the number of calls. *)

open Omega

let ab = Finitary.Alphabet.of_chars "ab"

(* ------------------------------------------------------------------ *)
(* The handle                                                          *)
(* ------------------------------------------------------------------ *)

let unit_tests =
  [
    Alcotest.test_case "disabled handle is a no-op" `Quick (fun () ->
        let t = Telemetry.disabled in
        Alcotest.(check bool) "not enabled" false (Telemetry.enabled t);
        let x =
          Telemetry.span t "phase" (fun () ->
              Telemetry.incr t "c";
              Telemetry.observe t "h" 3.;
              42)
        in
        Alcotest.(check int) "value through" 42 x;
        let r = Telemetry.report t in
        Alcotest.(check bool) "empty report" true
          (r.Telemetry.spans = []
          && r.Telemetry.counters = []
          && r.Telemetry.histograms = []));
    Alcotest.test_case "spans nest in completion order" `Quick (fun () ->
        let t = Telemetry.collector () in
        Telemetry.span t "outer" (fun () ->
            Telemetry.span t "in1" (fun () -> ());
            Telemetry.span t "in2" (fun () -> ()));
        match (Telemetry.report t).Telemetry.spans with
        | [ { Telemetry.name = "outer"; children = [ c1; c2 ]; elapsed_ns } ] ->
            Alcotest.(check string) "first child" "in1" c1.Telemetry.name;
            Alcotest.(check string) "second child" "in2" c2.Telemetry.name;
            Alcotest.(check bool) "timed" true (elapsed_ns >= 0.)
        | _ -> Alcotest.fail "wrong span forest");
    Alcotest.test_case "a raising span is still recorded" `Quick (fun () ->
        let t = Telemetry.collector () in
        (try Telemetry.span t "boom" (fun () -> failwith "x")
         with Failure _ -> ());
        (match (Telemetry.report t).Telemetry.spans with
        | [ { Telemetry.name = "boom"; _ } ] -> ()
        | _ -> Alcotest.fail "span lost on exception");
        (* the frame stack healed: a later span lands at top level *)
        Telemetry.span t "after" (fun () -> ());
        Alcotest.(check int) "top-level spans" 2
          (List.length (Telemetry.report t).Telemetry.spans));
    Alcotest.test_case "ambient window restores on exception" `Quick (fun () ->
        let t = Telemetry.collector () in
        (try
           Telemetry.with_ambient t (fun () ->
               Telemetry.incr (Telemetry.ambient ()) "inside";
               failwith "x")
         with Failure _ -> ());
        Alcotest.(check bool) "restored to disabled" false
          (Telemetry.enabled (Telemetry.ambient ()));
        Alcotest.(check int) "recorded inside the window" 1
          (Telemetry.counter t "inside"));
    Alcotest.test_case "lint reports its tableau work" `Quick (fun () ->
        (* Lint calls the tableau without a handle; the tableau reports
           to the ambient one the engine boundary installs *)
        let t = Telemetry.collector () in
        (match
           Hierarchy.Engine.lint ~telemetry:t
             [ ("a", "[] (p -> <> q)"); ("b", "<> p") ]
         with
        | Ok _ -> ()
        | Error _ -> Alcotest.fail "lint failed");
        let r = Telemetry.report t in
        Alcotest.(check bool) "tableau.translate span" true
          (List.mem_assoc "tableau.translate" (Telemetry.span_totals r));
        (* the tableau runs nest under the two lint passes that cause
           them, none at the root: the item pass translates each
           requirement and its negation, the matrix only intersects
           those automata *)
        let names spans = List.map (fun s -> s.Telemetry.name) spans in
        Alcotest.(check bool) "no root-level tableau span" false
          (List.exists
             (fun n -> n = "tableau.translate" || n = "tableau.product")
             (names r.Telemetry.spans));
        List.iter
          (fun (pass, holds, lacks) ->
            match
              List.find_opt
                (fun s -> s.Telemetry.name = pass)
                r.Telemetry.spans
            with
            | Some s ->
                let children = names s.Telemetry.children in
                Alcotest.(check bool) (pass ^ " holds " ^ holds) true
                  (List.mem holds children);
                Alcotest.(check bool) (pass ^ " holds no " ^ lacks) false
                  (List.mem lacks children)
            | None -> Alcotest.failf "no root-level %s span" pass)
          [
            ("lint.items", "tableau.translate", "tableau.product");
            ("lint.matrix", "tableau.product", "tableau.translate");
          ];
        let histogram name =
          match List.assoc_opt name r.Telemetry.histograms with
          | Some h -> h
          | None -> Alcotest.failf "no %s histogram" name
        in
        let h = histogram "tableau.expansions" in
        Alcotest.(check bool) "expansions recorded" true
          (h.Telemetry.count > 0 && h.Telemetry.sum > 0.);
        Alcotest.(check int) "two translations per requirement" 4
          (histogram "tableau.states").Telemetry.count;
        let h = histogram "tableau.product_states" in
        Alcotest.(check bool) "product states recorded" true
          (h.Telemetry.count > 0 && h.Telemetry.sum > 0.));
    Alcotest.test_case "counters and histograms read back" `Quick (fun () ->
        let t = Telemetry.collector () in
        Telemetry.incr t "c";
        Telemetry.add t "c" 4;
        List.iter (Telemetry.observe t "h") [ 1.; 2.; 4. ];
        Alcotest.(check int) "counter" 5 (Telemetry.counter t "c");
        match List.assoc_opt "h" (Telemetry.report t).Telemetry.histograms with
        | Some h ->
            Alcotest.(check int) "count" 3 h.Telemetry.count;
            Alcotest.(check (float 1e-9)) "sum" 7. h.Telemetry.sum;
            Alcotest.(check (float 1e-9)) "min" 1. h.Telemetry.min;
            Alcotest.(check (float 1e-9)) "max" 4. h.Telemetry.max;
            Alcotest.(check int) "bucket total" 3
              (List.fold_left (fun acc (_, n) -> acc + n) 0 h.Telemetry.buckets)
        | None -> Alcotest.fail "histogram missing");
    Alcotest.test_case "span_totals aggregates a name across sites" `Quick
      (fun () ->
        let t = Telemetry.collector () in
        Telemetry.span t "a" (fun () -> Telemetry.span t "b" (fun () -> ()));
        Telemetry.span t "b" (fun () -> ());
        let totals = Telemetry.span_totals (Telemetry.report t) in
        Alcotest.(check (list string)) "names" [ "a"; "b" ]
          (List.map fst totals));
    Alcotest.test_case "reset drops all recorded state" `Quick (fun () ->
        let t = Telemetry.collector () in
        Telemetry.span t "a" (fun () -> Telemetry.incr t "c");
        Telemetry.reset t;
        let r = Telemetry.report t in
        Alcotest.(check bool) "empty" true
          (r.Telemetry.spans = [] && r.Telemetry.counters = []));
    Alcotest.test_case "jsonl emits one object per span and counter" `Quick
      (fun () ->
        let lines = ref [] in
        let t = Telemetry.jsonl (fun l -> lines := l :: !lines) in
        Telemetry.span t "a" (fun () -> Telemetry.span t "b" (fun () -> ()));
        Telemetry.incr t "c";
        Telemetry.flush t;
        let lines = List.rev !lines in
        Alcotest.(check int) "records" 3 (List.length lines);
        List.iter
          (fun l ->
            Alcotest.(check bool) "object shape" true
              (String.length l > 1
              && l.[0] = '{'
              && l.[String.length l - 1] = '}'))
          lines);
  ]

(* ------------------------------------------------------------------ *)
(* Random automata (same shape as test_budget's generator)             *)
(* ------------------------------------------------------------------ *)

let gen_automaton =
  let open QCheck.Gen in
  let n = 4 in
  let gen_set =
    map
      (fun mask ->
        Iset.of_list
          (List.filteri
             (fun i _ -> mask land (1 lsl i) <> 0)
             (List.init n Fun.id)))
      (int_bound ((1 lsl n) - 1))
  in
  let gen_acc =
    sized_size (int_bound 4)
    @@ fix (fun self d ->
           if d = 0 then
             oneof
               [
                 map (fun s -> Acceptance.Inf s) gen_set;
                 map (fun s -> Acceptance.Fin s) gen_set;
               ]
           else
             oneof
               [
                 map (fun s -> Acceptance.Inf s) gen_set;
                 map (fun s -> Acceptance.Fin s) gen_set;
                 map2
                   (fun a b -> Acceptance.And [ a; b ])
                   (self (d - 1)) (self (d - 1));
                 map2
                   (fun a b -> Acceptance.Or [ a; b ])
                   (self (d - 1)) (self (d - 1));
               ])
  in
  map2
    (fun rows acc ->
      Automaton.make ~alpha:ab ~n ~start:0
        ~delta:(Array.of_list (List.map Array.of_list rows))
        ~acc)
    (list_repeat n (list_repeat 2 (int_bound (n - 1))))
    gen_acc

let arb_automaton =
  QCheck.make ~print:(fun a -> Format.asprintf "%a" Automaton.pp a) gen_automaton

(* The cold reference for the memo tests: the same automaton rebuilt
   with a copied transition table, so it has an empty successors memo
   and shares no table with the original (so no same-table short cut
   applies between them). *)
let fresh (a : Automaton.t) =
  Automaton.make ~alpha:a.alpha ~n:a.n ~start:a.start
    ~delta:(Array.map Array.copy a.delta)
    ~acc:a.acc

(* Inclusion and equality on the complement-and-product oracle, which
   never takes the same-table short cut, so the cold runs below are
   independent of the antichain engine. *)
let oracle a b = (Scans.included_by_product a b, Scans.equal_by_product a b)

let differential_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~name:"caches never change the classification"
        ~count:300 arb_automaton (fun a ->
          let cold = Classify.classify (fresh a) in
          let cold_row = Classify.memberships (fresh a) in
          let warm = Classify.classify a in
          (* second run hits the now-populated memo *)
          let warm2 = Classify.classify a in
          let warm_row = Classify.memberships a in
          Kappa.equal cold warm && Kappa.equal cold warm2
          && cold_row = warm_row);
      QCheck.Test.make ~name:"caches never change inclusion or equality"
        ~count:300
        (QCheck.pair arb_automaton arb_automaton)
        (fun (a, b) ->
          let cold = oracle (fresh a) (fresh b) in
          (* the oracle answers the same values twice alike, and the
             antichain engine (the last call), which reads the
             successors memos of [a] and [b], agrees with it *)
          let warm1 = oracle a b in
          let warm2 = oracle a b in
          cold = warm1 && warm1 = warm2
          && warm2 = (Lang.included a b, Lang.equal a b));
      QCheck.Test.make
        ~name:"successors memo: identical lists, hits + misses = calls"
        ~count:300
        (QCheck.pair arb_automaton
           (QCheck.small_list (QCheck.int_bound 3)))
        (fun (a, states) ->
          let calls t =
            Telemetry.counter t "automaton.successors.hit"
            + Telemetry.counter t "automaton.successors.miss"
          in
          let cold_t = Telemetry.collector () in
          let cold =
            Telemetry.with_ambient cold_t (fun () ->
                List.map (fun q -> Automaton.successors (fresh a) q) states)
          in
          let warm_t = Telemetry.collector () in
          let warm =
            Telemetry.with_ambient warm_t (fun () ->
                List.map (Automaton.successors a) states)
          in
          cold = warm
          && calls cold_t = List.length states
          && calls warm_t = List.length states
          && Telemetry.counter cold_t "automaton.successors.hit" = 0);
    ]

(* ------------------------------------------------------------------ *)
(* Inclusion on pool workers                                           *)
(* ------------------------------------------------------------------ *)

(* Inclusions run as pool tasks on two domains: each task's
   [inclusion.*] counters merge into the caller's ambient handle, to
   the sums of the sequential run, and the verdicts are the oracle's.
   Each pair also runs reversed, so tasks on both domains read the
   same automata's successors memos. *)
let pool_inclusion_tests =
  let pairs =
    QCheck.Gen.(
      generate ~rand:(Random.State.make [| 29 |]) ~n:40
        (pair gen_automaton gen_automaton))
  in
  let pairs = pairs @ List.map (fun (a, b) -> (b, a)) pairs in
  let expected = List.map (fun (a, b) -> Scans.included_by_product a b) pairs in
  let inclusion_counters t =
    List.filter
      (fun (name, _) -> String.starts_with ~prefix:"inclusion." name)
      (Telemetry.report t).Telemetry.counters
  in
  let run ?pool () =
    let t = Telemetry.collector () in
    let got =
      Telemetry.with_ambient t (fun () ->
          match pool with
          | None -> List.map (fun (a, b) -> Lang.included a b) pairs
          | Some p -> Pool.map p (fun _ (a, b) -> Lang.included a b) pairs)
    in
    (got, inclusion_counters t)
  in
  [
    Alcotest.test_case "worker counters merge to the sequential sums" `Quick
      (fun () ->
        let seq, seq_counters = run () in
        Alcotest.(check (list bool)) "sequential = oracle" expected seq;
        (match List.assoc_opt "inclusion.pairs" seq_counters with
        | Some n when n > 0 -> ()
        | _ -> Alcotest.fail "the sequential run explored no pair");
        Pool.with_pool ~jobs:2 (fun p ->
            let got, counters = run ~pool:p () in
            Alcotest.(check (list bool)) "pooled = oracle" expected got;
            Alcotest.(check (list (pair string int)))
              "inclusion counters" seq_counters counters));
  ]

let () =
  Alcotest.run "telemetry"
    [
      ("handle", unit_tests);
      ("cache differential", differential_tests);
      (* 20 characters, as wide as the group it replaced, so alcotest
         truncates the other test names where it did before *)
      ("pool inclusion merge", pool_inclusion_tests);
    ]
