(* The domain pool's determinism contract: [Pool.map] and the batch
   entry points built on it return bit-identical results at jobs = 1, 2
   and 4 — including under injected budget trips and with telemetry
   enabled — plus unit tests for the pool mechanics themselves
   (ordering, exception propagation, reuse after a failed task,
   nesting, concurrent submitters). *)

open Omega

let ab = Finitary.Alphabet.of_chars "ab"
let check = Alcotest.(check bool)
let job_counts = [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Pool mechanics                                                      *)
(* ------------------------------------------------------------------ *)

exception Boom of int

let unit_tests =
  [
    Alcotest.test_case "map preserves input order" `Quick (fun () ->
        let items = List.init 100 Fun.id in
        List.iter
          (fun jobs ->
            Pool.with_pool ~jobs (fun p ->
                let got = Pool.map p (fun ctx x -> (ctx.Pool.index, x * x)) items in
                Alcotest.(check (list (pair int int)))
                  (Printf.sprintf "jobs=%d" jobs)
                  (List.map (fun x -> (x, x * x)) items)
                  got))
          job_counts);
    Alcotest.test_case "jobs=1 runs sequentially in index order" `Quick
      (fun () ->
        Pool.with_pool ~jobs:1 (fun p ->
            let order = ref [] in
            let _ =
              Pool.map p
                (fun ctx () -> order := ctx.Pool.index :: !order)
                (List.init 10 (fun _ -> ()))
            in
            Alcotest.(check (list int))
              "execution order" (List.init 10 Fun.id) (List.rev !order)));
    Alcotest.test_case "earliest-index exception wins" `Quick (fun () ->
        List.iter
          (fun jobs ->
            Pool.with_pool ~jobs (fun p ->
                match
                  Pool.map p
                    (fun ctx () ->
                      (* several tasks raise; only the lowest index may
                         surface, whatever the interleaving *)
                      if ctx.Pool.index >= 3 then raise (Boom ctx.Pool.index))
                    (List.init 16 (fun _ -> ()))
                with
                | _ -> Alcotest.fail "expected an exception"
                | exception Boom i ->
                    Alcotest.(check int)
                      (Printf.sprintf "jobs=%d stop index" jobs)
                      3 i))
          job_counts);
    Alcotest.test_case "pool survives a raising task" `Quick (fun () ->
        List.iter
          (fun jobs ->
            Pool.with_pool ~jobs (fun p ->
                (match Pool.map p (fun _ () -> raise (Boom 0)) [ (); () ] with
                | _ -> Alcotest.fail "expected Boom"
                | exception Boom _ -> ());
                (* the workers must still be alive and draining *)
                let got = Pool.map p (fun _ x -> x + 1) (List.init 50 Fun.id) in
                Alcotest.(check (list int))
                  (Printf.sprintf "jobs=%d reuse" jobs)
                  (List.init 50 (fun i -> i + 1))
                  got))
          job_counts);
    Alcotest.test_case "nested run does not deadlock" `Quick (fun () ->
        List.iter
          (fun jobs ->
            Pool.with_pool ~jobs (fun p ->
                let got =
                  Pool.map p
                    (fun _ row ->
                      List.fold_left ( + ) 0
                        (Pool.map p (fun _ x -> row * x) (List.init 8 Fun.id)))
                    (List.init 8 Fun.id)
                in
                Alcotest.(check (list int))
                  (Printf.sprintf "jobs=%d nested" jobs)
                  (List.init 8 (fun row -> row * 28))
                  got))
          job_counts);
    Alcotest.test_case "a nested map runs inline on the task's domain" `Quick
      (fun () ->
        List.iter
          (fun jobs ->
            Pool.with_pool ~jobs (fun p ->
                (* checked on the submitter: Alcotest is not domain-safe *)
                let got =
                  Pool.map p
                    (fun _ row ->
                      ( Domain.self (),
                        Pool.map p
                          (fun _ x -> (Domain.self (), row * x))
                          (List.init 8 Fun.id) ))
                    (List.init 8 Fun.id)
                in
                check
                  (Printf.sprintf "jobs=%d inner tasks on the outer's domain"
                     jobs)
                  true
                  (List.for_all
                     (fun (d, inner) -> List.for_all (fun (d', _) -> d' = d) inner)
                     got);
                Alcotest.(check (list (list int)))
                  (Printf.sprintf "jobs=%d nested" jobs)
                  (List.init 8 (fun row -> List.init 8 (fun x -> row * x)))
                  (List.map (fun (_, inner) -> List.map snd inner) got)))
          job_counts);
    Alcotest.test_case "two domains map on one shared pool at once" `Quick
      (fun () ->
        (* several submitters, one pool: each batch must get exactly
           its own results, in its own order *)
        List.iter
          (fun jobs ->
            Pool.with_pool ~jobs (fun p ->
                let submit k () =
                  List.for_all
                    (fun round ->
                      let items = List.init (20 + round) (fun i -> (k * 1000) + i) in
                      Pool.map p (fun ctx x -> (ctx.Pool.index, x * 3)) items
                      = List.mapi (fun i x -> (i, x * 3)) items)
                    (List.init 40 Fun.id)
                in
                let other = Domain.spawn (submit 1) in
                let mine = submit 2 () in
                let theirs = Domain.join other in
                check (Printf.sprintf "jobs=%d submitter 1" jobs) true theirs;
                check (Printf.sprintf "jobs=%d submitter 2" jobs) true mine))
          job_counts);
    Alcotest.test_case "map stops at the earliest trip, by index" `Quick
      (fun () ->
        List.iter
          (fun jobs ->
            Pool.with_pool ~jobs (fun p ->
                let t = Telemetry.collector () in
                (match
                   Pool.map ~budget:(Budget.inject_trip_at 5) ~telemetry:t p
                     (fun ctx x ->
                       (* replica budgets of an injected parent trip at
                          the same tick, so indexes 0-1 finish and 2 is
                          the stop index at every job count *)
                       Telemetry.incr ctx.Pool.telemetry
                         (Printf.sprintf "task.%d" x);
                       if x >= 2 then Budget.ticks ctx.Pool.budget 100;
                       x)
                     (List.init 6 Fun.id)
                 with
                | _ -> Alcotest.fail "expected a trip"
                | exception Budget.Tripped { Budget.reason; _ } ->
                    check (Printf.sprintf "jobs=%d injected" jobs) true
                      (reason = Budget.Injected));
                (* only the prefix up to the stop index is merged *)
                Alcotest.(check (list (pair string int)))
                  (Printf.sprintf "jobs=%d merged prefix" jobs)
                  [ ("task.0", 1); ("task.1", 1); ("task.2", 1) ]
                  (List.sort compare (Telemetry.report t).Telemetry.counters)))
          job_counts);
    Alcotest.test_case "replica fuel is charged back to the parent" `Quick
      (fun () ->
        Pool.with_pool ~jobs:2 (fun p ->
            let b = Budget.make ~fuel:1000 () in
            let _ =
              Pool.map ~budget:b p
                (fun ctx () -> Budget.ticks ctx.Pool.budget 10)
                (List.init 4 (fun _ -> ()))
            in
            check "parent charged" true (Budget.spent b >= 40)));
    Alcotest.test_case "Budget.split conserves fuel exactly" `Quick (fun () ->
        (* A replica with allowance [a] trips on its [a]-th tick with
           [spent = a], so ticking each replica dry measures its share.
           The shares must sum to the parent's fuel — no remainder tick
           lost or duplicated — and match the documented
           [q + (1 if index < r)] distribution. *)
        let allowance parent ~among ~index =
          let r = Budget.split parent ~among ~index () in
          try
            while true do
              Budget.tick r
            done;
            assert false
          with Budget.Tripped { Budget.reason = Budget.Fuel; spent } -> spent
        in
        List.iter
          (fun (fuel, among) ->
            let parent = Budget.make ~fuel () in
            let q = fuel / among and r = fuel mod among in
            let shares =
              List.init among (fun index ->
                  let a = allowance parent ~among ~index in
                  Alcotest.(check int)
                    (Printf.sprintf "fuel=%d among=%d index=%d" fuel among
                       index)
                    (q + if index < r then 1 else 0)
                    a;
                  a)
            in
            Alcotest.(check int)
              (Printf.sprintf "fuel=%d among=%d total" fuel among)
              fuel
              (List.fold_left ( + ) 0 shares))
          [ (1, 1); (5, 2); (7, 3); (13, 5); (64, 4); (1000, 7) ]);
    Alcotest.test_case "tiny batches run inline on the submitting domain"
      `Quick (fun () ->
        let me = Domain.self () in
        let on_me = List.for_all (fun d -> d = me) in
        (* a single item never pays for waking a worker, with or without
           a live budget; at jobs=1 no batch ever leaves the caller *)
        Pool.with_pool ~jobs:4 (fun p ->
            check "one item" true
              (on_me (Pool.map p (fun _ () -> Domain.self ()) [ () ]));
            check "one item, budgeted" true
              (on_me
                 (Pool.map ~budget:(Budget.make ~fuel:100 ()) p
                    (fun _ () -> Domain.self ())
                    [ () ])));
        Pool.with_pool ~jobs:1 (fun p ->
            check "jobs=1" true
              (on_me
                 (Pool.map p (fun _ () -> Domain.self ()) (List.init 16 ignore)))));
    Alcotest.test_case "create rejects jobs < 1; shutdown is idempotent"
      `Quick (fun () ->
        (match Pool.create ~jobs:0 with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
        let p = Pool.create ~jobs:2 in
        Pool.shutdown p;
        Pool.shutdown p;
        match Pool.map p (fun _ x -> x) [ 1 ] with
        | _ -> Alcotest.fail "expected Invalid_argument after shutdown"
        | exception Invalid_argument _ -> ());
  ]

(* ------------------------------------------------------------------ *)
(* Determinism: the threaded entry points                              *)
(* ------------------------------------------------------------------ *)

(* random deterministic automata (same shape as test_classify's) *)
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

(* Small batches of random formulas for [Engine.classify_batch]: at
   most two modal shapes each, which keeps the uniform-liveness bit
   cheap. *)
let arb_formulas =
  let open QCheck.Gen in
  let shape =
    oneofl
      [
        "p"; "[] p"; "<> q"; "[]<> p"; "<>[] q"; "[] (p -> <> q)"; "p U q";
        "[] (p -> q)"; "<> (p & q)"; "[] (p -> Y q)";
      ]
  in
  let formula =
    oneof
      [
        shape;
        map3 (fun a op b -> Printf.sprintf "(%s) %s (%s)" a op b)
          shape (oneofl [ "&"; "|"; "->" ]) shape;
        map (Printf.sprintf "! (%s)") shape;
      ]
  in
  QCheck.make ~print:(String.concat "; ") (list_size (int_range 1 5) formula)

let strip (r : (Hierarchy.Engine.report, Hierarchy.Engine.error) result) =
  match r with
  | Ok rep ->
      Ok
        ( rep.Hierarchy.Engine.verdict,
          rep.Hierarchy.Engine.memberships,
          rep.Hierarchy.Engine.n_states,
          Option.map
            (fun e -> e.Budget.reason)
            rep.Hierarchy.Engine.exhausted )
  | Error e -> Error (Format.asprintf "%a" Hierarchy.Engine.pp_error e)

let memberships_of = function
  | Ok rep -> Some rep.Hierarchy.Engine.memberships
  | Error _ -> None

let pooled_batch ?budget ?telemetry ~jobs inputs =
  Pool.with_pool ~jobs (fun p ->
      Hierarchy.Engine.classify_batch ?budget ?telemetry ~pool:p inputs)

let determinism_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make
        ~name:
          "batch map: trip point and merged telemetry identical at jobs 1/2/4"
        ~count:30
        QCheck.(pair (int_range 20 300) (int_range 1 2000))
        (fun (n, trip_at) ->
          (* many items of very uneven cost, so participants race for
             indexes; the whole observable surface — results or the
             trip, the parent's charged fuel, the merged counters — must
             not depend on the job count *)
          let items = List.init n Fun.id in
          let at jobs =
            Pool.with_pool ~jobs (fun p ->
                let t = Telemetry.collector () in
                let b = Budget.inject_trip_at trip_at in
                let outcome =
                  match
                    Pool.map ~budget:b ~telemetry:t p
                      (fun ctx i ->
                        let cost = 1 + (i * 7919 mod 97) in
                        Budget.ticks ctx.Pool.budget cost;
                        Telemetry.incr ctx.Pool.telemetry "ws.tasks";
                        Telemetry.add ctx.Pool.telemetry "ws.cost" cost;
                        i * i)
                      items
                  with
                  | v -> Ok v
                  | exception Budget.Tripped e ->
                      Error (e.Budget.reason, e.Budget.spent)
                in
                (outcome, Budget.spent b, (Telemetry.report t).Telemetry.counters))
          in
          let r1 = at 1 in
          at 2 = r1 && at 4 = r1);
      QCheck.Test.make ~name:"classify identical at jobs 1/2/4" ~count:40
        arb_formulas
        (fun inputs ->
          let seq = List.map strip (Hierarchy.Engine.classify_batch inputs) in
          List.for_all
            (fun jobs -> List.map strip (pooled_batch ~jobs inputs) = seq)
            job_counts);
      QCheck.Test.make ~name:"memberships identical at jobs 1/2/4" ~count:30
        arb_formulas
        (fun inputs ->
          let seq =
            List.map memberships_of (Hierarchy.Engine.classify_batch inputs)
          in
          List.for_all
            (fun jobs ->
              List.map memberships_of (pooled_batch ~jobs inputs) = seq)
            job_counts);
      QCheck.Test.make ~name:"Lang.equal identical at jobs 1/2/4" ~count:60
        QCheck.(list_of_size Gen.(int_range 1 6) (pair arb_automaton arb_automaton))
        (fun pairs ->
          let seq = List.map (fun (a, b) -> Lang.equal a b) pairs in
          List.for_all
            (fun jobs ->
              Pool.with_pool ~jobs (fun p ->
                  Pool.map p (fun _ (a, b) -> Lang.equal a b) pairs)
              = seq)
            job_counts);
      QCheck.Test.make
        ~name:"classify_budgeted identical at jobs 1/2/4 under injected trips"
        ~count:30
        QCheck.(pair arb_formulas (int_range 1 400))
        (fun (inputs, trip_at) ->
          (* every pooled run splits replica budgets, so the pool's own
             jobs=1 path is the reference: the no-pool map shares one
             budget across inputs (cumulative degradation) *)
          let at jobs =
            List.map strip
              (pooled_batch ~budget:(Budget.inject_trip_at trip_at) ~jobs
                 inputs)
          in
          let r1 = at 1 in
          List.for_all (fun jobs -> at jobs = r1) [ 2; 4 ]);
      QCheck.Test.make
        ~name:"classify identical at jobs 1/2/4 with telemetry enabled"
        ~count:20 arb_formulas
        (fun inputs ->
          let seq = List.map strip (Hierarchy.Engine.classify_batch inputs) in
          List.for_all
            (fun jobs ->
              let t = Telemetry.collector () in
              let got = pooled_batch ~telemetry:t ~jobs inputs in
              ignore (Telemetry.report t);
              List.map strip got = seq)
            job_counts);
    ]

let batch_tests =
  [
    Alcotest.test_case "Engine.classify_batch identical at jobs 1/2/4" `Quick
      (fun () ->
        let inputs =
          [ "[] p"; "<> p"; "[]<> p"; "[] (p -> <> q)"; "not a formula (" ]
        in
        let at jobs = List.map strip (pooled_batch ~jobs inputs) in
        let r1 = at 1 in
        List.iter
          (fun jobs ->
            check (Printf.sprintf "jobs=%d" jobs) true (at jobs = r1))
          [ 2; 4 ];
        (* and the pool path agrees with the legacy no-pool map on an
           unlimited budget, where replica and shared budgets coincide *)
        check "pool agrees with sequential batch" true
          (List.map strip (Hierarchy.Engine.classify_batch inputs) = r1));
  ]

(* ------------------------------------------------------------------ *)
(* The inclusion engine crosses the fork                               *)
(* ------------------------------------------------------------------ *)

(* The engine is a domain-local value, so a worker domain's own slot
   holds the default; [Pool.map] must hand each task the submitter's. *)
let engine_tests =
  let counters_of t = (Telemetry.report t).Telemetry.counters in
  let explicit_counts run =
    List.map
      (fun jobs ->
        let t = Telemetry.collector () in
        Pool.with_pool ~jobs (fun p -> run ~telemetry:t ~pool:p);
        let product = Telemetry.counter t "lang.included.product" in
        let antichain =
          List.filter
            (fun (name, _) -> String.starts_with ~prefix:"inclusion." name)
            (counters_of t)
        in
        (jobs, product, antichain))
      [ 1; 2 ]
  in
  let check_counts what counts =
    List.iter
      (fun (jobs, product, antichain) ->
        let at = Printf.sprintf "%s jobs=%d" what jobs in
        check (at ^ ": products built") true (product > 0);
        Alcotest.(check (list (pair string int)))
          (at ^ ": no antichain inclusion") [] antichain)
      counts;
    match counts with
    | (_, p1, _) :: rest ->
        List.iter
          (fun (jobs, p, _) ->
            Alcotest.(check int)
              (Printf.sprintf "%s: products at jobs=%d = jobs=1" what jobs)
              p1 p)
          rest
    | [] -> ()
  in
  [
    Alcotest.test_case "a task on a worker domain reads the scoped engine"
      `Quick (fun () ->
        Pool.with_pool ~jobs:2 (fun p ->
            let arrived = Atomic.make 0 in
            let seen =
              Lang.with_engine `Explicit (fun () ->
                  Pool.map p
                    (fun _ () ->
                      (* each task waits for the other, so the two run
                         at once, on two domains *)
                      Atomic.incr arrived;
                      while Atomic.get arrived < 2 do
                        Domain.cpu_relax ()
                      done;
                      (Domain.self (), Lang.engine ()))
                    [ (); () ])
            in
            match seen with
            | [ (d0, e0); (d1, e1) ] ->
                check "the tasks ran on two domains" true (d0 <> d1);
                check "both read `Explicit" true
                  (e0 = `Explicit && e1 = `Explicit)
            | _ -> Alcotest.fail "expected two results"));
    Alcotest.test_case "Engine.classify_batch ~engine:`Explicit at jobs 1/2"
      `Quick (fun () ->
        check_counts "classify_batch"
          (explicit_counts (fun ~telemetry ~pool ->
               ignore
                 (Hierarchy.Engine.classify_batch ~telemetry ~pool
                    ~engine:`Explicit
                    [ "[] (p -> <> q)"; "[]<> p | <>[] q"; "<> p"; "[] p" ]))));
  ]

let () =
  Alcotest.run "pool"
    [
      ("mechanics", unit_tests);
      ("determinism", determinism_tests);
      (* the group keeps its historical name, so the test's id is stable *)
      ("lint determinism", batch_tests);
      ("engine", engine_tests);
    ]
