(* Model-aware static analysis: the M3xx/H312 checks of
   [Fts.Analyze].

   - pins the M304 regression on [Models.vacuous_fairness] (the trap
     documented in check.mli: a guard that promises a successor the
     action never delivers);
   - differential-tests M302/M303 against an independent brute-force
     reachability over random small systems, and the closure automaton
     behind M310 against brute-force prefix runs and against the
     list-keyed subset construction of [Closure_oracle];
   - checks the determinism contract: reports are structurally equal
     under either inclusion engine, at jobs 1/2/4, and at every
     injected budget-trip position. *)

open Fts

let check = Alcotest.(check bool)

let contains ~sub s =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* The vacuous-fairness regression (models.mli's documented example)  *)
(* ------------------------------------------------------------------ *)

let vacuous_fairness_tests =
  let report = Analyze.analyze (Models.vacuous_fairness ()) in
  let m304 =
    List.filter (fun f -> f.Analyze.code = Analyze.M304) report.findings
  in
  [
    Alcotest.test_case "M304 fires exactly once" `Quick (fun () ->
        Alcotest.(check int) "one finding" 1 (List.length m304));
    Alcotest.test_case "M304 locus names the culprit, span-free" `Quick
      (fun () ->
        let f = List.hd m304 in
        Alcotest.(check (list string))
          "fairness requirement and enabling state"
          [ "strong grant"; "{c=1; free=0}" ]
          f.locus;
        check "message says vacuously" true
          (contains ~sub:"vacuously" f.message));
    Alcotest.test_case "M304 is an error; name round-trips" `Quick (fun () ->
        check "severity" true (Analyze.severity_of Analyze.M304 = Analyze.Error);
        Alcotest.(check string) "name" "M304" (Analyze.code_name Analyze.M304));
    Alcotest.test_case "structural statuses all checked, spec ones skipped"
      `Quick (fun () ->
        List.iter
          (fun (c, st) ->
            match (c, st) with
            | (Analyze.M310 | M311 | H312), Analyze.Skipped _ -> ()
            | (Analyze.M310 | M311 | H312), _ ->
                Alcotest.failf "%s should be skipped without specs"
                  (Analyze.code_name c)
            | _, Analyze.Checked -> ()
            | c, _ ->
                Alcotest.failf "%s should be checked" (Analyze.code_name c))
          report.statuses;
        check "not degraded" false (Analyze.degraded report));
    Alcotest.test_case "the enabled-but-never-taken seed shows as M302"
      `Quick (fun () ->
        check "grant also dead" true
          (List.exists
             (fun f ->
               f.Analyze.code = Analyze.M302 && f.locus = [ "grant" ]
               && contains ~sub:"never yields a successor" f.message)
             report.findings));
  ]

(* ------------------------------------------------------------------ *)
(* Differential: M302/M303 vs brute-force reachability                *)
(* ------------------------------------------------------------------ *)

(* Random systems over x in 0..2, y in 0..1, encoded as 0..5: each
   transition is a raw table (guard bit + successor ids per state), so
   an independent BFS over the same tables is trivially correct. *)

let n_full = 6
let decode i = [| i mod 3; i / 3 |]
let encode (s : int array) = s.(0) + (3 * s.(1))

type raw = { rname : string; table : (bool * int list) array }

let gen_raw =
  let open QCheck.Gen in
  let cell = pair bool (list_size (int_bound 2) (int_bound (n_full - 1))) in
  let table = array_size (return n_full) cell in
  map
    (fun tables ->
      List.mapi (fun i table -> { rname = Printf.sprintf "t%d" i; table })
        tables)
    (list_size (1 -- 4) table)

let print_system (raws, init) =
  let b = Buffer.create 128 in
  Printf.bprintf b "init=%d" init;
  List.iter
    (fun r ->
      Printf.bprintf b "\n%s:" r.rname;
      Array.iteri
        (fun i (g, succs) ->
          Printf.bprintf b " %d:%c[%s]" i
            (if g then '+' else '-')
            (String.concat "," (List.map string_of_int succs)))
        r.table)
    raws;
  Buffer.contents b

let gen_system = QCheck.Gen.(pair gen_raw (int_bound (n_full - 1)))
let arb_system = QCheck.make ~print:print_system gen_system

(* A system with 1-4 atoms of its own: [x=v], [y=v], and [en_t] and
   [taken_t] for every transition [t], idling included. *)
let arb_system_atoms =
  let open QCheck.Gen in
  let gen =
    gen_system >>= fun ((raws, _) as input) ->
    let names = System.idle_name :: List.map (fun r -> r.rname) raws in
    let pool =
      Array.of_list
        ([ "x=0"; "x=1"; "x=2"; "y=0"; "y=1" ]
        @ List.map (( ^ ) "en_") names
        @ List.map (( ^ ) "taken_") names)
    in
    map (fun atoms -> (input, atoms)) (list_size (1 -- 4) (oneofa pool))
  in
  QCheck.make
    ~print:(fun (input, atoms) ->
      print_system input ^ "\natoms=" ^ String.concat "," atoms)
    gen

let system_of_raw (raws, init) =
  System.make
    ~vars:[ { System.name = "x"; lo = 0; hi = 2 }; { name = "y"; lo = 0; hi = 1 } ]
    ~init:[ decode init ]
    ~transitions:
      (List.map
         (fun r ->
           {
             System.tname = r.rname;
             guard = (fun s -> fst r.table.(encode s));
             action = (fun s -> List.map decode (snd r.table.(encode s)));
           })
         raws)
    ~fairness:[] ()

(* Boolean flags v0..v(k-1), each flipped by its own transition: the
   closure over the atoms [vi=1] is sparse, with few successors per
   subset and one letter per state. *)
let flags k =
  System.make
    ~vars:
      (List.init k (fun i ->
           { System.name = Printf.sprintf "v%d" i; lo = 0; hi = 1 }))
    ~init:[ Array.make k 0 ]
    ~transitions:
      (List.init k (fun i ->
           {
             System.tname = Printf.sprintf "f%d" i;
             guard = (fun _ -> true);
             action =
               (fun s ->
                 let s' = Array.copy s in
                 s'.(i) <- 1 - s.(i);
                 [ s' ]);
           }))
    ~fairness:[] ()

(* A counter over 0..n-1 stepping by +1 or +7, each step also picking a
   mode bit m: over [m=0] and [x=0] the closure subsets are long runs
   of split nodes, sorted by the radix passes. *)
let mode_counter n =
  System.make
    ~vars:
      [ { System.name = "x"; lo = 0; hi = n - 1 }; { name = "m"; lo = 0; hi = 1 } ]
    ~init:[ [| 0; 0 |] ]
    ~transitions:
      (List.map
         (fun h ->
           {
             System.tname = Printf.sprintf "hop%d" h;
             guard = (fun _ -> true);
             action =
               (fun s ->
                 let x' = (s.(0) + h) mod n in
                 [ [| x'; 0 |]; [| x'; 1 |] ]);
           })
         [ 1; 7 ])
    ~fairness:[] ()

(* The same closure subset found in two orders.  From s=0, t1/t2/t5
   enter P (s=1), Q (s=2) and R (s=3).  P moves to s=5 by t4 and Q to
   s=4 by t3; R does both.  Expanding {P, Q} meets Q's successor first
   when the key is stored in discovery order, and expanding {R} meets
   it last, so only keys sorted by node id intern the two as one. *)
let two_orders =
  let step targets =
    {
      System.tname = "";
      guard = (fun s -> List.mem_assoc s.(0) targets);
      action = (fun s -> [ [| List.assoc s.(0) targets |] ]);
    }
  in
  System.make
    ~vars:[ { System.name = "s"; lo = 0; hi = 5 } ]
    ~init:[ [| 0 |] ]
    ~transitions:
      (List.map
         (fun (tname, targets) -> { (step targets) with tname })
         [
           ("t1", [ (0, 1) ]);
           ("t2", [ (0, 2) ]);
           ("t3", [ (2, 4); (3, 4) ]);
           ("t4", [ (1, 5); (3, 5) ]);
           ("t5", [ (0, 3) ]);
         ])
    ~fairness:[] ()

(* [closure_automaton] and the list-keyed oracle build the same
   automaton for the same spend, and trip at the same tick under every
   fuel up to that spend. *)
let same_as_oracle sys atoms =
  let outcome build fuel =
    let budget = Budget.make ~fuel () in
    match build budget with
    | (a : Omega.Automaton.t) -> Ok (a.n, a.delta, a.acc, Budget.spent budget)
    | exception Budget.Tripped e -> Error e
  in
  let ours budget = Check.closure_automaton ~budget sys ~atoms in
  let oracle budget = Closure_oracle.closure_automaton ~budget sys ~atoms in
  let fuel = 1 lsl 40 in
  let spent =
    match outcome oracle fuel with Ok (_, _, _, s) -> s | Error _ -> 0
  in
  outcome ours fuel = outcome oracle fuel
  && List.for_all
       (fun f ->
         match (outcome ours f, outcome oracle f) with
         | Error e, Error e' -> e = e'
         | _ -> false)
       (List.init spent (fun i -> i + 1))

(* One run of each side under ample fuel: the same automaton, with
   [states] states, for the same spend.  (Sweeping every fuel up to
   these spends would take hundreds of thousands of runs.) *)
let same_automaton ~states sys atoms =
  let budget = Budget.make ~fuel:(1 lsl 40) () in
  let a = Check.closure_automaton ~budget sys ~atoms in
  let budget' = Budget.make ~fuel:(1 lsl 40) () in
  let b = Closure_oracle.closure_automaton ~budget:budget' sys ~atoms in
  Alcotest.(check int) "closure states" states a.n;
  check "same automaton" true
    (a.n = b.n && a.delta = b.delta && a.acc = b.acc);
  Alcotest.(check int) "same spend" (Budget.spent budget') (Budget.spent budget)

(* The independent oracle: plain BFS over the raw tables. *)
let brute_reachable (raws, init) =
  let seen = Array.make n_full false in
  let q = Queue.create () in
  seen.(init) <- true;
  Queue.add init q;
  while not (Queue.is_empty q) do
    let i = Queue.pop q in
    List.iter
      (fun r ->
        let g, succs = r.table.(i) in
        if g then
          List.iter
            (fun j ->
              if not seen.(j) then begin
                seen.(j) <- true;
                Queue.add j q
              end)
            succs)
      raws
  done;
  seen

let differential_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~name:"M302 agrees with brute-force reachability"
        ~count:300 arb_system (fun input ->
          let raws, _ = input in
          let sys = system_of_raw input in
          let reach = brute_reachable input in
          let brute_dead =
            List.filter
              (fun r ->
                not
                  (Array.exists
                     (fun i ->
                       reach.(i)
                       && fst r.table.(i)
                       && snd r.table.(i) <> [])
                     (Array.init n_full (fun i -> i))))
              raws
            |> List.map (fun r -> r.rname)
          in
          let report = Analyze.analyze sys in
          let analyzed_dead =
            List.filter_map
              (fun f ->
                if f.Analyze.code = Analyze.M302 then Some (List.hd f.locus)
                else None)
              report.findings
          in
          List.sort compare brute_dead = List.sort compare analyzed_dead);
      QCheck.Test.make ~name:"M303 agrees with brute-force sink detection"
        ~count:300 arb_system (fun input ->
          let raws, _ = input in
          let sys = system_of_raw input in
          let reach = brute_reachable input in
          let brute_sinks =
            List.filter
              (fun i ->
                reach.(i)
                && not
                     (List.exists
                        (fun r ->
                          fst r.table.(i) && snd r.table.(i) <> [])
                        raws))
              (List.init n_full (fun i -> i))
          in
          let report = Analyze.analyze sys in
          let analyzed_sinks =
            List.concat_map
              (fun f ->
                if f.Analyze.code = Analyze.M303 then f.Analyze.locus else [])
              report.findings
          in
          List.length brute_sinks = List.length analyzed_sinks);
      QCheck.Test.make
        ~name:"closure_automaton agrees with brute-force prefix runs"
        ~count:300 arb_system (fun ((raws, init) as input) ->
          let a =
            Check.closure_automaton (system_of_raw input)
              ~atoms:[ "x=0"; "y=1" ]
          in
          let sink =
            match a.acc with
            | Acceptance.Fin s -> s
            | _ -> Iset.empty
          in
          (* letter bit i: the i-th sorted atom holds *)
          let letter i =
            (if i mod 3 = 0 then 1 else 0) lor if i / 3 = 1 then 2 else 0
          in
          let succs i =
            i
            :: List.concat_map
                 (fun r -> if fst r.table.(i) then snd r.table.(i) else [])
                 raws
          in
          let step l states =
            List.sort_uniq compare
              (List.concat_map
                 (fun i -> List.filter (fun j -> letter j = l) (succs i))
                 states)
          in
          let rec words n =
            if n = 0 then [ [] ]
            else
              List.concat_map
                (fun w -> List.init 4 (fun l -> l :: w))
                (words (n - 1))
          in
          (* every word of length 1..4: the DFA stays off the sink iff
             some computation prefix (idling allowed) spells it *)
          List.for_all
            (fun w ->
              match w with
              | [] -> true
              | l0 :: rest ->
                  let live =
                    List.fold_left (fun st l -> step l st)
                      (if letter init = l0 then [ init ] else [])
                      rest
                    <> []
                  in
                  let q = List.fold_left (fun q l -> a.delta.(q).(l)) 0 w in
                  live = not (Iset.mem q sink))
            (List.concat_map words [ 1; 2; 3; 4 ]));
      QCheck.Test.make ~name:"closure_automaton = subset oracle" ~count:300
        arb_system_atoms (fun (input, atoms) ->
          same_as_oracle (system_of_raw input) atoms);
    ]
  @ [
      Alcotest.test_case "closure keys do not depend on discovery order"
        `Quick (fun () ->
          check "same as the oracle" true
            (same_as_oracle two_orders [ "s=0"; "s=3"; "taken_idle" ]));
      Alcotest.test_case "closure_automaton = subset oracle on 8 flags"
        `Quick (fun () ->
          same_automaton ~states:2307 (flags 8)
            (List.init 8 (Printf.sprintf "v%d=1")));
      Alcotest.test_case "closure_automaton = subset oracle on a mode counter"
        `Quick (fun () ->
          same_automaton ~states:325 (mode_counter 40) [ "m=0"; "x=0" ]);
    ]

(* ------------------------------------------------------------------ *)
(* Determinism: engines, job counts, injected budget trips            *)
(* ------------------------------------------------------------------ *)

let request_grant_text =
  {|var req 0..1
var gnt 0..1
init req=0, gnt=0
trans raise: req=1 -> req:=1
trans grant: req=1 & gnt=0 -> gnt:=1
trans ack:   gnt=1 -> req:=0, gnt:=0
fair weak grant|}

let request_grant_specs =
  [ ("response", Logic.Parser.parse "[] (req=1 -> <> gnt=1)") ]

(* With [?pool], three copies of the analysis run as one batch, each on
   its task's replica budget; all three must agree. *)
let run_analysis ?budget ?pool () =
  let sys, _ = Parse.parse request_grant_text in
  match pool with
  | None -> Analyze.analyze ?budget ~specs:request_grant_specs sys
  | Some p -> (
      match
        Pool.map ?budget p
          (fun ctx () ->
            Analyze.analyze ~budget:ctx.Pool.budget
              ~specs:request_grant_specs sys)
          [ (); (); () ]
      with
      | r :: rest when List.for_all (( = ) r) rest -> r
      | _ -> Alcotest.fail "pooled copies of the analysis disagree")

let determinism_tests =
  let reference = run_analysis () in
  [
    Alcotest.test_case "M310 fires on the antecedent-failure pair" `Quick
      (fun () ->
        check "vacuity found" true
          (List.exists
             (fun f ->
               f.Analyze.code = Analyze.M310
               && f.requirement = Some "response")
             reference.findings));
    Alcotest.test_case "explicit engine = antichain engine" `Quick (fun () ->
        check "equal reports" true
          (Omega.Lang.with_engine `Explicit (fun () -> run_analysis ())
          = reference));
    Alcotest.test_case "jobs 1/2/4 = sequential" `Quick (fun () ->
        List.iter
          (fun jobs ->
            let r = Pool.with_pool ~jobs (fun p -> run_analysis ~pool:p ()) in
            check (Printf.sprintf "jobs=%d" jobs) true (r = reference))
          [ 1; 2; 4 ]);
    Alcotest.test_case "injected trips are engine- and jobs-independent"
      `Quick (fun () ->
        List.iter
          (fun n ->
            let base = run_analysis ~budget:(Budget.inject_trip_at n) () in
            check
              (Printf.sprintf "trip@%d explicit" n)
              true
              (Omega.Lang.with_engine `Explicit (fun () ->
                   run_analysis ~budget:(Budget.inject_trip_at n) ())
              = base);
            List.iter
              (fun jobs ->
                let r =
                  Pool.with_pool ~jobs (fun p ->
                      run_analysis ~budget:(Budget.inject_trip_at n) ~pool:p
                        ())
                in
                check (Printf.sprintf "trip@%d jobs=%d" n jobs) true (r = base))
              [ 2; 4 ];
            (* soundness of degradation: tripped checks say so *)
            if Analyze.degraded base then
              check
                (Printf.sprintf "trip@%d reports not-checked" n)
                true
                (List.exists
                   (fun (_, st) ->
                     match st with
                     | Analyze.Not_checked { reason = Budget.Injected; _ } ->
                         true
                     | _ -> false)
                   base.statuses))
          [ 1; 2; 5; 10; 20; 50; 100; 200; 400 ]);
  ]

let () =
  Alcotest.run "analyze"
    [
      ("vacuous-fairness", vacuous_fairness_tests);
      ("differential", differential_tests);
      ("determinism", determinism_tests);
    ]
