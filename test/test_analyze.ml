(* Model-aware static analysis: the M3xx/H312 checks of
   [Fts.Analyze].

   - pins the M304 regression on [Models.vacuous_fairness] (the trap
     documented in check.mli: a guard that promises a successor the
     action never delivers);
   - differential-tests M302/M303 against an independent brute-force
     reachability over random small systems, and the closure automaton
     behind M310 against brute-force prefix runs;
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

let arb_system =
  QCheck.make
    ~print:(fun (raws, init) ->
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
      Buffer.contents b)
    QCheck.Gen.(pair gen_raw (int_bound (n_full - 1)))

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
