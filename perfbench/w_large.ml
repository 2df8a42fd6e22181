(* large: single queries big enough for intra-query fan-out.  One
   caller and one two-domain pool (no pool when the machine has one
   core).  Each query runs through its public entry point; the counted
   pass runs them without a pool, so every timed answer is also checked
   against the sequential one. *)

open Hierarchy
open Omega

let fuel = 500_000_000
let ab = Finitary.Alphabet.of_chars "ab"

(* The automata bench/main.ml builds for its parallel rows. *)

(* a 10k-state single SCC: +1 on 'a', self-loop on 'b' *)
let sweep n =
  Automaton.make ~alpha:ab ~n ~start:0
    ~delta:(Array.init n (fun q -> [| (q + 1) mod n; q |]))
    ~acc:(Acceptance.Inf (Iset.singleton 0))

(* E12 of EXPERIMENTS.md: Wagner's staircase has reactivity rank k *)
let staircase k =
  let n = (2 * k) + 1 in
  let alpha = Finitary.Alphabet.of_names (List.init n (Printf.sprintf "l%d")) in
  let rec acc_for hi =
    if hi < 0 then Acceptance.False
    else
      let top = Iset.singleton hi in
      if hi mod 2 = 0 then Acceptance.Or [ Acceptance.Inf top; acc_for (hi - 1) ]
      else Acceptance.And [ Acceptance.Fin top; acc_for (hi - 1) ]
  in
  Automaton.make ~alpha ~n ~start:0 ~delta:(Array.init n (fun _ -> Array.init n Fun.id)) ~acc:(acc_for (n - 1))

let abcd = Finitary.Alphabet.of_chars "abcd"

let incl_a na =
  Automaton.make ~alpha:abcd ~n:na ~start:0
    ~delta:(Array.init na (fun q -> [| (q + 1) mod na; q; (q + 3) mod na; (q + 5) mod na |]))
    ~acc:(Acceptance.Inf (Iset.singleton 0))

let incl_b nb =
  Automaton.make ~alpha:abcd ~n:nb ~start:0
    ~delta:(Array.init nb (fun q -> [| (q + 1) mod nb; (q + 2) mod nb; q; (q + 7) mod nb |]))
    ~acc:(Acceptance.And [ Acceptance.Inf (Iset.singleton 0); Acceptance.Inf (Iset.singleton 1) ])

(* 8 independent restricted Tarjan passes over a 30k-state SCC *)
let closure_conjuncts n conj =
  let slice r = Iset.of_list (List.filter (fun q -> q mod conj = r) (List.init n Fun.id)) in
  Automaton.make ~alpha:ab ~n ~start:0
    ~delta:(Array.init n (fun q -> [| (q + 1) mod n; (q + 7) mod n |]))
    ~acc:
      (Acceptance.Or
         (List.init conj (fun r ->
              Acceptance.And [ Acceptance.Fin (slice r); Acceptance.Inf (slice ((r + 1) mod conj)) ])))

(* a counter stepping by +1/+7 that picks a mode bit each step *)
let mode_system n hops =
  Fts.System.make
    ~vars:[ { Fts.System.name = "x"; lo = 0; hi = n - 1 }; { name = "m"; lo = 0; hi = 1 } ]
    ~init:[ [| 0; 0 |] ]
    ~transitions:
      (List.map
         (fun h ->
           {
             Fts.System.tname = Printf.sprintf "hop%d" h;
             guard = (fun _ -> true);
             action = (fun s -> let x' = (s.(0) + h) mod n in [ [| x'; 0 |]; [| x'; 1 |] ]);
           })
         hops)
    ~fairness:[] ()

(* the 201-state counter of BENCH_analyze.json, scaled *)
let counter n =
  String.concat "\n"
    [
      Printf.sprintf "var x 0..%d" n;
      "init x=0";
      Printf.sprintf "trans inc:   !(x=%d) -> x:=x+1" n;
      Printf.sprintf "trans reset: x=%d    -> x:=0" n;
      "fair weak inc";
    ]

let digest (a : Automaton.t) =
  Printf.sprintf "%d states %s" a.Automaton.n (Digest.to_hex (Digest.string (Marshal.to_string (a.Automaton.delta, a.Automaton.acc) [])))

let plain rendered = { Closed.rendered; exact = None; spent = 0; problem = None }

let row_text row =
  String.concat " "
    (List.map
       (fun (k, m) ->
         Printf.sprintf "%s=%s" (Kappa.name k) (match m with Some true -> "yes" | Some false -> "no" | None -> "?"))
       row)

(* Classify.classify_budgeted, not Engine.classify_automaton: the
   engine adds the uniform-liveness bit, which exhausts a 4 GB address
   space on the 10k-state sweep (see perfbench/README.md).  One query
   may classify several automata, each with the class it must get. *)
let classify_op ~label ~pool cases =
  {
    Closed.label;
    kind = label;
    run =
      (fun () ->
        let budget = Budget.make ~fuel () in
        let results =
          List.map
            (fun (expect, a) ->
              let b = Classify.classify_budgeted ~budget ?pool a in
              let verdict = match b.Classify.verdict with `Exact k -> Some k | `Interval _ -> None in
              (verdict, b.Classify.row, Checks.verdict ?expect verdict b.Classify.row))
            cases
        in
        {
          Closed.rendered =
            String.concat "; "
              (List.map
                 (fun (v, row, _) ->
                   (match v with Some k -> Kappa.name k | None -> "interval") ^ ": " ^ row_text row)
                 results);
          exact = Some (List.for_all (fun (v, _, _) -> v <> None) results);
          spent = Budget.spent budget;
          problem = List.find_map (fun (_, _, p) -> p) results;
        });
  }

let analyze_op ~label ~pool ~model ~specs =
  let specs = List.map (fun (n, f) -> (n, f, None)) specs in
  {
    Closed.label;
    kind = label;
    run =
      (fun () ->
        let budget = Budget.make ~fuel () in
        match Engine.analyze ~budget ?pool ~model:(model ()) specs with
        | Ok v ->
            { Closed.rendered = Lint.to_json v; exact = Some (W_spec.lint_exact v); spent = Budget.spent budget; problem = W_spec.item_problem v }
        | Error e -> { (plain "error") with problem = Some (Format.asprintf "%a" Engine.pp_error e) });
  }

type inputs = {
  sweep_a : Automaton.t;
  stairs : (int * Automaton.t) list;
  ia : Automaton.t;
  ib : Automaton.t;
  conj : Automaton.t;
  modes : Fts.System.t;
  counter_n : int;
  countdown_n : int;
}

let inputs ~tiny =
  if tiny then
    { sweep_a = sweep 500; stairs = [ (2, staircase 2); (3, staircase 3) ]; ia = incl_a 60; ib = incl_b 59;
      conj = closure_conjuncts 1000 4; modes = mode_system 20 [ 1; 7 ]; counter_n = 20; countdown_n = 20 }
  else
    { sweep_a = sweep 10_000; stairs = [ (4, staircase 4); (5, staircase 5) ]; ia = incl_a 1000; ib = incl_b 999;
      conj = closure_conjuncts 30_000 8; modes = mode_system 160 [ 1; 7 ]; counter_n = 600; countdown_n = 700 }

let counter_specs n = [ ("progress", Printf.sprintf "[] (x=0 -> <> x=%d)" n) ]

(* Seven queries; on 2 shared cores the median one is the counter's
   analysis, whose time varies least from run to run. *)
let queries i ~pool =
  [
    classify_op ~label:"sweep" ~pool [ (None, i.sweep_a) ];
    classify_op ~label:"staircase" ~pool (List.map (fun (k, a) -> (Some (Kappa.Reactivity k), a)) i.stairs);
    { Closed.label = "included"; kind = "included"; run = (fun () -> plain (string_of_bool (Lang.included ?pool i.ia i.ib))) };
    {
      Closed.label = "safety_closure";
      kind = "safety_closure";
      run =
        (fun () ->
          let budget = Budget.make ~fuel () in
          { (plain (digest (Lang.safety_closure ~budget ?pool i.conj))) with spent = Budget.spent budget });
    };
    {
      Closed.label = "closure_automaton";
      kind = "closure_automaton";
      run =
        (fun () ->
          let budget = Budget.make ~fuel () in
          {
            (plain (digest (Fts.Check.closure_automaton ~budget ?pool i.modes ~atoms:[ "m=0"; "x=0" ]))) with
            spent = Budget.spent budget;
          });
    };
    analyze_op ~label:"analyze_counter" ~pool
      ~model:(fun () -> fst (Fts.Parse.parse (counter i.counter_n)))
      ~specs:(counter_specs i.counter_n);
    analyze_op ~label:"analyze_countdown" ~pool
      ~model:(fun () -> Fts.Models.countdown ~n:i.countdown_n ())
      ~specs:[ ("total", "<> (done_=1 & x=0)"); ("partial", "[] (done_=1 -> x=0)") ];
  ]

let jobs () = if Meter.nproc () >= 2 then 2 else 1

(* One timed pass on 2 shared cores takes 5-7 s; 5 s gives five passes
   in a 25 s run. *)
let pass_s = 5.

(* The counted pass is sequential; the timed passes run on the pool. *)
let run ~between ~tiny ~seed:_ ~seconds =
  let i = inputs ~tiny in
  let c = Closed.counted (queries i ~pool:None) in
  let go pool = Closed.timed ~between ~passes:(Closed.passes_for ~pass_s seconds) c (queries i ~pool) in
  if jobs () >= 2 then Pool.with_pool ~jobs:2 (fun p -> go (Some p)) else go None

let probe () =
  let go pool = ignore ((classify_op ~label:"probe" ~pool [ (None, staircase 2) ]).Closed.run ()) in
  if jobs () >= 2 then Pool.with_pool ~jobs:2 (fun p -> go (Some p)) else go None

(* The traced run: each fan-out site once without a pool and once on a
   two-domain pool, on the same input, and the two answers compared.  A
   site that keeps its code should show jobs2_ms well under seq_ms.
   Without a second core only the sequential times are reported. *)
let layers ~tiny ~seed:_ =
  let i = inputs ~tiny in
  let stair = snd (List.nth i.stairs (List.length i.stairs - 1)) in
  let model = fst (Fts.Parse.parse (counter i.counter_n)) in
  let spec = List.map (fun (n, f) -> (n, f, None)) (counter_specs i.counter_n) in
  let sites =
    [
      ("classify_budgeted", fun pool -> Marshal.to_string (Classify.classify_budgeted ?pool i.sweep_a).Classify.row []);
      ("reactivity_rank_opt", fun pool -> Marshal.to_string (Classify.reactivity_rank_opt ?pool stair) []);
      ("included", fun pool -> string_of_bool (Lang.included ?pool i.ia i.ib));
      ("safety_closure", fun pool -> digest (Lang.safety_closure ?pool i.conj));
      ("closure_automaton", fun pool -> digest (Fts.Check.closure_automaton ?pool i.modes ~atoms:[ "m=0"; "x=0" ]));
      ("analyze", fun pool -> match Engine.analyze ?pool ~model spec with Ok v -> Lint.to_json v | Error _ -> "error");
    ]
  in
  let acc = Meter.Acc.create () and failed = ref 0 in
  let timed name f =
    let x, dt = Meter.time f in
    Meter.Acc.add acc ~unit_:"ms" name (dt *. 1000.);
    x
  in
  Meter.with_gc acc (fun () ->
      List.iter
        (fun (name, f) ->
          let seq = timed (Printf.sprintf "pool.%s.seq_ms" name) (fun () -> f None) in
          if jobs () >= 2 then
            Pool.with_pool ~jobs:2 (fun p ->
                if timed (Printf.sprintf "pool.%s.jobs2_ms" name) (fun () -> f (Some p)) <> seq then begin
                  incr failed;
                  Checks.say_failure ~input:name "pooled answer differs from the sequential one"
                end))
        sites);
  {
    Meter.attempted = List.length sites * jobs ();
    failed = !failed;
    metrics = Meter.Acc.metrics ~prefix:"large" acc;
    extra = [];
  }
