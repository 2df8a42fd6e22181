(* Reproduction harness: regenerates every "result" the paper reports
   (its evaluation is Figure 1 plus worked examples and decision
   procedures), then times the library's algorithms with Bechamel.

   Run with: dune exec bench/main.exe
   (pass --tables-only to skip the timing runs) *)

open Omega

let ab = Finitary.Alphabet.of_chars "ab"
let pq = Finitary.Alphabet.of_props [ "p"; "q" ]
let fm s = Of_formula.of_string pq s

let header title =
  Format.printf "@.=== %s ===@." title

(* ------------------------------------------------------------------ *)
(* Figure 1: the inclusion diagram as a membership matrix               *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  header "Figure 1 — inclusion relations between the classes";
  Format.printf
    "(one canonical property per class; cells: is the property in the \
     column's class?)@.@.";
  let witnesses =
    [
      ("safety:      A(a^+ b*)", Build.a_re ab "a^+ b*");
      ("guarantee:   E(.* b a)", Build.e_re ab ".* b a");
      ("obligation:  a^w + <>bb",
       Automaton.union (Build.a_re ab "a^*") (Build.e_re ab ".* b b"));
      ("recurrence:  R(.* b)", Build.r_re ab ".* b");
      ("persistence: P(.* b)", Build.p_re ab ".* b");
      ("reactivity:  []<>p | <>[]q", fm "[]<> p | <>[] q");
    ]
  in
  Format.printf "%-30s %6s %6s %6s %6s %6s %6s@." "" "Saf" "Gua" "Obl1"
    "Rec" "Per" "Rea1";
  List.iter
    (fun (name, a) ->
      let row = List.map snd (Classify.memberships a) in
      Format.printf "%-30s" name;
      List.iter
        (fun b ->
          Format.printf " %6s"
            (match b with Some true -> "yes" | Some false -> "-" | None -> "?"))
        row;
      Format.printf "@.")
    witnesses;
  Format.printf
    "@.Each row is strictly higher than the previous ones — the paper's \
     strict inclusion diagram.@."

(* ------------------------------------------------------------------ *)
(* E1: the four operators on the paper's examples                       *)
(* ------------------------------------------------------------------ *)

let operators () =
  header "E1 — the operators A, E, R, P (section 2 examples)";
  let l = Finitary.Word.lasso_of_string ab in
  let show name a members non_members =
    Format.printf "%-12s in: %s   out: %s@." name
      (String.concat " "
         (List.map
            (fun w ->
              assert (Automaton.accepts a (l w));
              w)
            members))
      (String.concat " "
         (List.map
            (fun w ->
              assert (not (Automaton.accepts a (l w)));
              w)
            non_members))
  in
  show "A(a^+ b*)" (Build.a_re ab "a^+ b*") [ "(a)"; "aa(b)" ] [ "(b)"; "ab(a)" ];
  show "E(a^+ b*)" (Build.e_re ab "a^+ b*") [ "a(ba)" ] [ "(ba)" ];
  show "R(.* b)" (Build.r_re ab ".* b") [ "(ab)"; "(b)" ] [ "bb(a)" ];
  show "P(.* b)" (Build.p_re ab ".* b") [ "a(b)" ] [ "(ab)" ]

(* ------------------------------------------------------------------ *)
(* E9: the paper's temporal equivalences                                *)
(* ------------------------------------------------------------------ *)

let equivalences () =
  header "E9 — section 4 equivalences, machine-checked";
  let pqr = Finitary.Alphabet.of_props [ "p"; "q"; "r" ] in
  let pairs =
    [
      ("[] p & [] q", "[] (p & q)");
      ("[] p | [] q", "[] (H p | H q)");
      ("<> p & <> q", "<> (O p & O q)");
      ("p -> [] q", "[] (O (p & first) -> q)");
      ("p -> <> q", "<> (O (first & p) -> q)");
      ("[] (p -> <> q)", "[]<> ((!p) B q)");
      ("[]<> p & []<> q", "[]<> (q & Y ((!q) S p))");
      ("<>[] p | <>[] q", "<>[] (q | Y (p S (p & !q)))");
      ("[] (p -> <>[] q)", "<>[] (O p -> q)");
      ("[] p", "[]<> (H p)");
      ("<> p", "<>[] (O p)");
      ("[]<> r -> []<> p", "[]<> p | <>[] !r");
    ]
  in
  let ok = ref 0 in
  List.iter
    (fun (a, b) ->
      let yes =
        Logic.Tableau.equiv pqr (Logic.Parser.parse a) (Logic.Parser.parse b)
      in
      if yes then incr ok;
      Format.printf "  %-24s ~ %-32s %s@." a b (if yes then "ok" else "FAIL"))
    pairs;
  Format.printf "%d/%d verified@." !ok (List.length pairs)

(* ------------------------------------------------------------------ *)
(* E10: the responsiveness ladder                                       *)
(* ------------------------------------------------------------------ *)

let ladder () =
  header "E10 — the responsiveness ladder (section 4 summary)";
  List.iter
    (fun s ->
      match Hierarchy.Property.analyze_string pq s with
      | Some r ->
          Format.printf "  %-28s -> %-18s (Borel %s)@." s
            (Kappa.name r.semantic)
            (Kappa.borel_name r.semantic)
      | None -> Format.printf "  %-28s -> (not translatable)@." s)
    [
      "p -> <> q";
      "<> p -> <> (q & O p)";
      "[] (p -> <> q)";
      "p -> <>[] q";
      "[]<> p -> []<> q";
    ]

(* ------------------------------------------------------------------ *)
(* E12: decision procedures (section 5.1)                               *)
(* ------------------------------------------------------------------ *)

let staircase k =
  let alpha =
    Finitary.Alphabet.of_names (List.init ((2 * k) + 1) (Printf.sprintf "l%d"))
  in
  let n = (2 * k) + 1 in
  let delta = Array.init n (fun _ -> Array.init n Fun.id) in
  let rec acc_for hi =
    if hi < 0 then Acceptance.False
    else
      let top = Iset.singleton hi in
      if hi mod 2 = 0 then Acceptance.Or [ Acceptance.Inf top; acc_for (hi - 1) ]
      else Acceptance.And [ Acceptance.Fin top; acc_for (hi - 1) ]
  in
  Automaton.make ~alpha ~n ~start:0 ~delta ~acc:(acc_for (n - 1))

let decisions () =
  header "E12 — deciding the class of a given automaton (section 5.1)";
  let a4 = Finitary.Alphabet.of_props [ "p"; "q"; "r"; "s" ] in
  let cases =
    [
      ("A(a^+ b*)", Build.a_re ab "a^+ b*");
      ("E(.* b a)", Build.e_re ab ".* b a");
      ("R(.* b)", Build.r_re ab ".* b");
      ("P(.* b)", Build.p_re ab ".* b");
      ("[](p -> <>q)", fm "[] (p -> <> q)");
      ("[]p & <>q", fm "[] p & <> q");
      ("2-pair reactivity",
       Of_formula.of_string a4 "([]<> p | <>[] q) & ([]<> r | <>[] s)");
      ("Wagner staircase k=3", staircase 3);
      ("b at an even position", Build.e_re ab "(. .)* b");
    ]
  in
  Format.printf "%-26s %-18s %5s %9s %8s@." "automaton" "class" "rank"
    "obl.deg" "ctr-free";
  List.iter
    (fun (name, a) ->
      Format.printf "%-26s %-18s %5d %9s %8b@." name
        (Kappa.name (Classify.classify a))
        (Classify.reactivity_rank a)
        (match Classify.obligation_degree a with
        | Some d -> string_of_int d
        | None -> "-")
        (Counter_free.is_counter_free a))
    cases

(* ------------------------------------------------------------------ *)
(* E14: verification of reactive programs                               *)
(* ------------------------------------------------------------------ *)

let programs () =
  header "E14 — mutual exclusion and fairness over real programs";
  let verdict sys s =
    match Fts.Check.holds_s sys s with
    | Fts.Check.Holds -> "holds"
    | Fts.Check.Fails _ -> "FAILS"
  in
  let pet = Fts.Models.peterson () in
  Format.printf "  Peterson (%d states):@." (Fts.System.n_reachable pet);
  List.iter
    (fun s -> Format.printf "    %-34s %s@." s (verdict pet s))
    [ "[] !(pc1=2 & pc2=2)"; "[] (pc1=1 -> <> pc1=2)"; "[] (pc1=2 -> O pc1=1)" ];
  let naive = Fts.Models.mutex_do_nothing () in
  Format.printf "  Do-nothing protocol:@.";
  List.iter
    (fun s -> Format.printf "    %-34s %s@." s (verdict naive s))
    [ "[] !(pc1=2 & pc2=2)"; "[] (pc1=1 -> <> pc1=2)" ];
  Format.printf "  Allocator:@.";
  Format.printf "    %-34s %s@." "weak fairness: accessibility"
    (verdict (Fts.Models.allocator ~strong:false ()) "[] (c1=1 -> <> c1=2)");
  Format.printf "    %-34s %s@." "strong fairness: accessibility"
    (verdict (Fts.Models.allocator ~strong:true ()) "[] (c1=1 -> <> c1=2)")

(* ------------------------------------------------------------------ *)
(* Bechamel timing benches                                              *)
(* ------------------------------------------------------------------ *)

(* Seed-tree timings (ns/run, same machine, same bench) recorded before
   the shared graph kernel landed, so --json can report before/after. *)
let seed_baseline =
  [
    ("classify: response formula automaton", 12282.1);
    ("classify: staircase k=2", 89970.0);
    ("classify: staircase k=4", 946446.8);
    ("translate: [](p -> <>q) to automaton", 14947.1);
    ("tableau: satisfiability of response", 23450.3);
    ("minex product", 2771.6);
    ("omega product + emptiness", 2128.7);
    ("language equality (safety closure check)", 4468.8);
    ("lasso semantics of response", 855.8);
    ("model check Peterson accessibility", 180428.1);
    ("counter-freedom of R(.* b)", 1258.0);
  ]

(* PR-1 tree timings (ns/run, same machine, same bench) recorded
   immediately before the budget threading landed; --json writes the
   comparison to BENCH_budget.json so the unlimited-budget tick's
   overhead on the hot loops is visible (target: ratio <= 1.05). *)
let pr1_baseline =
  [
    ("classify: response formula automaton", 5315.3);
    ("classify: staircase k=2", 35549.0);
    ("classify: staircase k=4", 406797.9);
    ("counter-freedom of R(.* b)", 1369.2);
    ("language equality (safety closure check)", 1764.7);
    ("lasso semantics of response", 837.9);
    ("minex product", 2695.4);
    ("model check Peterson accessibility", 110998.9);
    ("omega product + emptiness", 2336.8);
    ("tableau: satisfiability of response", 23701.8);
    ("translate: [](p -> <>q) to automaton", 15299.3);
  ]

(* PR-2 tree timings (ns/run, same machine, same bench) recorded
   immediately before the telemetry hooks were threaded through the same
   loops; --json writes the comparison to BENCH_obs.json.  The disabled
   handle must cost a load and a branch, so the target is the same as
   the budget tick's: geomean ratio over the classification benches
   <= 1.02 (enforced by --check-overhead). *)
let pr2_baseline =
  [
    ("classify: response formula automaton", 5152.2);
    ("classify: staircase k=2", 36469.3);
    ("classify: staircase k=4", 447230.2);
    ("counter-freedom of R(.* b)", 1453.5);
    ("language equality (safety closure check)", 1741.3);
    ("lasso semantics of response", 833.4);
    ("minex product", 2916.1);
    ("model check Peterson accessibility", 116811.5);
    ("omega product + emptiness", 2188.5);
    ("tableau: satisfiability of response", 24786.6);
    ("translate: [](p -> <>q) to automaton", 15271.9);
  ]

(* PR-4 tree timings (ns/run, same machine, same bench) recorded
   immediately before the domain pool landed; --parallel-json writes
   the comparison to BENCH_parallel.json. *)
let pr4_baseline =
  [
    ("classify: response formula automaton", 5246.6);
    ("classify: staircase k=2", 35912.7);
    ("classify: staircase k=4", 433418.2);
    ("counter-freedom of R(.* b)", 1423.6);
    ("language equality (safety closure check)", 1613.3);
    ("lasso semantics of response", 865.9);
    ("minex product", 3240.9);
    ("model check Peterson accessibility", 115030.5);
    ("omega product + emptiness", 2277.0);
    ("tableau: satisfiability of response", 23927.0);
    ("translate: [](p -> <>q) to automaton", 15117.5);
  ]

(* Re-pinned micro baseline (ns/run), measured at the PR-9 tree on the
   current CI runner immediately before the concurrent interning layer
   landed.  The PR-4 numbers above were recorded on a different (faster,
   multi-core) machine; by PR-9 every micro bench — including benches no
   PR since 4 touched — sat at a uniform 1.1-1.3x of them, which is
   machine drift, not a code regression (DESIGN.md, "Micro-benchmark
   re-pin").  The micro section of BENCH_parallel.json reports ratios
   against this pin; the PR-4 column is kept for history. *)
let pr9_repin =
  [
    ("classify: response formula automaton", 6716.9);
    ("classify: staircase k=2", 47064.6);
    ("classify: staircase k=4", 508331.5);
    ("counter-freedom of R(.* b)", 1980.2);
    ("language equality (safety closure check)", 1994.9);
    ("lasso semantics of response", 1076.7);
    ("minex product", 3201.6);
    ("model check Peterson accessibility", 152466.2);
    ("omega product + emptiness", 3158.0);
    ("tableau: satisfiability of response", 28519.0);
    ("translate: [](p -> <>q) to automaton", 17978.0);
  ]

let run_benches () =
  let open Bechamel in
  let open Toolkit in
  let resp = fm "[] (p -> <> q)" in
  let lasso =
    let l n = Finitary.Alphabet.letter_of_name pq n in
    Finitary.Word.lasso ~prefix:[| l "{p}" |] ~cycle:[| l "{q}"; l "{}" |]
  in
  let phi1 = Finitary.Regex.compile ab ".* b"
  and phi2 = Finitary.Regex.compile ab ".* a" in
  let pet = Fts.Models.peterson () in
  let respf = Logic.Parser.parse "[] (p -> <> q)" in
  let tests =
    [
      Test.make ~name:"classify: response formula automaton"
        (Staged.stage (fun () -> Classify.classify resp));
      Test.make ~name:"classify: staircase k=2"
        (Staged.stage (fun () -> Classify.classify (staircase 2)));
      Test.make ~name:"classify: staircase k=4"
        (Staged.stage (fun () -> Classify.classify (staircase 4)));
      Test.make ~name:"translate: [](p -> <>q) to automaton"
        (Staged.stage (fun () -> Of_formula.translate pq respf));
      Test.make ~name:"tableau: satisfiability of response"
        (Staged.stage (fun () -> Logic.Tableau.satisfiable pq respf));
      Test.make ~name:"minex product"
        (Staged.stage (fun () -> Finitary.Lang_ops.minex phi1 phi2));
      Test.make ~name:"omega product + emptiness"
        (Staged.stage (fun () ->
             Lang.nonempty (Automaton.inter (Build.r phi1) (Build.r phi2))));
      Test.make ~name:"language equality (safety closure check)"
        (Staged.stage (fun () -> Classify.is_safety resp));
      Test.make ~name:"lasso semantics of response"
        (Staged.stage (fun () -> Logic.Semantics.holds pq respf lasso));
      Test.make ~name:"model check Peterson accessibility"
        (Staged.stage (fun () ->
             Fts.Check.holds_s pet "[] (pc1=1 -> <> pc1=2)"));
      Test.make ~name:"counter-freedom of R(.* b)"
        (Staged.stage (fun () ->
             Counter_free.is_counter_free (Build.r phi1)));
    ]
  in
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.5) () in
  let instances = Instance.[ monotonic_clock ] in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let grouped = Test.make_grouped ~name:"hierarchy" tests in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let short =
        match String.index_opt name '/' with
        | Some i -> String.sub name (i + 1) (String.length name - i - 1)
        | None -> name
      in
      let estimate =
        match Analyze.OLS.estimates ols_result with
        | Some [ e ] -> Some e
        | Some _ | None -> None
      in
      rows := (short, estimate) :: !rows)
    results;
  List.sort compare !rows

let benches () =
  header "Timing benches (Bechamel; ns per run, OLS estimate)";
  List.iter
    (fun (name, est) ->
      Format.printf "  %-52s %s@." name
        (match est with
        | Some e -> Printf.sprintf "%12.1f ns/run" e
        | None -> "(no estimate)"))
    (run_benches ())

(* ------------------------------------------------------------------ *)
(* --json: machine-readable before/after baseline                      *)
(* ------------------------------------------------------------------ *)

(* A 10k-state single-SCC sweep: sizes the recursive SCC passes and
   quadratic language products could not reach, so the seed has no
   baseline (null).  Timed wall-clock over a few runs (the runs are far
   above clock resolution). *)
let large_sweep () =
  let n = 10_000 in
  let delta = Array.init n (fun q -> [| (q + 1) mod n; q |]) in
  let mk () =
    Automaton.make ~alpha:ab ~n ~start:0 ~delta
      ~acc:(Acceptance.Inf (Iset.singleton 0))
  in
  let time_ns f =
    let reps = 3 in
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Sys.time () in
      f ();
      let dt = (Sys.time () -. t0) *. 1e9 in
      if dt < !best then best := dt
    done;
    !best
  in
  [
    ( "sweep: classify 10k-state single-SCC automaton",
      time_ns (fun () -> ignore (Classify.classify (mk ()))) );
    ( "sweep: safety-closure equality at 10k states",
      time_ns (fun () -> ignore (Classify.is_safety (mk ()))) );
    ( "sweep: sccs of the 10k-state graph",
      let a = mk () in
      time_ns (fun () -> ignore (Automaton.sccs a)) );
  ]

(* One instrumented pass over the classification workloads: the
   per-phase span totals and counter values BENCH_obs.json reports next
   to the overhead ratios.  The automata are built outside the ambient
   window so the breakdown covers classification only. *)
let observability_breakdown () =
  let telemetry = Telemetry.collector () in
  let inputs = [ fm "[] (p -> <> q)"; staircase 2; staircase 4 ] in
  Telemetry.with_ambient telemetry (fun () ->
      List.iter
        (fun a -> ignore (Classify.classify_budgeted ~telemetry a))
        inputs);
  Telemetry.report telemetry

(* Syntactic class inference (Logic.Shape.infer, the lint fast path)
   against full semantic classification (translate + classify) over a
   family of specification-shaped formulas.  The static pass is the
   whole point of `hpt lint --syntactic-only`, so BENCH_lint.json
   records the per-formula ratio; CI requires the geomean speedup to
   stay >= 10x. *)
let lint_family =
  [
    "[] !(p & q)";
    "p W !q";
    "[] (p -> O q)";
    "[] (p -> <> q)";
    "[]<> p -> []<> q";
    "<>[] p | []<> q";
    "([]<> p | <>[] q) & ([]<> q | <>[] p)";
    "[] (p -> <> (q & O p))";
  ]

let lint_speed () =
  let time_ns reps f =
    let best = ref infinity in
    for _ = 1 to 5 do
      let t0 = Sys.time () in
      for _ = 1 to reps do
        f ()
      done;
      let dt = (Sys.time () -. t0) *. 1e9 /. float_of_int reps in
      if dt < !best then best := dt
    done;
    !best
  in
  List.map
    (fun s ->
      let form = Logic.Parser.parse s in
      let syn = time_ns 200 (fun () -> ignore (Logic.Shape.infer form)) in
      let sem = time_ns 3 (fun () -> ignore (Of_formula.classify pq form)) in
      (s, syn, sem))
    lint_family

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_mode ~check_overhead () =
  let rows = run_benches () in
  let sweep = large_sweep () in
  let oc = open_out "BENCH_kernel.json" in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"unit\": \"ns/run\",\n";
  p "  \"seed\": \"pre-kernel tree (recursive SCCs, Set.Make(Int), no memoized successors)\",\n";
  p "  \"benches\": [\n";
  let entries =
    List.map
      (fun (name, est) ->
        let seed = List.assoc_opt name seed_baseline in
        (name, seed, est))
      rows
    @ List.map (fun (name, ns) -> (name, None, Some ns)) sweep
  in
  let num = function
    | Some v -> Printf.sprintf "%.1f" v
    | None -> "null"
  in
  List.iteri
    (fun i (name, seed, est) ->
      let speedup =
        match (seed, est) with
        | Some s, Some e when e > 0. -> Printf.sprintf "%.2f" (s /. e)
        | _ -> "null"
      in
      p "    {\"name\": \"%s\", \"seed_ns\": %s, \"ns\": %s, \"speedup\": %s}%s\n"
        (json_escape name) (num seed) (num est) speedup
        (if i < List.length entries - 1 then "," else ""))
    entries;
  p "  ]\n";
  p "}\n";
  close_out oc;
  Format.printf "@.wrote BENCH_kernel.json (%d entries)@." (List.length entries);
  (* budget-overhead report: current timings vs the PR-1 tree *)
  let oc = open_out "BENCH_budget.json" in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"unit\": \"ns/run\",\n";
  p "  \"baseline\": \"PR-1 tree, before Budget.tick was threaded through the hot loops\",\n";
  p "  \"note\": \"ratio = ns / pr1_ns; the unlimited-budget fast path should keep every ratio within noise of 1.0\",\n";
  p "  \"benches\": [\n";
  let budget_entries =
    List.filter_map
      (fun (name, est) ->
        Option.map (fun pr1 -> (name, pr1, est)) (List.assoc_opt name pr1_baseline))
      rows
  in
  List.iteri
    (fun i (name, pr1, est) ->
      let ratio =
        match est with
        | Some e when pr1 > 0. -> Printf.sprintf "%.3f" (e /. pr1)
        | _ -> "null"
      in
      p "    {\"name\": \"%s\", \"pr1_ns\": %.1f, \"ns\": %s, \"ratio\": %s}%s\n"
        (json_escape name) pr1 (num est) ratio
        (if i < List.length budget_entries - 1 then "," else ""))
    budget_entries;
  p "  ]\n";
  p "}\n";
  close_out oc;
  Format.printf "wrote BENCH_budget.json (%d entries)@."
    (List.length budget_entries);
  (* telemetry-overhead report: disabled-handle timings vs the PR-2
     tree, plus the per-phase breakdown of one instrumented
     classification pass *)
  let breakdown = observability_breakdown () in
  let oc = open_out "BENCH_obs.json" in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"unit\": \"ns/run\",\n";
  p "  \"baseline\": \"PR-2 tree, before the telemetry hooks were threaded through the hot loops\",\n";
  p "  \"note\": \"ratio = ns / pr2_ns, measured with telemetry disabled; --check-overhead fails when the geomean ratio over the classify benches exceeds 1.02\",\n";
  p "  \"benches\": [\n";
  let obs_entries =
    List.filter_map
      (fun (name, est) ->
        Option.map
          (fun pr2 -> (name, pr2, est))
          (List.assoc_opt name pr2_baseline))
      rows
  in
  List.iteri
    (fun i (name, pr2, est) ->
      let ratio =
        match est with
        | Some e when pr2 > 0. -> Printf.sprintf "%.3f" (e /. pr2)
        | _ -> "null"
      in
      p "    {\"name\": \"%s\", \"pr2_ns\": %.1f, \"ns\": %s, \"ratio\": %s}%s\n"
        (json_escape name) pr2 (num est) ratio
        (if i < List.length obs_entries - 1 then "," else ""))
    obs_entries;
  p "  ],\n";
  let phases = Telemetry.span_totals breakdown in
  p "  \"phases\": [\n";
  List.iteri
    (fun i (name, ns) ->
      p "    {\"name\": \"%s\", \"total_ns\": %.0f}%s\n" (json_escape name) ns
        (if i < List.length phases - 1 then "," else ""))
    phases;
  p "  ],\n";
  let counters = breakdown.Telemetry.counters in
  p "  \"counters\": [\n";
  List.iteri
    (fun i (name, v) ->
      p "    {\"name\": \"%s\", \"value\": %d}%s\n" (json_escape name) v
        (if i < List.length counters - 1 then "," else ""))
    counters;
  p "  ]\n";
  p "}\n";
  close_out oc;
  Format.printf "wrote BENCH_obs.json (%d entries, %d phases, %d counters)@."
    (List.length obs_entries) (List.length phases) (List.length counters);
  let classify_ratios =
    List.filter_map
      (fun (name, pr2, est) ->
        match est with
        | Some e when String.starts_with ~prefix:"classify:" name && pr2 > 0. ->
            Some (e /. pr2)
        | _ -> None)
      obs_entries
  in
  let geomean =
    match classify_ratios with
    | [] -> 1.0
    | rs ->
        exp
          (List.fold_left (fun acc r -> acc +. log r) 0. rs
          /. float_of_int (List.length rs))
  in
  Format.printf "telemetry overhead, geomean over classify benches: %.3f@."
    geomean;
  (* lint fast-path report: syntactic inference vs semantic
     classification on the specification family *)
  let lint_rows =
    (* every formula in the family must translate, so the semantic
       side does real work; sub-resolution timings are dropped *)
    List.filter (fun (_, syn, sem) -> syn > 0. && sem > 0.) (lint_speed ())
  in
  let lint_geomean =
    exp
      (List.fold_left (fun acc (_, syn, sem) -> acc +. log (sem /. syn)) 0.
         lint_rows
      /. float_of_int (max 1 (List.length lint_rows)))
  in
  let oc = open_out "BENCH_lint.json" in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"unit\": \"ns/run\",\n";
  p "  \"note\": \"syntactic = Logic.Shape.infer (the hpt lint \
     --syntactic-only path); semantic = Omega.Of_formula.classify \
     (translate to an automaton, then classify); CI requires \
     geomean_speedup >= 10\",\n";
  p "  \"benches\": [\n";
  List.iteri
    (fun i (name, syn, sem) ->
      p
        "    {\"name\": \"%s\", \"syntactic_ns\": %.1f, \"semantic_ns\": \
         %.1f, \"speedup\": %.1f}%s\n"
        (json_escape name) syn sem (sem /. syn)
        (if i < List.length lint_rows - 1 then "," else ""))
    lint_rows;
  p "  ],\n";
  p "  \"geomean_speedup\": %.1f\n" lint_geomean;
  p "}\n";
  close_out oc;
  Format.printf
    "wrote BENCH_lint.json (%d entries, geomean speedup %.1fx)@."
    (List.length lint_rows) lint_geomean;
  if check_overhead && geomean > 1.02 then begin
    Format.printf
      "OVERHEAD REGRESSION: disabled-telemetry geomean %.3f > 1.02@." geomean;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* --parallel-json: the domain pool, sequential vs jobs = 1, 2, 4      *)
(* ------------------------------------------------------------------ *)

(* Wall-clock (not [Sys.time], which sums CPU across domains), best of
   a few runs. *)
let wall_ns ?(reps = 3) f =
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    f ();
    let dt = (Unix.gettimeofday () -. t0) *. 1e9 in
    if dt < !best then best := dt
  done;
  !best

(* Closure workload for the parallel sweep: a strongly-connected
   30k-state graph with an 8-way [Or] of [Fin]/[Inf] pairs.  Its safety
   closure is one sequential Emerson-Lei collection (the per-conjunct
   fan-out it was built for is gone), kept as a sequential timing. *)
let closure_conjuncts_automaton n conj =
  let delta = Array.init n (fun q -> [| (q + 1) mod n; (q + 7) mod n |]) in
  let slice r =
    Iset.of_list (List.filter (fun q -> q mod conj = r) (List.init n Fun.id))
  in
  let acc =
    Acceptance.Or
      (List.init conj (fun r ->
           Acceptance.And
             [
               Acceptance.Fin (slice r);
               Acceptance.Inf (slice ((r + 1) mod conj));
             ]))
  in
  Automaton.make ~alpha:ab ~n ~start:0 ~delta ~acc

let parallel_json () =
  let cores = Domain.recommended_domain_count () in
  let n = 10_000 in
  let delta = Array.init n (fun q -> [| (q + 1) mod n; q |]) in
  let mk () =
    Automaton.make ~alpha:ab ~n ~start:0 ~delta
      ~acc:(Acceptance.Inf (Iset.singleton 0))
  in
  (* One large inclusion query: a lazy product of ~10^6 pairs, searched
     on the fly in one sequential DFS; kept as a sequential timing. *)
  let abcd = Finitary.Alphabet.of_chars "abcd" in
  let na = 1000 and nb = 999 in
  let mk_incl_a () =
    Automaton.make ~alpha:abcd ~n:na ~start:0
      ~delta:
        (Array.init na (fun q ->
             [| (q + 1) mod na; q; (q + 3) mod na; (q + 5) mod na |]))
      ~acc:(Acceptance.Inf (Iset.singleton 0))
  in
  let mk_incl_b () =
    Automaton.make ~alpha:abcd ~n:nb ~start:0
      ~delta:
        (Array.init nb (fun q ->
             [| (q + 1) mod nb; (q + 2) mod nb; q; (q + 7) mod nb |]))
      ~acc:
        (Acceptance.And
           [
             Acceptance.Inf (Iset.singleton 0);
             Acceptance.Inf (Iset.singleton 1);
           ])
  in
  (* Reps are interleaved round-robin — rep k of every variant before
     rep k+1 of any — so slow drift (GC heap growth, machine load)
     biases all variants equally and the overhead gates compare minima
     sampled under the same conditions.  The arm that goes first
     rotates from rep to rep: the first run of a rep pays for whatever
     the previous rep left behind (a larger heap, a cold cache), and
     always timing the no-pool arm first showed sequential code a
     "1.37x" jobs=2 speedup.  Reps come in multiples of the four arms,
     so each arm leads equally often.  Each pool lives only around its
     own timed slice: idle worker domains are not free (every minor
     collection is a stop-the-world barrier across all live domains),
     so the sequential baseline must run with none. *)
  let measure ?(reps = 4) (name, wf) =
    let best = Array.make 4 infinity in
    let time i f =
      let t0 = Unix.gettimeofday () in
      f ();
      let dt = (Unix.gettimeofday () -. t0) *. 1e9 in
      if dt < best.(i) then best.(i) <- dt
    in
    let arm = function
      | 0 -> time 0 (wf None)
      | i ->
          let jobs = [| 1; 2; 4 |].(i - 1) in
          Pool.with_pool ~jobs (fun p -> time i (wf (Some p)))
    in
    for rep = 0 to reps - 1 do
      for k = 0 to 3 do
        arm ((rep + k) mod 4)
      done
    done;
    (name, best.(0), best.(1), best.(2), best.(3))
  in
  (* Code that takes no pool runs the same in every arm, so a jobs
     column would time noise: these are the best of [reps] plain runs. *)
  let time_seq ?(reps = 4) (name, f) =
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      f ();
      best := Float.min !best ((Unix.gettimeofday () -. t0) *. 1e9)
    done;
    (name, !best)
  in
  let sweep_t =
    time_seq
      ( "sweep: classify 10k-state single-SCC automaton",
        fun () -> ignore (Classify.classify (mk ())) )
  in
  let incl_t =
    time_seq
      ( "inclusion: 1000x999-state lazy product",
        fun () -> ignore (Inclusion.included (mk_incl_a ()) (mk_incl_b ())) )
  in
  let closure_t =
    time_seq
      ( "closure: 30k-state 8-conjunct safety closure",
        fun () ->
          ignore (Lang.safety_closure (closure_conjuncts_automaton 30_000 8)) )
  in
  (* The tiny gate asserts a 0.4% bound on a one-item batch, which
     takes the pool's inline fast path, so both arms run the same code.
     Many short samples beat few long ones here: on 2 shared vCPUs the
     best of 12 samples of 500 calls read the jobs=1 overhead anywhere
     in 0.88-1.15 over seven runs, the best of 160 samples of 25 calls
     in 0.95-1.04 over eight; neither holds the bound on that machine. *)
  let tiny_m =
    measure ~reps:160
      ( "tiny: one-item classify_batch of the response formula x25",
        fun pool () ->
          for _ = 1 to 25 do
            ignore (Hierarchy.Engine.classify_batch ?pool [ "[] (p -> <> q)" ])
          done )
  in
  (* each is ONE input with no batch to slice, and every one runs
     sequentially (the per-SCC, inclusion and closure fan-outs are all
     gone) *)
  let sequential = [ sweep_t; incl_t; closure_t ] in
  let micro = run_benches () in
  (* a jobs=4 sweep on fewer than 4 cores measures oversubscription,
     not speedup, so every section carries the core count it ran on
     and an explicit ungated marker when the speedup gates cannot
     apply — CI refuses to gate (and says so) instead of reading
     meaningless numbers *)
  let ungated = cores < 4 in
  let oc = open_out "BENCH_parallel.json" in
  let p fmt = Printf.fprintf oc fmt in
  let row i len (name, seq, j1, j2, j4) =
    p
      "      {\"name\": \"%s\", \"seq_ns\": %.0f, \"jobs1_ns\": %.0f, \
       \"jobs2_ns\": %.0f, \"jobs4_ns\": %.0f, \"overhead_jobs1\": %.3f, \
       \"speedup_jobs2\": %.2f, \"speedup_jobs4\": %.2f}%s\n"
      (json_escape name) seq j1 j2 j4 (j1 /. seq) (seq /. j2) (seq /. j4)
      (if i < len - 1 then "," else "")
  in
  let section name rows =
    p "  \"%s\": {\n" name;
    p "    \"cores\": %d,\n" cores;
    p "    \"ungated\": %b,\n" ungated;
    p "    \"rows\": [\n";
    List.iteri (fun i r -> row i (List.length rows) r) rows;
    p "    ]\n";
    p "  },\n"
  in
  p "{\n";
  p "  \"unit\": \"ns/run\",\n";
  p "  \"cores\": %d,\n" cores;
  p "  \"baseline\": \"PR-4 tree, before the domain pool landed; micro \
     ratios vs the PR-9 re-pin (see DESIGN.md)\",\n";
  p "  \"note\": \"gate (skipped, and the section marked ungated, below \
     4 cores): overhead_jobs1 <= 1.004 on the tiny workload (inline fast \
     path); only classify batches fan out, and the sequential rows take \
     no pool, so they are one timing each with no jobs columns and no \
     gate; micro ratio vs repin_ns within noise of 1.0 (the pool is off \
     on the micro benches)\",\n";
  section "tiny" [ tiny_m ];
  p "  \"sequential\": {\n";
  p "    \"cores\": %d,\n" cores;
  p "    \"rows\": [\n";
  List.iteri
    (fun i (name, seq) ->
      p "      {\"name\": \"%s\", \"seq_ns\": %.0f}%s\n" (json_escape name) seq
        (if i < List.length sequential - 1 then "," else ""))
    sequential;
  p "    ]\n";
  p "  },\n";
  let micro_entries =
    List.filter_map
      (fun (name, est) ->
        match
          (List.assoc_opt name pr4_baseline, List.assoc_opt name pr9_repin, est)
        with
        | Some pr4, Some repin, Some e -> Some (name, pr4, repin, e)
        | _ -> None)
      micro
  in
  p "  \"micro\": {\n";
  p "    \"cores\": %d,\n" cores;
  p "    \"rows\": [\n";
  List.iteri
    (fun i (name, pr4, repin, e) ->
      p
        "      {\"name\": \"%s\", \"pr4_ns\": %.1f, \"repin_ns\": %.1f, \
         \"ns\": %.1f, \"ratio\": %.3f, \"ratio_pr4\": %.3f}%s\n"
        (json_escape name) pr4 repin e (e /. repin) (e /. pr4)
        (if i < List.length micro_entries - 1 then "," else ""))
    micro_entries;
  p "    ]\n";
  p "  }\n";
  p "}\n";
  close_out oc;
  Format.printf "@.wrote BENCH_parallel.json (cores=%d%s)@." cores
    (if ungated then ", UNGATED: fewer than 4 cores" else "");
  List.iter
    (fun (name, seq, j1, j2, j4) ->
      Format.printf
        "  %-52s seq %8.1fms  j1 %8.1fms (x%.3f)  j2 %8.1fms (%.2fx)  j4 \
         %8.1fms (%.2fx)@."
        name (seq /. 1e6) (j1 /. 1e6) (j1 /. seq) (j2 /. 1e6) (seq /. j2)
        (j4 /. 1e6) (seq /. j4))
    [ tiny_m ];
  List.iter
    (fun (name, seq) -> Format.printf "  %-52s seq %8.1fms@." name (seq /. 1e6))
    sequential

(* ------------------------------------------------------------------ *)
(* --inclusion-json: explicit vs antichain language inclusion          *)
(* ------------------------------------------------------------------ *)

(* Same query, both engines, wall-clock best-of-3.  The automata are
   rebuilt inside every timed thunk, so construction cost and the
   per-automaton successors memo are charged identically to both
   engines and no run warms the next.  [`Antichain_only] marks
   workloads whose explicit product cannot be materialized at all
   (rebuilt 10k-state twins: a 10^8-state table) — the new capability
   the engine buys, reported with [explicit_ns: null] and excluded
   from the gated geomean. *)
let inclusion_workloads () =
  (* the 10k sweep's shape: a +1-cycle on 'a', self-loop on 'b' *)
  let mk_cycle n () =
    let delta = Array.init n (fun q -> [| (q + 1) mod n; q |]) in
    Automaton.make ~alpha:ab ~n ~start:0 ~delta
      ~acc:(Acceptance.Inf (Iset.singleton 0))
  in
  (* lint-matrix shape: a +1-cycle on 'a', 'b' resets to the start —
     every pair of requirements tracks one shared counter, so the
     reachable product is the lcm cycle, not the full square *)
  let mk_reset n () =
    let delta = Array.init n (fun q -> [| (q + 1) mod n; 0 |]) in
    Automaton.make ~alpha:ab ~n ~start:0 ~delta
      ~acc:(Acceptance.Inf (Iset.singleton 0))
  in
  let matrix_sizes = List.init 12 (fun i -> 60 + (24 * i)) in
  [
    ( "sweep: 10k-state sweep included in a 24-state property",
      `Both,
      fun () -> ignore (Lang.included (mk_cycle 10_000 ()) (mk_cycle 24 ())) );
    ( "sweep: equality of rebuilt 1200-state twins",
      `Both,
      fun () -> ignore (Lang.equal (mk_cycle 1_200 ()) (mk_cycle 1_200 ())) );
    ( "sweep: equality of rebuilt 10k-state twins",
      `Antichain_only,
      fun () -> ignore (Lang.equal (mk_cycle 10_000 ()) (mk_cycle 10_000 ())) );
    ( "matrix: pairwise inclusion over 12 cyclic requirements",
      `Both,
      fun () ->
        let autos = List.map (fun n -> mk_reset n ()) matrix_sizes in
        let pairs =
          List.concat_map
            (fun x ->
              List.filter_map
                (fun y -> if x == y then None else Some (x, y))
                autos)
            autos
        in
        ignore (List.map (fun (a, b) -> Lang.included a b) pairs) );
  ]

let inclusion_json () =
  let cores = Domain.recommended_domain_count () in
  let timed engine f = Lang.with_engine engine (fun () -> wall_ns f) in
  let measured =
    List.map
      (fun (name, mode, f) ->
        let antichain_ns = timed `Antichain f in
        let explicit_ns =
          match mode with
          | `Both -> Some (timed `Explicit f)
          | `Antichain_only -> None
        in
        (name, explicit_ns, antichain_ns))
      (inclusion_workloads ())
  in
  let speedups =
    List.filter_map
      (fun (_, ex, anti) ->
        match ex with Some e when anti > 0. -> Some (e /. anti) | _ -> None)
      measured
  in
  let geomean =
    exp
      (List.fold_left (fun acc r -> acc +. log r) 0. speedups
      /. float_of_int (max 1 (List.length speedups)))
  in
  let oc = open_out "BENCH_inclusion.json" in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"unit\": \"ns/run\",\n";
  p "  \"cores\": %d,\n" cores;
  p "  \"engine_default\": \"antichain\",\n";
  p "  \"note\": \"explicit = complement-and-product oracle \
     (Lang.with_engine `Explicit); antichain = on-the-fly Omega.Inclusion; \
     explicit_ns null marks workloads whose explicit product cannot be \
     materialized (rebuilt 10k twins: a 10^8-state table), excluded from \
     the geomean; CI requires geomean_speedup >= 5\",\n";
  p "  \"benches\": [\n";
  List.iteri
    (fun i (name, ex, anti) ->
      let num = function Some v -> Printf.sprintf "%.0f" v | None -> "null" in
      let speedup =
        match ex with
        | Some e when anti > 0. -> Printf.sprintf "%.2f" (e /. anti)
        | _ -> "null"
      in
      p
        "    {\"name\": \"%s\", \"explicit_ns\": %s, \"antichain_ns\": %.0f, \
         \"speedup\": %s}%s\n"
        (json_escape name) (num ex) anti speedup
        (if i < List.length measured - 1 then "," else ""))
    measured;
  p "  ],\n";
  p "  \"geomean_speedup\": %.2f\n" geomean;
  p "}\n";
  close_out oc;
  Format.printf "@.wrote BENCH_inclusion.json (cores=%d)@." cores;
  List.iter
    (fun (name, ex, anti) ->
      Format.printf "  %-52s explicit %10s  antichain %8.2fms  %s@." name
        (match ex with
        | Some e -> Printf.sprintf "%8.2fms" (e /. 1e6)
        | None -> "(infeasible)")
        (anti /. 1e6)
        (match ex with
        | Some e -> Printf.sprintf "(%.1fx)" (e /. anti)
        | None -> ""))
    measured;
  Format.printf "geomean speedup (explicit-feasible workloads): %.2fx@."
    geomean

(* ------------------------------------------------------------------ *)
(* --analyze-json: static analysis vs full model checking              *)
(* ------------------------------------------------------------------ *)

(* The broken-example corpus (same systems as examples/specs/, built
   in-process so the bench has no working-directory dependency) plus a
   201-state counter, large enough that the edge-split product graphs
   behind [Fts.Check] do real work.  The gate: the structural pass
   (M301-M304, no spec) must beat checking every requirement by a wide
   margin — it is the cheap first look [hpt analyze] exists for. *)
let analyze_corpus =
  let counter =
    String.concat "\n"
      [
        "var x 0..200";
        "init x=0";
        "trans inc:   !(x=200) -> x:=x+1";
        "trans reset: x=200    -> x:=0";
        "fair weak inc";
      ]
  in
  [
    ( "vacuous-fairness allocator (1 state)",
      Fts.Models.vacuous_fairness (),
      [ ("accessibility", "[] (c=1 -> <> c=2)") ] );
    ( "mutex with dead entry guard (6 states)",
      fst
        (Fts.Parse.parse
           (String.concat "\n"
              [
                "var pc1 0..2";
                "var pc2 0..2";
                "var lock 0..1";
                "init pc1=0, pc2=0, lock=0";
                "trans try1:   pc1=0          -> pc1:=1";
                "trans enter1: pc1=1 & lock=0 -> pc1:=2, lock:=1";
                "trans exit1:  pc1=2          -> pc1:=0, lock:=0";
                "trans try2:   pc2=0          -> pc2:=1";
                "trans enter2: pc2=2 & lock=0 -> pc2:=2, lock:=1";
                "trans exit2:  pc2=2          -> pc2:=0, lock:=0";
              ])),
      [
        ("mutual-exclusion", "[] !(pc1=2 & pc2=2)");
        ("accessibility-1", "[] (pc1=1 -> <> pc1=2)");
        ("accessibility-2", "[] (pc2=1 -> <> pc2=2)");
      ] );
    ( "counter to 200 (201 states)",
      fst (Fts.Parse.parse counter),
      [ ("progress", "[] (x=0 -> <> x=200)") ] );
  ]

let analyze_json () =
  let rows =
    List.map
      (fun (name, sys, specs) ->
        let parsed =
          List.map (fun (n, s) -> (n, Logic.Parser.parse s)) specs
        in
        let structural_ns =
          wall_ns (fun () -> ignore (Fts.Analyze.analyze sys))
        in
        let analyze_ns =
          wall_ns (fun () ->
              ignore (Fts.Analyze.analyze ~specs:parsed sys))
        in
        let check_ns =
          wall_ns (fun () ->
              List.iter
                (fun (_, s) -> ignore (Fts.Check.holds_s sys s))
                specs)
        in
        (name, structural_ns, analyze_ns, check_ns))
      analyze_corpus
  in
  let geomean =
    exp
      (List.fold_left
         (fun acc (_, st, _, ck) -> acc +. log (ck /. st))
         0. rows
      /. float_of_int (max 1 (List.length rows)))
  in
  let oc = open_out "BENCH_analyze.json" in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"unit\": \"ns/run\",\n";
  p "  \"note\": \"structural = Fts.Analyze.analyze without specs \
     (M301-M304); analyze = with the example's specs (adds \
     M310/M311/H312); check = Fts.Check.holds on every spec (full \
     model checking); speedup = check_ns / structural_ns; CI requires \
     geomean_speedup >= 2\",\n";
  p "  \"benches\": [\n";
  List.iteri
    (fun i (name, st, an, ck) ->
      p
        "    {\"name\": \"%s\", \"structural_ns\": %.0f, \"analyze_ns\": \
         %.0f, \"check_ns\": %.0f, \"speedup\": %.2f}%s\n"
        (json_escape name) st an ck (ck /. st)
        (if i < List.length rows - 1 then "," else ""))
    rows;
  p "  ],\n";
  p "  \"geomean_speedup\": %.2f\n" geomean;
  p "}\n";
  close_out oc;
  Format.printf "@.wrote BENCH_analyze.json (%d entries)@."
    (List.length rows);
  List.iter
    (fun (name, st, an, ck) ->
      Format.printf
        "  %-44s structural %8.3fms  analyze %8.3fms  check %8.3fms  \
         (%.1fx)@."
        name (st /. 1e6) (an /. 1e6) (ck /. 1e6) (ck /. st))
    rows;
  Format.printf "geomean speedup (structural vs full check): %.2fx@." geomean

let () =
  let flag f = Array.exists (fun a -> a = f) Sys.argv in
  let tables_only = flag "--tables-only" in
  if flag "--parallel-json" then parallel_json ()
  else if flag "--inclusion-json" then inclusion_json ()
  else if flag "--analyze-json" then analyze_json ()
  else if flag "--json" then json_mode ~check_overhead:(flag "--check-overhead") ()
  else begin
    fig1 ();
    operators ();
    equivalences ();
    ladder ();
    decisions ();
    programs ();
    if not tables_only then benches ();
    Format.printf "@.done.@."
  end
