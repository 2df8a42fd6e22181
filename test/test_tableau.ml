(* The flat tableau against its oracle, [Tableau_oracle]: the
   construction on [Set.Make (Int)] term sets with list rows.  Both must
   build the same automaton state by state, spend the same budget,
   report the same exploration counts and give the same product
   verdicts after visiting the same number of pairs. *)

open Logic
module Alphabet = Finitary.Alphabet

let fuel = 1_000_000_000

(* Random formulas over [atoms], past operators under future ones. *)
let gen_formula atoms =
  let open QCheck.Gen in
  let atom = map (fun a -> Formula.Atom a) (oneofa atoms) in
  let past =
    fix (fun self n ->
        if n <= 1 then atom
        else
          let sub = self (n / 2) in
          oneof
            [
              atom;
              map (fun a -> Formula.Not a) sub;
              map (fun a -> Formula.Prev a) sub;
              map (fun a -> Formula.Wprev a) sub;
              map (fun a -> Formula.Once a) sub;
              map (fun a -> Formula.Hist a) sub;
              map2 (fun a b -> Formula.Since (a, b)) sub sub;
              map2 (fun a b -> Formula.Wsince (a, b)) sub sub;
              map2 (fun a b -> Formula.And (a, b)) sub sub;
            ])
  in
  sized_size (int_bound 6)
  @@ fix (fun self n ->
         if n <= 1 then oneof [ atom; atom; return Formula.True; past 3 ]
         else
           let sub = self (n / 2) in
           oneof
             [
               map (fun a -> Formula.Not a) sub;
               map (fun a -> Formula.Next a) sub;
               map (fun a -> Formula.Ev a) sub;
               map (fun a -> Formula.Alw a) sub;
               map2 (fun a b -> Formula.And (a, b)) sub sub;
               map2 (fun a b -> Formula.Or (a, b)) sub sub;
               map2 (fun a b -> Formula.Imp (a, b)) sub sub;
               map2 (fun a b -> Formula.Until (a, b)) sub sub;
               map2 (fun a b -> Formula.Wuntil (a, b)) sub sub;
             ])

let rec nexts k f = if k = 0 then f else Formula.Next (nexts (k - 1) f)

(* A random formula, a third of the time joined to a chain of [X]
   long enough that the closure needs two or three words (62 ids a
   word), so ids of different words meet in one node. *)
let gen_case =
  let open QCheck.Gen in
  oneofl [ [| "p"; "q" |]; [| "p"; "q"; "r" |] ] >>= fun atoms ->
  let f = gen_formula atoms in
  pair f f >>= fun (a, b) ->
  frequency
    [
      (2, return a);
      ( 1,
        oneofl [ 64; 130 ] >>= fun k ->
        oneofl
          [
            Formula.And (a, nexts k b);
            Formula.Until (a, nexts (k / 2) b);
            Formula.Or (nexts k a, Formula.Alw b);
          ] );
    ]
  >|= fun f -> (atoms, f)

let print_case (_, f) = Formula.to_string f

(* Everything a translation shows: its rows state by state, its
   tableau histograms (name, count, sum) and its spend, or the message
   it raised and the spend up to it. *)
let tableau_histograms tl =
  List.filter_map
    (fun (name, (h : Telemetry.histogram)) ->
      if String.starts_with ~prefix:"tableau." name then
        Some (name, h.count, h.sum)
      else None)
    (Telemetry.report tl).Telemetry.histograms

let rows_of a = List.init (Tableau.size a) (Tableau.transitions a)

let observe build =
  let budget = Budget.make ~fuel () and tl = Telemetry.collector () in
  match build budget tl with
  | automata ->
      Ok
        ( List.map rows_of automata,
          tableau_histograms tl,
          Budget.spent budget )
  | exception Invalid_argument m -> Error (m, Budget.spent budget)

let flat alpha f =
  observe (fun budget telemetry ->
      [ Tableau.translate ~budget ~telemetry alpha f ])

let oracle alpha f =
  let budget = Budget.make ~fuel () in
  match Tableau_oracle.translate ~budget alpha f with
  | o ->
      let count name x = (name, 1, float_of_int x) in
      Ok
        ( [ Array.to_list o.rows ],
          [
            count "tableau.expansions" o.expansions;
            count "tableau.graph_nodes" o.graph_nodes;
            count "tableau.states" o.n;
          ],
          Budget.spent budget )
  | exception Invalid_argument m -> Error (m, Budget.spent budget)

(* [intersects a b] with the pairs it reports visiting and its spend *)
let product a b =
  let budget = Budget.make ~fuel () and tl = Telemetry.collector () in
  let meets =
    Telemetry.with_ambient tl (fun () -> Tableau.intersects ~budget a b)
  in
  match tableau_histograms tl with
  | [ ("tableau.product_states", 1, visited) ] ->
      (meets, int_of_float visited, Budget.spent budget)
  | _ -> Alcotest.fail "one tableau.product_states entry expected"

let oracle_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~name:"flat translation = oracle" ~count:400
        (QCheck.make ~print:print_case gen_case)
        (fun (atoms, f) ->
          let alpha = Alphabet.of_props (Array.to_list atoms) in
          flat alpha f = oracle alpha f);
      QCheck.Test.make ~name:"an atom outside the alphabet raises as in the oracle"
        ~count:200
        (QCheck.make ~print:print_case gen_case)
        (fun (_, f) ->
          (* [r] is outside {p,q} *)
          let alpha = Alphabet.of_props [ "p"; "q" ] in
          flat alpha f = oracle alpha f);
      QCheck.Test.make ~name:"searches = oracle searches" ~count:200
        (QCheck.make
           ~print:(fun ((_, a), (_, b)) ->
             Formula.to_string a ^ "  ,  " ^ Formula.to_string b)
           (QCheck.Gen.pair gen_case gen_case))
        (fun ((_, f), (_, g)) ->
          let alpha = Alphabet.of_props [ "p"; "q"; "r" ] in
          let a = Tableau.translate alpha f and b = Tableau.translate alpha g in
          let oa = Tableau_oracle.translate alpha f
          and ob = Tableau_oracle.translate alpha g in
          let meets, visited, spent = product a b in
          let o_meets, o_visited = Tableau_oracle.product oa ob in
          Tableau.nonempty a = Tableau_oracle.nonempty oa
          && Tableau.nonempty b = Tableau_oracle.nonempty ob
          && meets = o_meets && visited = o_visited && spent = visited);
      QCheck.Test.make ~name:"translate_pair = translate f, translate !f"
        ~count:100
        (QCheck.make ~print:print_case gen_case)
        (fun (atoms, f) ->
          let alpha = Alphabet.of_props (Array.to_list atoms) in
          let pair =
            observe (fun budget telemetry ->
                let pos, neg = Tableau.translate_pair ~budget ~telemetry alpha f in
                [ neg; pos ])
          and apart =
            observe (fun budget telemetry ->
                let neg = Tableau.translate ~budget ~telemetry alpha (Formula.Not f) in
                [ neg; Tableau.translate ~budget ~telemetry alpha f ])
          in
          pair = apart);
    ]

(* A fixed corpus of requirements in the shapes lint sees, with past
   payloads and one closure past 62 ids. *)
let corpus =
  List.map Parser.parse
    [
      "[] (p -> <> q)";
      "[] (q -> O p)";
      "<> [] (p | Y q)";
      "[] <> p -> [] <> q";
      "p W (q S r)";
      "[] (r -> (p U q))";
      "<> (p & X X X q)";
      "[] (p -> H (q | r))";
    ]
  @ [ Formula.And (Parser.parse "[] (p -> <> q)", nexts 70 (Formula.Atom "r")) ]

let pair_rows alpha f =
  let pos, neg = Tableau.translate_pair alpha f in
  (rows_of pos, rows_of neg)

let domain_tests =
  [
    Alcotest.test_case "translate_pair on two domains = sequential" `Quick
      (fun () ->
        let alpha = Alphabet.of_props [ "p"; "q"; "r" ] in
        let sequential = List.map (pair_rows alpha) corpus in
        let run () = List.map (pair_rows alpha) corpus in
        let other = Domain.spawn run in
        let here = run () in
        let there = Domain.join other in
        Alcotest.(check bool) "this domain" true (here = sequential);
        Alcotest.(check bool) "the other domain" true (there = sequential));
  ]

let () =
  Alcotest.run "tableau"
    [ ("oracle", oracle_tests); ("domains", domain_tests) ]
