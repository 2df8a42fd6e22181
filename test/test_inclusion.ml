(* The on-the-fly antichain inclusion engine against the
   complement-and-product oracle ([Scans.included_by_product]):
   identical verdicts on random automata (including same-table pairs
   and rebuilt twins), bit-identical behaviour at jobs 1/2/4 (the
   per-conjunct fan-outs of inclusion and of the safety closure), and
   identical degradation under injected budget trips. *)

open Omega

let ab = Finitary.Alphabet.of_chars "ab"

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

let pp_auto a = Format.asprintf "%a" Automaton.pp a
let arb_automaton = QCheck.make ~print:pp_auto gen_automaton

let arb_pair = QCheck.pair arb_automaton arb_automaton

(* same language, physically distinct transition table — defeats the
   same-table fast path *)
let twin (a : Automaton.t) =
  Automaton.make ~alpha:a.alpha ~n:a.n ~start:a.start
    ~delta:(Array.map Array.copy a.delta)
    ~acc:a.acc

(* ------------------------------------------------------------------ *)
(* Canned cases                                                        *)
(* ------------------------------------------------------------------ *)

(* L(a) = { a^omega }: state 0 self-loops on 'a', letter 'b' falls into
   the dead absorbing state 1. *)
let a_omega =
  Automaton.make ~alpha:ab ~n:2 ~start:0
    ~delta:[| [| 0; 1 |]; [| 1; 1 |] |]
    ~acc:(Acceptance.Inf (Iset.singleton 0))

(* Two strongly connected counters over four letters, whose product
   reaches all [na * nb] pairs, which takes the search's index through
   many doublings.  [settle na] accepts the words that end in 'b'
   forever with its counter at 0, where 'b' keeps it; [visit nb]
   accepts the words that bring its counter to 0 infinitely often,
   which 'b' forever does, a +2 step through all [nb] states when [nb]
   is odd.  So L(settle na) <= L(visit nb). *)
let abcd = Finitary.Alphabet.of_chars "abcd"

let settle na =
  Automaton.make ~alpha:abcd ~n:na ~start:0
    ~delta:
      (Array.init na (fun q ->
           [| (q + 1) mod na; q; (q + 3) mod na; (q + 5) mod na |]))
    ~acc:(Acceptance.co_buchi ~n:na (Iset.singleton 0))

let visit nb =
  Automaton.make ~alpha:abcd ~n:nb ~start:0
    ~delta:
      (Array.init nb (fun q ->
           [| q; (q + 2) mod nb; (q + 1) mod nb; (q + 7) mod nb |]))
    ~acc:(Acceptance.Inf (Iset.singleton 0))

(* Sigma^omega under a condition the difference has to search: the
   dual of [Inf {0}] is a [Fin] atom, where the dual of [True] would be
   [False], which decides with no search at all. *)
let sigma_omega_inf =
  Automaton.with_acc (Automaton.full ab) (Acceptance.Inf (Iset.singleton 0))

let unit_tests =
  [
    Alcotest.test_case "dead-a pruning skips dead successors" `Quick (fun () ->
        let t = Telemetry.collector () in
        let v = Inclusion.included ~telemetry:t a_omega sigma_omega_inf in
        Alcotest.(check bool) "a^omega <= Sigma^omega" true v;
        (* only the live pair (0,0) is discovered, in the one run; its
           'b' successor has a dead a-component and is skipped *)
        Alcotest.(check int) "pairs" 1
          (Telemetry.counter t "inclusion.pairs");
        Alcotest.(check int) "pruned" 1
          (Telemetry.counter t "inclusion.pruned");
        (* [acc_a /\ dual True] is [False]: nothing to search *)
        let t = Telemetry.collector () in
        Alcotest.(check bool) "a^omega <= full" true
          (Inclusion.included ~telemetry:t a_omega (Automaton.full ab));
        Alcotest.(check int) "no pairs" 0
          (Telemetry.counter t "inclusion.pairs"));
    Alcotest.test_case "Fin-split counters on a Streett twin" `Quick
      (fun () ->
        (* [a] loops through 0 and 1 on 'a' and 1 on 'b'; 'b' from 0
           falls into the sink 2, which no accepting cycle visits.  Its
           Streett condition and the dual of its twin's leave Fin atoms
           over several distinct sets, so the search makes two runs,
           and the second re-checks the finished SCC {(0,0), (1,1)}. *)
        let a =
          Automaton.make ~alpha:ab ~n:3 ~start:0
            ~delta:[| [| 1; 2 |]; [| 0; 1 |]; [| 2; 2 |] |]
            ~acc:
              (Acceptance.streett ~n:3
                 [
                   (Iset.singleton 1, Iset.empty);
                   (Iset.singleton 0, Iset.of_list [ 0; 1 ]);
                 ])
        in
        let t = Telemetry.collector () in
        let v = Inclusion.included ~telemetry:t a (twin a) in
        Alcotest.(check bool) "a <= twin a" true v;
        (* two pairs discovered in each of the two runs *)
        Alcotest.(check int) "pairs" 4
          (Telemetry.counter t "inclusion.pairs");
        (* (0,0)'s 'b' successor is skipped once per run, and twice
           more while the second run re-checks the SCC: the leftover
           [Fin] atom holds on (1,1), and splitting it off regenerates
           (0,0)'s successors to find its SCCs and to look for a
           self-loop *)
        Alcotest.(check int) "pruned" 4
          (Telemetry.counter t "inclusion.pruned"));
    Alcotest.test_case "dead pairs never accept a pure-Fin conjunct" `Quick
      (fun () ->
        (* diff acceptance is [Inf {0} /\ True]; the dead pair (1,0)
           and its self-loop must not qualify *)
        let v = Inclusion.included a_omega (Automaton.empty_lang ab) in
        Alcotest.(check bool) "a^omega not<= empty" false v);
    Alcotest.test_case "empty start decides without exploring" `Quick
      (fun () ->
        let t = Telemetry.collector () in
        let v =
          Inclusion.included ~telemetry:t (Automaton.empty_lang ab)
            (Automaton.empty_lang ab)
        in
        Alcotest.(check bool) "empty <= empty" true v;
        Alcotest.(check int) "no pairs" 0
          (Telemetry.counter t "inclusion.pairs"));
    Alcotest.test_case "same-table operands short-cut" `Quick (fun () ->
        let b = Automaton.with_acc a_omega (Acceptance.Fin (Iset.singleton 1)) in
        let t = Telemetry.collector () in
        let v = Inclusion.included ~telemetry:t a_omega b in
        Alcotest.(check bool) "a^omega <= Fin-dead" true v;
        Alcotest.(check int) "same-table taken" 1
          (Telemetry.counter t "inclusion.same_table");
        Alcotest.(check int) "nothing explored" 0
          (Telemetry.counter t "inclusion.pairs"));
    Alcotest.test_case "alphabet mismatch is refused" `Quick (fun () ->
        let abc = Finitary.Alphabet.of_chars "abc" in
        Alcotest.check_raises "invalid_arg"
          (Invalid_argument "Inclusion.included: alphabet mismatch")
          (fun () ->
            ignore (Inclusion.included a_omega (Automaton.full abc))));
    Alcotest.test_case "a product past 10k pairs keeps its ids and verdicts"
      `Quick (fun () ->
        (* the difference condition [Fin (Q - {0}) /\ Fin {0}] needs one
           run, which cuts the pairs marked in either set; the pairs
           left, (0, qb) for qb <> 0, close no cycle, so the run finds
           nothing and discovers the whole 120 x 119 square *)
        let a = settle 120 and b = visit 119 in
        let t = Telemetry.collector () in
        let v = Inclusion.included ~telemetry:t a b in
        Alcotest.(check bool) "L(a) <= L(b)" true v;
        Alcotest.(check int) "pairs, one run" 14280
          (Telemetry.counter t "inclusion.pairs");
        Alcotest.(check int) "pruned" 0
          (Telemetry.counter t "inclusion.pruned");
        Alcotest.(check bool) "antichain = oracle"
          (Scans.included_by_product a b) v;
        (* the converse fails, and the search stops at its first
           accepting SCC: letter 'a' holds [b] at 0 while [a] counts
           through all 120 states and back *)
        let t = Telemetry.collector () in
        let v = Inclusion.included ~telemetry:t b a in
        Alcotest.(check bool) "converse fails" false v;
        let pairs = Telemetry.counter t "inclusion.pairs" in
        if pairs <= 0 || pairs >= 14280 then
          Alcotest.failf "converse discovered %d pairs" pairs;
        Alcotest.(check bool) "converse: antichain = oracle"
          (Scans.included_by_product b a) v);
  ]

(* ------------------------------------------------------------------ *)
(* Differential: antichain vs the complement-and-product oracle        *)
(* ------------------------------------------------------------------ *)

let verdicts a b =
  ( Lang.included a b,
    Lang.included b a,
    Lang.equal a b,
    Lang.is_universal a,
    Lang.is_universal b )

let oracle_verdicts a b =
  ( Scans.included_by_product a b,
    Scans.included_by_product b a,
    Scans.equal_by_product a b,
    Scans.is_universal_by_product a,
    Scans.is_universal_by_product b )

(* Streett and Rabin conditions of 4-6 pairs on 4-6 states: their
   difference conditions carry that many [Fin] atoms, so the on-the-fly
   search splits on them several levels deep. *)
let gen_pairs_automaton =
  let open QCheck.Gen in
  int_range 4 6 >>= fun n ->
  let gen_set =
    map Iset.of_list (list_size (int_bound n) (int_bound (n - 1)))
  in
  map3
    (fun rows pairs streett ->
      Automaton.make ~alpha:ab ~n ~start:0
        ~delta:(Array.of_list (List.map Array.of_list rows))
        ~acc:
          ((if streett then Acceptance.streett else Acceptance.rabin)
             ~n pairs))
    (list_repeat n (list_repeat 2 (int_bound (n - 1))))
    (int_range 4 6 >>= fun k -> list_repeat k (pair gen_set gen_set))
    bool

(* [a] with 1-3 states appended that no run reaches: their rows point
   anywhere, back into the original states too, and each acceptance
   set takes a random share of them, so the junk carries Inf and Fin
   marks alike. *)
let add_junk (a : Automaton.t) =
  let open QCheck.Gen in
  int_range 1 3 >>= fun k ->
  let n = a.n + k in
  list_repeat k
    (list_repeat (Finitary.Alphabet.size a.alpha) (int_bound (n - 1)))
  >>= fun rows ->
  int >|= fun seed ->
  let st = Random.State.make [| seed |] in
  let marks s =
    Iset.union s
      (Iset.of_list
         (List.filter
            (fun _ -> Random.State.bool st)
            (List.init k (( + ) a.n))))
  in
  Automaton.make ~alpha:a.alpha ~n ~start:a.start
    ~delta:(Array.append a.delta (Array.of_list (List.map Array.of_list rows)))
    ~acc:(Acceptance.map_sets marks a.acc)

(* A random automaton, and the same with junk. *)
let gen_junked =
  QCheck.Gen.(gen_automaton >>= fun a -> add_junk a >|= fun j -> (a, j))

let arb_junked =
  QCheck.make ~print:(fun (_, j) -> pp_auto j) gen_junked

(* Automata at the lattice's edges, over one, two or three letters:
   the empty and the full automaton, one state under a random
   condition, a dead start (a transient start in front of a rejecting
   sink), and a start whose language is empty while another state's is
   not (state 2 loops on the first letter under [Inf {2}], and no run
   from the start reaches it).  Each may get 1-3 states appended that
   no run reaches, with random rows and random shares of every
   acceptance set. *)
let gen_edge alpha =
  let open QCheck.Gen in
  let k = Finitary.Alphabet.size alpha in
  let make ~n delta acc =
    Automaton.make ~alpha ~n ~start:0 ~delta:(Array.of_list delta) ~acc
  in
  let one = Iset.singleton in
  let one_state =
    map
      (fun acc -> make ~n:1 [ Array.make k 0 ] acc)
      (oneofl
         Acceptance.
           [
             True;
             False;
             Inf (one 0);
             Fin (one 0);
             Inf Iset.empty;
             Fin Iset.empty;
             And [ Inf (one 0); Fin (one 0) ];
             Or [ Inf (one 0); Fin (one 0) ];
           ])
  in
  let dead_start =
    map
      (fun acc -> make ~n:2 [ Array.make k 1; Array.make k 1 ] acc)
      (oneofl
         Acceptance.[ Inf (one 0); Fin (one 1); Fin (Iset.of_list [ 0; 1 ]) ])
  in
  let empty_start =
    map2
      (fun row rest ->
        make ~n:3
          [ Array.of_list row; Array.make k 1; Array.of_list (2 :: rest) ]
          (Acceptance.Inf (one 2)))
      (list_repeat k (int_bound 1))
      (list_repeat (k - 1) (int_bound 2))
  in
  let base =
    oneof
      [
        return (Automaton.empty_lang alpha);
        return (Automaton.full alpha);
        one_state;
        dead_start;
        empty_start;
      ]
  in
  base >>= fun a -> oneof [ return a; add_junk a ]

(* Two edge automata, over one alphabet or, one time in eight, two. *)
let gen_edge_pair =
  let open QCheck.Gen in
  let alphabets = List.map Finitary.Alphabet.of_chars [ "a"; "ab"; "abc" ] in
  oneofl alphabets >>= fun alpha ->
  frequency [ (7, return alpha); (1, oneofl alphabets) ] >>= fun beta ->
  pair (gen_edge alpha) (gen_edge beta)

(* The answer of [f], or the exception it raised. *)
let guard f = try Ok (f ()) with e -> Error (Printexc.to_string e)

(* [Lang.included], [equal] and [is_universal] answer as the product
   oracle does, and raise only what their interfaces document: an
   alphabet mismatch is an [Invalid_argument]. *)
let edge_agrees (a, (b : Automaton.t)) =
  let universal (x : Automaton.t) =
    guard (fun () -> Lang.is_universal x)
    = Ok (Scans.is_universal_by_product x)
  in
  universal a && universal b
  &&
  if Finitary.Alphabet.equal a.alpha b.alpha then
    guard (fun () -> Lang.included a b) = Ok (Scans.included_by_product a b)
    && guard (fun () -> Lang.included b a) = Ok (Scans.included_by_product b a)
    && guard (fun () -> Lang.equal a b) = Ok (Scans.equal_by_product a b)
  else
    let mismatch f =
      match f () with _ -> false | exception Invalid_argument _ -> true
    in
    mismatch (fun () -> Lang.included a b)
    && mismatch (fun () -> Lang.equal a b)

(* The oracle's verdict on [L(a) <= L(b)], and the successor rows it
   asked for to reach it. *)
let oracle_work a b =
  let t = Telemetry.collector () in
  let v =
    Telemetry.with_ambient t (fun () -> Scans.included_by_product a b)
  in
  ( v,
    Telemetry.counter t "automaton.successors.hit"
    + Telemetry.counter t "automaton.successors.miss" )

let differential_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~name:"antichain = explicit on Streett and Rabin pairs"
        ~count:300
        (QCheck.pair
           (QCheck.make ~print:pp_auto gen_pairs_automaton)
           (QCheck.make ~print:pp_auto gen_pairs_automaton))
        (fun (a, b) -> oracle_verdicts a b = verdicts a b);
      QCheck.Test.make ~name:"antichain = explicit on random pairs" ~count:500
        arb_pair (fun (a, b) -> oracle_verdicts a b = verdicts a b);
      QCheck.Test.make ~name:"antichain = explicit on same-table pairs"
        ~count:300
        (QCheck.pair arb_automaton arb_automaton)
        (fun (a, acc_donor) ->
          (* a pair sharing one transition table, differing only in
             acceptance — the shape [Classify]'s closure comparisons
             produce *)
          let b = Automaton.with_acc a acc_donor.Automaton.acc in
          (* the antichain engine takes its same-table short cut here;
             the oracle builds its product all the same *)
          let t = Telemetry.collector () in
          let antichain = Telemetry.with_ambient t (fun () -> verdicts a b) in
          let o = Telemetry.collector () in
          let oracle = Telemetry.with_ambient o (fun () -> oracle_verdicts a b) in
          oracle = antichain
          && Telemetry.counter t "inclusion.same_table" >= 1
          && (Telemetry.report o).Telemetry.counters
             |> List.for_all (fun (name, _) ->
                    not (String.starts_with ~prefix:"inclusion." name)));
      QCheck.Test.make
        ~name:"unreachable junk changes no verdict and no oracle work"
        ~count:300 (QCheck.pair arb_junked arb_junked)
        (fun ((a, a'), (b, b')) ->
          (* the oracle trims its product to the reachable pairs, so the
             junk adds no row to its emptiness check *)
          let v, work = oracle_work a b in
          oracle_work a' b' = (v, work)
          && Lang.included a' b' = v
          && oracle_verdicts a' b' = verdicts a b);
      QCheck.Test.make ~name:"edge automata: Lang inclusion = product oracle"
        ~count:1000
        (QCheck.make
           ~print:(fun (a, b) -> pp_auto a ^ "\n" ^ pp_auto b)
           gen_edge_pair)
        edge_agrees;
      QCheck.Test.make ~name:"a rebuilt twin is always language-equal"
        ~count:300 arb_automaton (fun a ->
          Lang.equal a (twin a) && Scans.equal_by_product a (twin a));
      QCheck.Test.make ~name:"engine toggle does not leak across queries"
        ~count:100 arb_pair (fun (a, b) ->
          (* interleave the oracle and [Lang] query by query, so state
             either leaves on an automaton (its successors memo) reaches
             the other's next query *)
          let e1 = Scans.included_by_product a b in
          let v1 = Lang.included a b in
          let e2 = Scans.equal_by_product a b in
          let v2 = Lang.equal a b in
          e1 = v1 && e2 = v2);
    ]

(* ------------------------------------------------------------------ *)
(* The Emerson-Lei kernel against enumerated cycles                     *)
(* ------------------------------------------------------------------ *)

(* Automata of 1..6 states with a random start (so some states may be
   unreachable) and an acceptance tree [depth] levels deep. *)
let gen_small ~depth =
  let open QCheck.Gen in
  int_range 1 6 >>= fun n ->
  map3
    (fun start rows acc ->
      Automaton.make ~alpha:ab ~n ~start
        ~delta:(Array.of_list (List.map Array.of_list rows))
        ~acc)
    (int_bound (n - 1))
    (list_repeat n (list_repeat 2 (int_bound (n - 1))))
    (Emptiness_oracle.gen_acc n depth)

let arb_small ~depth =
  QCheck.make
    ~print:(fun a -> Format.asprintf "%a" Automaton.pp a)
    (gen_small ~depth)

(* Uniform liveness by definition: one word accepted from every state
   reachable in >= 1 step, i.e. non-emptiness of the intersection of the
   automaton restarted at each of those states. *)
let uniform_oracle (a : Automaton.t) =
  let reach = Automaton.reachable a in
  let starts =
    List.sort_uniq compare
      (List.concat_map
         (fun q -> if reach.(q) then Array.to_list a.delta.(q) else [])
         (List.init a.n Fun.id))
  in
  let restart q =
    Automaton.make ~alpha:a.alpha ~n:a.n ~start:q ~delta:a.delta ~acc:a.acc
  in
  Lang.nonempty
    (List.fold_left
       (fun acc q -> Automaton.trim (Automaton.inter acc (restart q)))
       (Automaton.full a.alpha) starts)

(* The complement of a 10k-state sweep (+1 on 'a', a self-loop on 'b')
   accepts [Fin {0}]: 9,999 singleton SCCs, each accepting.  Marking
   them must cost their size: a persistent set copied once per SCC
   allocated about 2.3M minor words here, flags in a byte string about
   0.36M, so 1M words is the bound.  The successor memo is filled first;
   its one-time cost is not what this measures. *)
let live_states_alloc_test =
  Alcotest.test_case "live_states on 10k accepting singletons is linear"
    `Quick (fun () ->
      let n = 10_000 in
      let sweep =
        Automaton.make ~alpha:ab ~n ~start:0
          ~delta:(Array.init n (fun q -> [| (q + 1) mod n; q |]))
          ~acc:(Acceptance.Inf (Iset.singleton 0))
      in
      let c = Automaton.complement sweep in
      for q = 0 to n - 1 do
        ignore (Automaton.successors c q)
      done;
      let before = Gc.minor_words () in
      let live = Lang.live_states c in
      let words = Gc.minor_words () -. before in
      Alcotest.(check bool) "every state live" true (Array.for_all Fun.id live);
      if words >= 1_000_000. then
        Alcotest.failf "live_states allocated %.0f minor words" words)

(* Two counters over four letters whose first letter steps both, so
   the search's depth-first stack chains through every pair it
   discovers before it closes a cycle: 4,761 pairs at 120 x 119, and a
   difference found in the first run.  A frame is three ints and a
   key's successors are asked for one at a time, so the search
   allocates its paged index and its chunked stacks and nothing per
   successor: about 19 words per pair here, where the first chunk's
   doublings still weigh.  Copying each key's successors onto an edge
   stack when it was discovered took about 40. *)
let chase_a na =
  Automaton.make ~alpha:abcd ~n:na ~start:0
    ~delta:
      (Array.init na (fun q ->
           [| (q + 1) mod na; q; (q + 3) mod na; (q + 5) mod na |]))
    ~acc:(Acceptance.Inf (Iset.singleton 0))

let chase_b nb =
  Automaton.make ~alpha:abcd ~n:nb ~start:0
    ~delta:
      (Array.init nb (fun q ->
           [| (q + 1) mod nb; (q + 2) mod nb; q; (q + 7) mod nb |]))
    ~acc:
      (Acceptance.And
         [
           Acceptance.Inf (Iset.singleton 0); Acceptance.Inf (Iset.singleton 1);
         ])

(* Words allocated so far, minor and major.  The minor count is
   [Gc.minor_words]: on OCaml 5.1 the one [Gc.counters] returns can
   count words allocated in one interval in the next, which here read
   up to 72 words per pair now and then. *)
let words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let search_alloc_test =
  Alcotest.test_case "a deep product search allocates no successor copies"
    `Quick (fun () ->
      let a = chase_a 120 and b = chase_b 119 in
      (* the first call fills [a]'s successor memo for [live_states] *)
      ignore (Inclusion.included a b);
      let t = Telemetry.collector () in
      let before = words () in
      let v = Inclusion.included ~telemetry:t a b in
      let per_pair =
        (words () -. before) /. float (Telemetry.counter t "inclusion.pairs")
      in
      Alcotest.(check bool) "L(a) not <= L(b)" false v;
      Alcotest.(check int) "pairs" 4761 (Telemetry.counter t "inclusion.pairs");
      if per_pair > 36. then
        Alcotest.failf "the search allocated %.1f words per pair" per_pair)

(* At 300 x 299 the chain holds 29,901 pairs, several chunks of every
   stack.  Stacks and an index that double up to that depth copy all
   they hold at each doubling, about 25 words per pair; stacks that add
   chunks and an index that adds pages read about 13. *)
let deep_alloc_test =
  Alcotest.test_case "a deeper product search allocates no stack copies"
    `Quick (fun () ->
      let a = chase_a 300 and b = chase_b 299 in
      ignore (Inclusion.included a b);
      let t = Telemetry.collector () in
      let before = words () in
      let v = Inclusion.included ~telemetry:t a b in
      let pairs = Telemetry.counter t "inclusion.pairs" in
      let per_pair = (words () -. before) /. float pairs in
      Alcotest.(check bool) "L(a) not <= L(b)" false v;
      Alcotest.(check int) "pairs" 29901 pairs;
      if per_pair > 18. then
        Alcotest.failf "the search allocated %.1f words per pair" per_pair)

(* A 20,000-state sweep against its rebuilt twin reaches the 20,000
   diagonal pairs [q * (n + 1)], one per page of the index: memory must
   follow the keys reached, about 52 words per pair with [live_states]
   and the marks (61 with the flat table the index replaced), not the
   4 * 10^8 codes of the square, which a directory indexed by page
   number would pay for (about 4,150 words per pair). *)
let sparse_alloc_test =
  Alcotest.test_case "a sparse product search allocates per key reached"
    `Quick (fun () ->
      let n = 20_000 in
      let sweep =
        Automaton.make ~alpha:ab ~n ~start:0
          ~delta:(Array.init n (fun q -> [| (q + 1) mod n; q |]))
          ~acc:(Acceptance.Inf (Iset.singleton 0))
      in
      let twin = twin sweep in
      ignore (Inclusion.included sweep twin);
      let t = Telemetry.collector () in
      let before = words () in
      let v = Inclusion.included ~telemetry:t sweep twin in
      let pairs = Telemetry.counter t "inclusion.pairs" in
      let per_pair = (words () -. before) /. float pairs in
      Alcotest.(check bool) "L(sweep) <= L(twin)" true v;
      Alcotest.(check int) "pairs" n pairs;
      if per_pair > 100. then
        Alcotest.failf "the search allocated %.1f words per pair" per_pair)

(* A graph for the on-the-fly search: 1..12 states under sparse keys,
   so that the search's own numbering is exercised, and 0..70 marks,
   more than one word of them.  Some states carry every mark or none;
   the others carry each mark with one per-graph probability.  Sparse
   edge densities leave many trivial SCCs, some of them fully marked.
   A row lists a state's successors by position, and a share of its
   positions ([-1]) hold none.  The condition is the generalized
   Buechi one over every mark, or a random tree of [Inf]/[Fin] atoms
   over a few marks under [And]s and [Or]s; the cut is empty or a
   random set of marks. *)
type graph = {
  n : int;
  start : int;
  rows : int array array;
  sets : int;
  marks : Iset.t array;
  acc : Acceptance.t;
  cut : Iset.t;
}

let key q = (q * 7919) + 3
let state k = (k - 3) / 7919

let gen_graph =
  let open QCheck.Gen in
  int_range 1 12 >>= fun n ->
  int_range 0 70 >>= fun sets ->
  triple
    (oneofl [ 0.08; 0.2; 0.4 ])
    (oneofl [ 0.3; 0.8; 0.97 ])
    (oneofl [ 0.; 0.1; 0.4 ])
  >>= fun (density, share, holes) ->
  (* the indices of the coins below [p] *)
  let below p coins =
    List.concat (List.mapi (fun i c -> if c < p then [ i ] else []) coins)
  in
  (* state [i] when its coin is below [density], a hole when it is
     below [density + holes] *)
  let row =
    map
      (fun coins ->
        Array.of_list
          (List.concat
             (List.mapi
                (fun i c ->
                  if c < density then [ i ]
                  else if c < density +. holes then [ -1 ]
                  else [])
                coins)))
      (list_repeat n (float_bound_exclusive 1.))
  in
  let marks =
    frequency
      [
        (1, return (Iset.init sets (fun _ -> true)));
        (1, return Iset.empty);
        ( 3,
          map
            (fun coins -> Iset.of_list (below share coins))
            (list_repeat sets (float_bound_exclusive 1.)) );
      ]
  in
  let some_marks =
    if sets = 0 then return Iset.empty
    else map Iset.of_list (list_size (int_range 1 2) (int_bound (sets - 1)))
  in
  let atom =
    oneof
      [
        map (fun x -> Acceptance.Inf x) some_marks;
        map (fun x -> Acceptance.Fin x) some_marks;
      ]
  in
  let rec tree d =
    if d = 0 then atom
    else
      let sub = tree (d - 1) in
      frequency
        [
          (1, atom);
          (2, map2 (fun a b -> Acceptance.And [ a; b ]) sub sub);
          (2, map2 (fun a b -> Acceptance.Or [ a; b ]) sub sub);
        ]
  in
  let acc =
    frequency
      [
        ( 1,
          return
            (Acceptance.And
               (List.init sets (fun k -> Acceptance.Inf (Iset.singleton k)))) );
        (3, tree 3);
      ]
  in
  let cut = frequency [ (2, return Iset.empty); (1, some_marks) ] in
  map3
    (fun (start, rows, marks) acc cut ->
      {
        n;
        start;
        rows = Array.of_list rows;
        sets;
        marks = Array.of_list marks;
        acc;
        cut;
      })
    (triple (int_bound (n - 1)) (list_repeat n row) (list_repeat n marks))
    acc cut

let print_graph g =
  Printf.sprintf "start %d, %d marks, cut {%s}, %s\n%s" g.start g.sets
    (String.concat "," (List.map string_of_int (Iset.elements g.cut)))
    (Format.asprintf "%a" Acceptance.pp g.acc)
    (String.concat "\n"
       (List.init g.n (fun q ->
            Printf.sprintf "%d -> [%s] marks {%s}" q
              (String.concat "; "
                 (List.map string_of_int (Array.to_list g.rows.(q))))
              (String.concat ","
                 (List.map string_of_int (Iset.elements g.marks.(q)))))))

(* The distinct [Fin] sets of a condition. *)
let rec fin_sets = function
  | Acceptance.Fin x -> [ x ]
  | And l | Or l -> List.concat_map fin_sets l
  | True | False | Inf _ -> []

(* The search answers as the Emerson-Lei kernel does on the states
   reachable from the start, cut states removed, with each atom over
   marks lifted to the states carrying one of them.  A non-empty cut
   is searched as a leading [Fin cut] conjunct, which the search
   splits on first: its first run cuts those keys, and a cycle through
   one never accepts.  It makes at most two runs, however many
   [Fin] atoms the condition has, ticks once per key it discovers in
   each run, and a run that finds nothing discovers every reachable
   key, cut keys included.

   Every call to [succ] is logged.  A state past its row answers
   [Emptiness.past_end] or, on odd states, [min_int]: any answer below
   [-1] ends the row.  When the condition has at most one distinct
   [Fin] set, the split removes it and no finished SCC is walked
   again, so each run (its calls start at the start's position 0)
   asks for each (key, position) at most once, a key's positions from
   0 up; a run that finds nothing asks for every position of every
   reachable key, its end included, and an accepting search asks for
   nothing after the successor that closed its cycle. *)
let on_the_fly_agrees g =
  let succ q = List.filter (fun q' -> q' >= 0) (Array.to_list g.rows.(q)) in
  let reach = Array.make g.n false in
  let rec visit q =
    if not reach.(q) then begin
      reach.(q) <- true;
      List.iter visit (succ q)
    end
  in
  visit g.start;
  let reached = Array.fold_left (fun c r -> if r then c + 1 else c) 0 reach in
  let carries x q = not (Iset.disjoint g.marks.(q) x) in
  let region =
    Iset.init g.n (fun q -> reach.(q) && not (carries g.cut q))
  in
  let lifted =
    Acceptance.map_sets (fun x -> Iset.init g.n (carries x)) g.acc
  in
  let expected =
    Option.is_some (Emptiness.accepting_scc ~n:g.n ~succ lifted region)
  in
  let budget = Budget.make ~fuel:1_000_000 () in
  let acc =
    if Iset.is_empty g.cut then g.acc else Acceptance.And [ Fin g.cut; g.acc ]
  in
  let calls = ref [] in
  let positional k i =
    let q = state k in
    let row = g.rows.(q) in
    let answer =
      if i >= Array.length row then
        if q mod 2 = 0 then Emptiness.past_end else min_int
      else if row.(i) < 0 then Emptiness.skip
      else key row.(i)
    in
    calls := (k, i, answer) :: !calls;
    answer
  in
  let r =
    Emptiness.on_the_fly ~budget
      ~marks:(fun k -> g.marks.(state k))
      ~succ:positional acc (key g.start)
  in
  let calls = List.rev !calls in
  (* the calls of each run *)
  let runs =
    List.fold_left
      (fun runs ((k, i, _) as c) ->
        match runs with
        | _ when k = key g.start && i = 0 -> [ c ] :: runs
        | run :: rest -> (c :: run) :: rest
        | [] -> [ [ c ] ])
      [] calls
    |> List.rev_map List.rev
  in
  let once_per_run run =
    let asked = Hashtbl.create 16 in
    List.for_all
      (fun (k, i, _) ->
        let fresh =
          (not (Hashtbl.mem asked (k, i)))
          && (i = 0 || Hashtbl.mem asked (k, i - 1))
        in
        Hashtbl.replace asked (k, i) ();
        fresh)
      run
  in
  (* positions [0 .. length] of each reachable row, its end included *)
  let positions = ref 0 in
  Array.iteri
    (fun q r -> if r then positions := !positions + Array.length g.rows.(q) + 1)
    reach;
  let every_position run =
    List.length run = !positions
    && List.for_all
         (fun (k, i, _) ->
           reach.(state k) && i <= Array.length g.rows.(state k))
         run
  in
  let distinct_fins = List.sort_uniq Iset.compare (fin_sets acc) in
  r.accepting = expected
  && r.runs <= 2
  && Budget.spent budget = r.visited
  && r.visited <= r.runs * reached
  && (r.accepting || r.visited = r.runs * reached)
  && (List.length distinct_fins > 1
     || List.length runs = r.runs
        && List.for_all once_per_run runs
        && (if r.accepting then
              match List.rev calls with (_, _, w) :: _ -> w >= 0 | [] -> false
            else List.for_all every_position runs))

(* A ring of [n] states, several stack chunks long, with back edges:
   under [And [Fin {0}; Fin {1}; Inf {2}]] the search splits on
   [Fin {0}] and keeps [Fin {1}], so the ring's SCC, whose marks fail
   the condition (a state outside the cycle [lo .. hi] carries mark
   1), finishes whole and is decided by the per-SCC recursion, on keys
   read back by number from every chunk of [keys].  The back edge [hi
   -> lo] closes the cycle [lo .. hi], which mostly meets mark 2 and
   avoids mark 1, so that only that recursion finds it; random cuts
   (mark 0), marks and back edges vary the rest.  Keys are sparse, [q
   * 7919 + 3].  The verdict is the Emerson-Lei kernel's on the
   explicit graph. *)
let gen_ring =
  let open QCheck.Gen in
  int_range (2 * Int_stack.chunk) (5 * Int_stack.chunk) >>= fun n ->
  let pick = int_bound (n - 1) in
  int_range 0 (n / 2) >>= fun lo ->
  int_range (lo + 1) (n - 2) >>= fun hi ->
  let inside = int_range lo hi in
  let outside =
    map (fun d -> (hi + 1 + d) mod n) (int_bound (n - hi + lo - 2))
  in
  let maybe p g =
    map2 (fun x c -> if c < p then [ x ] else []) g (float_bound_exclusive 1.)
  in
  quad
    (list_size (int_range 0 2) (pair pick pick))
    (list_size (int_range 0 2) pick)
    (map2 ( @ ) (map (fun q -> [ q ]) outside) (maybe 0.3 inside))
    (map2 ( @ ) (maybe 0.8 inside) (maybe 0.3 outside))
  >>= fun (chords, fin0, fin1, inf2) ->
  return (n, (hi, lo) :: chords, fin0, fin1, inf2)

let print_ring (n, chords, fin0, fin1, inf2) =
  let l xs = String.concat "," (List.map string_of_int xs) in
  Printf.sprintf "n %d, back edges [%s], Fin0 {%s}, Fin1 {%s}, Inf2 {%s}" n
    (String.concat "; "
       (List.map (fun (a, b) -> Printf.sprintf "%d->%d" (max a b) (min a b))
          chords))
    (l fin0) (l fin1) (l inf2)

let ring_agrees (n, chords, fin0, fin1, inf2) =
  let rows =
    Array.init n (fun q ->
        (q + 1) mod n
        :: List.filter_map
             (fun (a, b) -> if max a b = q then Some (min a b) else None)
             chords)
  in
  let marks =
    Array.init n (fun q ->
        Iset.of_list
          (List.filter_map
             (fun (k, qs) -> if List.mem q qs then Some k else None)
             [ (0, fin0); (1, fin1); (2, inf2) ]))
  in
  let acc =
    Acceptance.And
      [
        Fin (Iset.singleton 0); Fin (Iset.singleton 1); Inf (Iset.singleton 2);
      ]
  in
  let lifted =
    Acceptance.map_sets
      (fun x -> Iset.init n (fun q -> not (Iset.disjoint marks.(q) x)))
      acc
  in
  let expected =
    Emptiness.accepting_scc ~n ~succ:(fun q -> rows.(q)) lifted
      (Iset.init n (fun _ -> true))
  in
  let succ k i =
    let row = rows.(state k) in
    if i < List.length row then key (List.nth row i) else Emptiness.past_end
  in
  let r =
    Emptiness.on_the_fly ~marks:(fun k -> marks.(state k)) ~succ acc (key 0)
  in
  r.accepting = Option.is_some expected

let ring_test =
  QCheck.Test.make ~name:"a ring over several chunks under Fin = kernel"
    ~count:30
    (QCheck.make ~print:print_ring gen_ring)
    ring_agrees

let emerson_lei_tests =
  live_states_alloc_test :: search_alloc_test :: deep_alloc_test
  :: sparse_alloc_test
  :: List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~name:"on-the-fly search = kernel on the reach"
        ~count:2000
        (QCheck.make ~print:print_graph gen_graph)
        on_the_fly_agrees;
      QCheck.Test.make ~name:"kernel = enumerated accepting cycles" ~count:1000
        (arb_small ~depth:4) Emptiness_oracle.automaton_agrees;
      (* depth 2 keeps the oracle's m-fold DNF small enough to expand *)
      QCheck.Test.make ~name:"is_uniform_liveness = restart-product oracle"
        ~count:300 (arb_small ~depth:2) (fun a ->
          Lang.is_uniform_liveness a = uniform_oracle a);
      ring_test;
    ]

(* ------------------------------------------------------------------ *)
(* Pool determinism and budget degradation                             *)
(* ------------------------------------------------------------------ *)

let job_counts = [ 1; 2; 4 ]

(* [f ()] as a pool task, on a worker domain whenever the pool has one.
   A one-item batch runs inline on the caller, so this submits two
   items: the task that lands on the submitting domain waits until a
   worker has run [f] in the other. *)
let on_worker p f =
  if Pool.jobs p = 1 then List.hd (Pool.map p (fun _ () -> f ()) [ () ])
  else begin
    let me = Domain.self () in
    let result = Atomic.make None and claimed = Atomic.make false in
    ignore
      (Pool.map p
         (fun _ () ->
           if Domain.self () = me then
             while Atomic.get result = None do
               Domain.cpu_relax ()
             done
           else if Atomic.compare_and_set claimed false true then
             Atomic.set result
               (Some (Domain.self (), try Ok (f ()) with e -> Error e)))
         [ (); () ]);
    match Atomic.get result with
    | Some (d, r) ->
        if d = me then Alcotest.fail "on_worker ran on the submitter";
        (match r with Ok v -> v | Error e -> raise e)
    | None -> assert false
  end

(* Run the antichain engine (itself sequential) as a pool task,
   capturing verdict or trip. *)
let pooled_outcome ?budget ~jobs a b =
  Pool.with_pool ~jobs (fun p ->
      on_worker p (fun () ->
          match Inclusion.included ?budget a b with
          | v -> `Verdict v
          | exception Budget.Tripped { Budget.reason; _ } -> `Tripped reason))

let pool_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~name:"pooled frontier = sequential, jobs 1/2/4"
        ~count:200 arb_pair (fun (a, b) ->
          let seq = `Verdict (Inclusion.included a b) in
          List.for_all (fun jobs -> pooled_outcome ~jobs a b = seq) job_counts);
      QCheck.Test.make
        ~name:"injected trips degrade identically at jobs 1/2/4" ~count:200
        (QCheck.pair arb_pair (QCheck.int_bound 30))
        (fun ((a, b), n) ->
          let outcome jobs =
            pooled_outcome ~budget:(Budget.inject_trip_at (n + 1)) ~jobs a b
          in
          let o1 = outcome 1 in
          List.for_all (fun jobs -> outcome jobs = o1) (List.tl job_counts)
          &&
          (* an uninterrupted budgeted run still matches the oracle *)
          match o1 with
          | `Verdict v -> v = Scans.included_by_product a b
          | `Tripped Budget.Injected -> true
          | `Tripped _ -> QCheck.Test.fail_report "wrong trip reason");
      QCheck.Test.make ~name:"Lang routing accepts a pool" ~count:100 arb_pair
        (fun (a, b) ->
          Pool.with_pool ~jobs:2 (fun p ->
              Lang.included ~pool:p a b = Lang.included a b
              && on_worker p (fun () -> Lang.equal a b) = Lang.equal a b));
      QCheck.Test.make ~name:"safety_closure pooled = sequential" ~count:300
        arb_automaton (fun a ->
          let reference =
            (Lang.live_states a, pp_auto (Lang.safety_closure a))
          in
          List.for_all
            (fun jobs ->
              Pool.with_pool ~jobs (fun p ->
                  on_worker p (fun () ->
                      ( Lang.live_states a,
                        pp_auto (Lang.safety_closure ~pool:p a) ))
                  = reference))
            job_counts);
      QCheck.Test.make
        ~name:"safety_closure injected trips are pool-independent" ~count:100
        (QCheck.pair arb_automaton (QCheck.make QCheck.Gen.(1 -- 6)))
        (fun (a, n) ->
          let outcome ?pool () =
            match
              Lang.safety_closure ~budget:(Budget.inject_trip_at n) ?pool a
            with
            | c -> `Auto (pp_auto c)
            | exception Budget.Tripped { reason; spent } ->
                `Tripped (reason, spent)
          in
          let reference = outcome () in
          List.for_all
            (fun jobs ->
              Pool.with_pool ~jobs (fun p -> outcome ~pool:p () = reference))
            job_counts);
    ]

let () =
  Alcotest.run "inclusion"
    [
      ("canned", unit_tests);
      ("differential", differential_tests);
      ("emerson-lei", emerson_lei_tests);
      ("pool", pool_tests);
    ]
