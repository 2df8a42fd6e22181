(* Random automata at the lattice's edges, and unreachable junk to
   append to any automaton: the generators [test_inclusion] compares
   inclusion on and [test_topology] runs every public function of
   [Classify], [Convert], [Topology] and [Lang] on. *)

open Omega

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

(* Automata at the lattice's edges, over one, two or three letters:
   the empty and the full automaton, one state under a random
   condition, a dead start (a transient start in front of a rejecting
   sink), and a start whose language is empty while another state's is
   not (state 2 loops on the first letter under [Inf {2}], and no run
   from the start reaches it).  [gen_edge] may append 1-3 states that
   no run reaches, with random rows and random shares of every
   acceptance set. *)
let gen_base alpha =
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
  oneof
    [
      return (Automaton.empty_lang alpha);
      return (Automaton.full alpha);
      one_state;
      dead_start;
      empty_start;
    ]

let gen_edge alpha =
  QCheck.Gen.(gen_base alpha >>= fun a -> oneof [ return a; add_junk a ])

