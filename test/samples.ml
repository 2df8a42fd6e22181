(* Automata shared by the classification and conversion suites. *)

open Omega

(* Wagner's staircase: over alphabet {l0..l2k}, "the largest letter seen
   infinitely often has even index"; the canonical strictness witness for
   the reactivity sub-hierarchy. *)
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

(* A universal k-state cycle over [alpha]: intersecting with it keeps
   the language but inflates every SCC by a factor of k. *)
let counter alpha k =
  let delta =
    Array.init k (fun q ->
        Array.make (Finitary.Alphabet.size alpha) ((q + 1) mod k))
  in
  Automaton.make ~alpha ~n:k ~start:0 ~delta ~acc:Acceptance.True

(* Wider random automata for the rank oracle: 1-10 states, 1-3
   letters, nested [And]/[Or] of [Inf]/[Fin] atoms. *)
let gen_wide_automaton =
  let open QCheck.Gen in
  frequency [ (1, int_range 1 5); (3, int_range 6 10) ] >>= fun n ->
  int_range 1 3 >>= fun k ->
  let gen_set = map Iset.of_list (list_size (int_range 1 2) (int_bound (n - 1))) in
  (* alternating [And]/[Or] levels: the shape of Streett, Rabin and
     parity conditions, whose chains reach past rank 1 *)
  let rec gen_acc conj d =
    let atom =
      oneof
        [ map (fun s -> Acceptance.Inf s) gen_set;
          map (fun s -> Acceptance.Fin s) gen_set ]
    in
    if d = 0 then atom
    else
      map
        (fun l -> if conj then Acceptance.And l else Acceptance.Or l)
        (list_size (int_range 2 3)
           (frequency [ (1, atom); (2, gen_acc (not conj) (d - 1)) ]))
  in
  let gen_acc = bool >>= fun conj -> int_range 1 3 >>= gen_acc conj in
  (* letter 0 closes a cycle through every state in half the cases,
     so one large SCC carries many nested cycles *)
  map3
    (fun ring rows acc ->
      let delta = Array.of_list (List.map Array.of_list rows) in
      if ring then Array.iteri (fun q row -> row.(0) <- (q + 1) mod n) delta;
      Automaton.make
        ~alpha:(Finitary.Alphabet.of_chars (String.sub "abc" 0 k))
        ~n ~start:0 ~delta ~acc)
    bool
    (list_repeat n (list_repeat k (int_bound (n - 1))))
    gen_acc

let arb_wide_automaton =
  QCheck.make
    ~print:(fun a -> Format.asprintf "%a" Automaton.pp a)
    gen_wide_automaton
