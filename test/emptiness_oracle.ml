(* Oracles for [Emptiness] that share none of its code: the
   accessible cycles come from [Cycles.enumerate], and lassos are
   checked step by step. *)

open Omega

(* An acceptance tree [depth] levels deep over subsets of [0 .. n-1]. *)
let gen_acc n depth =
  let open QCheck.Gen in
  let gen_set =
    map
      (fun mask ->
        Iset.of_list
          (List.filter (fun i -> mask land (1 lsl i) <> 0) (List.init n Fun.id)))
      (int_bound ((1 lsl n) - 1))
  in
  let atom =
    oneof
      [
        map (fun s -> Acceptance.Inf s) gen_set;
        map (fun s -> Acceptance.Fin s) gen_set;
      ]
  in
  let rec go d =
    if d = 0 then atom
    else
      let sub = go (d - 1) in
      frequency
        [
          (1, atom);
          (2, map2 (fun a b -> Acceptance.And [ a; b ]) sub sub);
          (2, map2 (fun a b -> Acceptance.Or [ a; b ]) sub sub);
        ]
  in
  go depth

(* For the automaton's condition and its dual: the kernel finds a
   cycle iff some accessible enumerated cycle satisfies the condition
   (and what it returns is such a cycle), and it collects exactly the
   union of those cycles; a witness, when there is one, is accepted. *)
let automaton_agrees (a : Automaton.t) =
  let n = a.n and succ = Automaton.successors a in
  let reach = Automaton.reachable a in
  let region = Iset.init n (Array.get reach) in
  let cycles = List.concat_map (List.map fst) (Cycles.enumerate a) in
  List.for_all
    (fun acc ->
      let accepting = List.filter (Acceptance.eval acc) cycles in
      (match Emptiness.accepting_scc ~n ~succ acc region with
      | None -> accepting = []
      | Some s ->
          Iset.subset s region && Cycles.is_cycle a s && Acceptance.eval acc s)
      && Iset.equal
           (Emptiness.accepting_states ~n ~succ acc region)
           (List.fold_left Iset.union Iset.empty accepting))
    [ a.acc; Acceptance.dual a.acc ]
  &&
  match Lang.witness a with
  | Some w -> Automaton.accepts a w
  | None -> not (List.exists (Acceptance.eval a.acc) cycles)

(* A lasso [(prefix, cycle)] through [succ]: the prefix leaves a start,
   every step is an edge, the cycle closes on the prefix's last node,
   and the cycle's node set satisfies [acc]. *)
let lasso_valid ~succ ~starts acc (prefix, cycle) =
  let rec steps = function
    | v :: (w :: _ as rest) -> List.mem w (succ v) && steps rest
    | [ _ ] | [] -> true
  in
  match List.rev prefix with
  | [] -> false
  | anchor :: _ ->
      List.mem (List.hd prefix) starts
      && cycle <> []
      && steps prefix
      && steps (anchor :: cycle)
      && List.nth cycle (List.length cycle - 1) = anchor
      && Acceptance.eval acc (Iset.of_list cycle)
