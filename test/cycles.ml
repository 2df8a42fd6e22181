(* Accessible cycles of a deterministic automaton (section 5.1), by
   subset enumeration: the oracle for the alternating cycle
   decomposition and the Emerson-Lei kernels.

   A cycle is a set of states [C] such that some cyclic path passes
   exactly through the states of [C]: [C] is non-empty and the subgraph
   induced on [C] is strongly connected with at least one edge.
   Exponential in the size of the largest SCC, so only for small
   automata. *)

open Omega

(* Is the state set a cycle of the automaton? *)
let is_cycle (a : Automaton.t) c =
  (not (Iset.is_empty c))
  &&
  let allowed q = Iset.mem q c in
  let succs_in q = List.filter allowed (Automaton.successors a q) in
  let reach_within from =
    (* reachable in >= 1 step within c *)
    let seen =
      Graph_kernel.reachable_in ~n:a.n ~succ:succs_in ~allowed
        ~starts:(succs_in from)
    in
    Iset.for_all (fun q -> seen.(q)) c
  in
  Iset.for_all reach_within c

(* The cycles of one SCC, each with its acceptance flag: bitmask subset
   enumeration over the component's states. *)
let scc_cycles (a : Automaton.t) comp =
  let size = List.length comp in
  assert (size < Sys.int_size - 1);
  let states = Array.of_list comp in
  let pos = Hashtbl.create 16 in
  Array.iteri (fun i q -> Hashtbl.add pos q i) states;
  (* successor bitmask of each SCC state, within the SCC *)
  let adj =
    Array.map
      (fun q ->
        List.fold_left
          (fun m q' ->
            match Hashtbl.find_opt pos q' with
            | Some i -> m lor (1 lsl i)
            | None -> m)
          0
          (Automaton.successors a q))
      states
  in
  (* a subset is a cycle iff every member reaches every member in at
     least one step inside the subset *)
  let is_cycle_mask m =
    let ok = ref true in
    let i = ref 0 in
    let mm = ref m in
    while !ok && !mm <> 0 do
      if !mm land 1 <> 0 then begin
        (* BFS from the successors of state !i within m *)
        let seen = ref (adj.(!i) land m) in
        let frontier = ref !seen in
        while !frontier <> 0 do
          let next = ref 0 in
          let f = ref !frontier and j = ref 0 in
          while !f <> 0 do
            if !f land 1 <> 0 then next := !next lor (adj.(!j) land m);
            incr j;
            f := !f lsr 1
          done;
          frontier := !next land lnot !seen;
          seen := !seen lor !frontier
        done;
        if !seen land m <> m then ok := false
      end;
      incr i;
      mm := !mm lsr 1
    done;
    !ok
  in
  let out = ref [] in
  let full = (1 lsl size) - 1 in
  for m = 1 to full do
    if is_cycle_mask m then begin
      let c = ref Iset.empty in
      for i = 0 to size - 1 do
        if m land (1 lsl i) <> 0 then c := Iset.add states.(i) !c
      done;
      out := (!c, Acceptance.eval a.acc !c) :: !out
    end
  done;
  match !out with [] -> None | l -> Some l

(* All accessible cycles, each paired with its acceptance flag, grouped
   by SCC. *)
let enumerate (a : Automaton.t) =
  let reach = Automaton.reachable a in
  List.filter_map
    (fun comp -> if reach.(List.hd comp) then scc_cycles a comp else None)
    (Automaton.sccs a)
