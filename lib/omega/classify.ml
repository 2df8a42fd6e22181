let is_safety a = Lang.equal a (Lang.safety_closure a)

let is_guarantee a = is_safety (Automaton.complement a)

(* ------------------------------------------------------------------ *)
(* Polynomial cycle-structure checks (Wagner / Landweber, section 5.1)  *)
(* ------------------------------------------------------------------ *)

(* SCCs of the subgraph induced on [allowed] (reachable part only),
   as state lists, at a cost proportional to [allowed]: the per-SCC
   checks below scan one component at a time. *)
let sccs_within (a : Automaton.t) allowed =
  Graph_kernel.sccs_region ~n:a.n ~succ:(Automaton.successors a) allowed

let nontrivial (a : Automaton.t) within comp =
  Graph_kernel.nontrivial
    ~succ:(fun q ->
      List.filter (fun q' -> Iset.mem q' within) (Automaton.successors a q))
    comp

(* Does [region] contain a cycle satisfying [acc]? *)
let has_cycle (a : Automaton.t) acc region =
  Emptiness.accepting_scc ~n:a.n ~succ:(Automaton.successors a) acc region
  <> None

let reachable_set (a : Automaton.t) =
  let reach = Automaton.reachable a in
  Iset.init a.n (fun q -> reach.(q))

(* Recurrence (Wagner): no rejecting cycle contains an accepting cycle.
   A cycle is rejecting iff it fits some dual clause (x, ys): it avoids
   x and meets every y in ys.  If any such rejecting cycle A contains an
   accepting one, so does the whole SCC S of (graph minus x) around A:
   S avoids x, still meets every y, and is itself a (rejecting) cycle
   containing the accepting witness.  So scanning those SCCs is exact. *)
let is_recurrence (a : Automaton.t) =
  let reach = reachable_set a in
  List.for_all
    (fun (x, ys) ->
      let allowed = Iset.diff reach x in
      List.for_all
        (fun comp ->
          let s = Iset.of_list comp in
          (not (nontrivial a allowed comp))
          || List.exists (fun y -> Iset.disjoint s y) ys
          || not (has_cycle a a.acc s))
        (sccs_within a allowed))
    (Acceptance.cnf a.acc)

let is_persistence a = is_recurrence (Automaton.complement a)

(* Obligation: no reachable SCC carries both an accepting and a rejecting
   cycle. *)
let scc_flags (a : Automaton.t) =
  let reach = reachable_set a in
  List.filter_map
    (fun comp ->
      if not (nontrivial a reach comp) then None
      else
        let s = Iset.of_list comp in
        let acc = has_cycle a a.acc s in
        let rej = has_cycle a (Acceptance.dual a.acc) s in
        Some (s, acc, rej))
    (sccs_within a reach)

let is_obligation a =
  List.for_all (fun (_, acc, rej) -> not (acc && rej)) (scc_flags a)

(* Obligation degree: with pure SCC flags, the separating pattern for the
   k-th conjunctive level is a flag-alternating reachability chain
   notF (F notF)^k; the degree is one more than the best accepting count
   of a chain starting and ending with rejecting SCCs. *)
let obligation_degree (a : Automaton.t) =
  let flags = scc_flags a in
  if List.exists (fun (_, acc, rej) -> acc && rej) flags then None
  else begin
    let flagged =
      List.filter_map
        (fun (s, acc, rej) ->
          if acc then Some (s, true)
          else if rej then Some (s, false)
          else None)
        flags
    in
    let reach_from states =
      Graph_kernel.reachable ~n:a.n ~succ:(Automaton.successors a)
        ~starts:(Iset.elements states)
    in
    let arr =
      Array.of_list (List.map (fun (s, f) -> (s, f, reach_from s)) flagged)
    in
    let m = Array.length arr in
    let reaches i j =
      let _, _, r = arr.(i) in
      let sj, _, _ = arr.(j) in
      i <> j && Iset.exists (fun q -> r.(q)) sj
    in
    (* best accepting-count of an alternating chain from i to a rejecting
       SCC *)
    let memo = Array.make m min_int in
    let rec chain i =
      if memo.(i) > min_int then memo.(i)
      else begin
        let _, fi, _ = arr.(i) in
        let best = ref (if fi then min_int else 0) in
        for j = 0 to m - 1 do
          if reaches i j then begin
            let _, fj, _ = arr.(j) in
            if fj <> fi then
              let cj = chain j in
              if cj > min_int then
                best := max !best (cj + if fi then 1 else 0)
          end
        done;
        memo.(i) <- !best;
        !best
      end
    in
    let deg_raw = ref 0 in
    for i = 0 to m - 1 do
      let _, fi, _ = arr.(i) in
      if not fi then deg_raw := max !deg_raw (chain i)
    done;
    let any_accepting = List.exists (fun (_, f) -> f) flagged in
    Some (if any_accepting then !deg_raw + 1 else 0)
  end

(* ------------------------------------------------------------------ *)
(* Reactivity rank (the alternating cycle decomposition)                *)
(* ------------------------------------------------------------------ *)

type acd = { cycle : Iset.t; accepting : bool; children : acd list }

(* The alternating cycle decomposition (Casares, Colcombet, Fijalkow,
   ICALP 2021): one tree per reachable cycle-carrying SCC, rooted at the
   SCC, a node's children being its maximal cycles of the opposite
   status.  Built depth-first, one budget tick per node. *)
let decomposition ?(budget = Budget.unlimited)
    ?(telemetry = Telemetry.disabled) (a : Automaton.t) =
  Telemetry.span telemetry "classify.rank_search" @@ fun () ->
  let dual = Acceptance.dual a.acc in
  let nodes = ref 0 in
  let rec node accepting c =
    Budget.tick budget;
    incr nodes;
    let children =
      Emptiness.maximal_accepting_cycles ~budget ~n:a.n
        ~succ:(Automaton.successors a)
        (if accepting then dual else a.acc)
        c
    in
    {
      cycle = c;
      accepting;
      children = List.map (node (not accepting)) children;
    }
  in
  let reach = reachable_set a in
  Fun.protect ~finally:(fun () -> Telemetry.add telemetry "rank.nodes" !nodes)
  @@ fun () ->
  List.filter_map
    (fun comp ->
      if nontrivial a reach comp then
        let s = Iset.of_list comp in
        Some (node (Acceptance.eval a.acc s) s)
      else None)
    (sccs_within a reach)

(* An alternating inclusion chain below a node lies under one of its
   children (replacing a member by a larger cycle of the same status
   keeps the chain), so the longest chains are branches, and each
   rejecting member needs a Streett pair of its own. *)
let rec rejecting_depth t =
  List.fold_left (fun m c -> max m (rejecting_depth c)) 0 t.children
  + if t.accepting then 0 else 1

let reactivity_rank ?budget ?telemetry a =
  List.fold_left
    (fun m t -> max m (rejecting_depth t))
    0
    (decomposition ?budget ?telemetry a)

let reactivity_rank_opt ?budget ?telemetry ?pool:_ a =
  match reactivity_rank ?budget ?telemetry a with
  | n -> Some n
  | exception Budget.Tripped _ -> None

(* ------------------------------------------------------------------ *)
(* The classification boundary                                         *)
(* ------------------------------------------------------------------ *)

(* Columns run in hierarchy order and short-circuit past the expensive
   high columns as soon as a low one decides.  One [obligation_degree]
   call decides both the class test and the degree ([Some] iff
   obligation). *)
let classify a =
  if is_safety a then Kappa.Safety
  else if is_guarantee a then Kappa.Guarantee
  else
    match obligation_degree a with
    | Some d -> Kappa.Obligation (max 1 d)
    | None ->
        if is_recurrence a then Kappa.Recurrence
        else if is_persistence a then Kappa.Persistence
        else Kappa.Reactivity (max 1 (reactivity_rank a))

(* ------------------------------------------------------------------ *)
(* Budget-aware classification: the uniform degradation mechanism      *)
(* ------------------------------------------------------------------ *)

type interval = { at_least : Kappa.t option; at_most : Kappa.t option }

type budgeted = {
  verdict : [ `Exact of Kappa.t | `Interval of interval ];
  row : (Kappa.t * bool option) list;
  exhaustion : Budget.exhaustion option;
}

(* The interval verdict as a function of the option row. *)
let verdict_of (saf, gua, deg, recu, pers, rank) =
  (* same priority order as [classify]; a [None] column means
     the budget tripped there, and every class below it was excluded,
     which yields the sound lower bound of the degraded interval *)
  match (saf, gua, deg, recu, pers, rank) with
  | Some true, _, _, _, _, _ -> `Exact Kappa.Safety
  | None, _, _, _, _, _ -> `Interval { at_least = None; at_most = None }
  | Some false, Some true, _, _, _, _ -> `Exact Kappa.Guarantee
  | Some false, None, _, _, _, _ ->
      `Interval { at_least = Some Kappa.Guarantee; at_most = None }
  | Some false, Some false, Some (Some d), _, _, _ ->
      `Exact (Kappa.Obligation (max 1 d))
  | Some false, Some false, None, _, _, _ ->
      `Interval { at_least = Some (Kappa.Obligation 1); at_most = None }
  | Some false, Some false, Some None, Some true, _, _ ->
      `Exact Kappa.Recurrence
  | Some false, Some false, Some None, None, _, _ ->
      (* not an obligation, so at least recurrence or persistence;
         the strongest single lower bound below both is obligation *)
      `Interval { at_least = Some (Kappa.Obligation 1); at_most = None }
  | Some false, Some false, Some None, Some false, Some true, _ ->
      `Exact Kappa.Persistence
  | Some false, Some false, Some None, Some false, None, _ ->
      `Interval { at_least = Some Kappa.Persistence; at_most = None }
  | Some false, Some false, Some None, Some false, Some false, Some r ->
      `Exact (Kappa.Reactivity (max 1 r))
  | Some false, Some false, Some None, Some false, Some false, None ->
      `Interval { at_least = Some (Kappa.Reactivity 1); at_most = None }

let row_of (saf, gua, deg, recu, pers, rank) =
  [
    (Kappa.Safety, saf);
    (Kappa.Guarantee, gua);
    ( Kappa.Obligation 1,
      Option.map (function Some d -> d <= 1 | None -> false) deg );
    (Kappa.Recurrence, recu);
    (Kappa.Persistence, pers);
    (Kappa.Reactivity 1, Option.map (fun r -> r <= 1) rank);
  ]

(* One pass over the membership columns in hierarchy order, each column
   guarded against budget trips.  The guard is sticky: once anything
   trips, every later column is skipped (reported as [None]), so the
   completed columns always form a prefix of the sequence safety,
   guarantee, obligation, recurrence, persistence, rank — which is
   exactly what makes the interval computation a case analysis on that
   prefix. *)
let classify_budgeted ?(budget = Budget.unlimited)
    ?(telemetry = Telemetry.disabled) ?pool:_ a =
  let exhaustion = ref None in
  let guard what f =
    match !exhaustion with
    | Some _ -> None
    | None -> (
        try
          Budget.check budget;
          Some (Telemetry.span telemetry ("classify." ^ what) f)
        with Budget.Tripped e ->
          exhaustion := Some e;
          None)
  in
  let saf = guard "safety" (fun () -> is_safety a) in
  let gua = guard "guarantee" (fun () -> is_guarantee a) in
  (* [obligation_degree] is [Some d] iff the property is an
     obligation (of degree d), so one guarded call decides both the
     class test and the degree *)
  let deg = guard "obligation" (fun () -> obligation_degree a) in
  let recu = guard "recurrence" (fun () -> is_recurrence a) in
  let pers = guard "persistence" (fun () -> is_persistence a) in
  let rank =
    guard "reactivity" (fun () ->
        reactivity_rank ~budget ~telemetry a)
  in
  let cols = (saf, gua, deg, recu, pers, rank) in
  { verdict = verdict_of cols; row = row_of cols; exhaustion = !exhaustion }

let memberships a = (classify_budgeted a).row
