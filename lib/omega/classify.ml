(* ------------------------------------------------------------------ *)
(* The alternating cycle decomposition, expanded on demand              *)
(* ------------------------------------------------------------------ *)

type acd = { cycle : Iset.t; accepting : bool; children : acd list }

(* A node of the decomposition (Casares, Colcombet, Fijalkow, ICALP
   2021) whose children, the maximal cycles of the opposite status
   inside it, are found on first use. *)
type node = { set : Iset.t; status : bool; mutable kids : node list option }

(* One forest per classification: one tree per reachable cycle-carrying
   SCC, rooted at the SCC.  Every column reads it, the low ones only
   its top two levels, so they are decided before the deeper levels
   spend fuel.  [reach.(i).(j)] says that root [i] reaches root [j]
   ([i <> j]); it is built on first use, once. *)
type forest = {
  aut : Automaton.t;
  dual : Acceptance.t;
  budget : Budget.t;
  telemetry : Telemetry.t;
  roots : node array Lazy.t;
  reach : bool array array Lazy.t;
}

let forest ?(budget = Budget.unlimited) ?(telemetry = Telemetry.disabled)
    (a : Automaton.t) =
  let succ = Automaton.successors a in
  let roots =
    lazy
      (let reach = Automaton.reachable a in
       Graph_kernel.sccs_region ~n:a.n ~succ
         (Iset.init a.n (fun q -> reach.(q)))
       |> List.filter_map (fun comp ->
              if Graph_kernel.nontrivial ~succ comp then
                let s = Iset.of_list comp in
                Some { set = s; status = Acceptance.eval a.acc s; kids = None }
              else None)
       |> Array.of_list)
  in
  let reach =
    lazy
      (let roots = Lazy.force roots in
       Array.map
         (fun r ->
           let seen =
             Graph_kernel.reachable ~n:a.n ~succ ~starts:(Iset.elements r.set)
           in
           Array.map
             (fun r' -> r' != r && Iset.exists (fun q -> seen.(q)) r'.set)
             roots)
         roots)
  in
  { aut = a; dual = Acceptance.dual a.acc; budget; telemetry; roots; reach }

let roots f = Array.to_list (Lazy.force f.roots)

(* Expanding a node costs one tick and one [rank.nodes] count. *)
let children f t =
  match t.kids with
  | Some k -> k
  | None ->
      Budget.tick f.budget;
      Telemetry.incr f.telemetry "rank.nodes";
      let a = f.aut in
      let k =
        List.map
          (fun c -> { set = c; status = not t.status; kids = None })
          (Emptiness.maximal_accepting_cycles ~budget:f.budget ~n:a.n
             ~succ:(Automaton.successors a)
             (if t.status then f.dual else a.acc)
             t.set)
      in
      t.kids <- Some k;
      k

(* ------------------------------------------------------------------ *)
(* Wagner's cycle conditions as reads of the forest (section 5.1)      *)
(* ------------------------------------------------------------------ *)

(* Recurrence: no rejecting cycle contains an accepting one; dually for
   persistence.  Such a pair lies in one SCC.  If the root has the outer
   cycle's status, the root contains both; otherwise the outer cycle
   lies in one of the root's children.  So the nodes of the top two
   levels with that status all being childless is exact.  The whole
   level is expanded before it is read. *)
let top_childless f status =
  List.concat_map (fun r -> r :: children f r) (roots f)
  |> List.filter (fun t -> t.status = status)
  |> List.map (children f)
  |> List.for_all List.is_empty

let recurrence f = top_childless f false
let persistence f = top_childless f true

(* Obligation: no SCC carries cycles of both statuses, i.e. every root is
   childless. *)
let obligation f = List.for_all List.is_empty (List.map (children f) (roots f))

(* Safety: no reachable rejecting cycle reaches an accepting one; dually
   for guarantee.  A root with children holds cycles of both statuses,
   which reach each other, so the automaton is neither.  When every
   root is childless, every cycle has its SCC's status, and the roots'
   reachability decides. *)
let none_reach f status =
  obligation f
  &&
  let roots = Lazy.force f.roots and reach = Lazy.force f.reach in
  not
    (Seq.exists
       (fun (i, r) ->
         r.status = status
         && Array.exists2 (fun r' e -> e && r'.status <> status) roots reach.(i))
       (Array.to_seqi roots))

let safety f = none_reach f false
let guarantee f = none_reach f true

(* Liveness: every reachable state can still reach an accepting cycle.
   A run of a complete automaton ends in a bottom root (none of its
   states has a successor outside it), and every state reaches one, so
   the property is live iff every bottom root holds an accepting cycle:
   it is accepting, or has children, which are accepting cycles. *)
let liveness f =
  let delta = f.aut.delta in
  List.for_all
    (fun r ->
      (not
         (Iset.for_all
            (fun q -> Array.for_all (fun q' -> Iset.mem q' r.set) delta.(q))
            r.set))
      || r.status
      || children f r <> [])
    (roots f)

let sccs f = List.map (fun r -> r.set) (roots f)
let automaton f = f.aut

(* The degree: with each SCC of one status, the separating pattern for
   the k-th conjunctive level is a status-alternating reachability chain
   notF (F notF)^k; the degree is one more than the best accepting count
   of a chain starting and ending with rejecting SCCs. *)
let obligation_degree_of f =
  if not (obligation f) then None
  else begin
    let roots = Lazy.force f.roots and reach = Lazy.force f.reach in
    (* best accepting count of an alternating chain from root i to a
       rejecting root; SCCs reach each other acyclically *)
    let memo = Array.make (Array.length roots) None in
    let rec chain i =
      match memo.(i) with
      | Some c -> c
      | None ->
          let fi = roots.(i).status in
          let best = ref (if fi then min_int else 0) in
          Array.iteri
            (fun j r ->
              if r.status <> fi && reach.(i).(j) then
                let cj = chain j in
                if cj > min_int then
                  best := max !best (cj + Bool.to_int fi))
            roots;
          memo.(i) <- Some !best;
          !best
    in
    let deg = ref 0 in
    Array.iteri
      (fun i r -> if not r.status then deg := max !deg (chain i))
      roots;
    Some (if Array.exists (fun r -> r.status) roots then !deg + 1 else 0)
  end

(* The forest made strict inside the rank span: the nodes the low
   columns left unexpanded are expanded depth-first. *)
let expand f =
  Telemetry.span f.telemetry "classify.rank_search" @@ fun () ->
  let rec strict t =
    {
      cycle = t.set;
      accepting = t.status;
      children = List.map strict (children f t);
    }
  in
  List.map strict (roots f)

(* An alternating inclusion chain below a node lies under one of its
   children (replacing a member by a larger cycle of the same status
   keeps the chain), so the longest chains are branches, and each
   rejecting member needs a Streett pair of its own. *)
let rec rejecting_depth t =
  List.fold_left (fun m c -> max m (rejecting_depth c)) 0 t.children
  + if t.accepting then 0 else 1

let rank f =
  List.fold_left (fun m t -> max m (rejecting_depth t)) 0 (expand f)

let is_safety a = safety (forest a)
let is_guarantee a = guarantee (forest a)
let is_recurrence a = recurrence (forest a)
let is_persistence a = persistence (forest a)
let obligation_degree a = obligation_degree_of (forest a)
let is_obligation a = obligation (forest a)
let decomposition ?budget ?telemetry a = expand (forest ?budget ?telemetry a)
let reactivity_rank ?budget ?telemetry a = rank (forest ?budget ?telemetry a)

let reactivity_rank_opt ?budget ?telemetry ?pool:_ a =
  match reactivity_rank ?budget ?telemetry a with
  | n -> Some n
  | exception Budget.Tripped _ -> None

(* ------------------------------------------------------------------ *)
(* The classification boundary                                         *)
(* ------------------------------------------------------------------ *)

(* Columns run in hierarchy order and short-circuit past the expensive
   high columns as soon as a low one decides; the cycle columns share
   one forest.  The obligation degree is [Some d] iff obligation. *)
let classify a =
  let f = forest a in
  if safety f then Kappa.Safety
  else if guarantee f then Kappa.Guarantee
  else
    match obligation_degree_of f with
    | Some d -> Kappa.Obligation (max 1 d)
    | None ->
        if recurrence f then Kappa.Recurrence
        else if persistence f then Kappa.Persistence
        else Kappa.Reactivity (max 1 (rank f))

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
let classify_forest f =
  let budget = f.budget and telemetry = f.telemetry in
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
  let saf = guard "safety" (fun () -> safety f) in
  let gua = guard "guarantee" (fun () -> guarantee f) in
  (* [Some d] iff the property is an obligation (of degree d), so one
     guarded call decides both the class test and the degree *)
  let deg = guard "obligation" (fun () -> obligation_degree_of f) in
  let recu = guard "recurrence" (fun () -> recurrence f) in
  let pers = guard "persistence" (fun () -> persistence f) in
  let rank = guard "reactivity" (fun () -> rank f) in
  let cols = (saf, gua, deg, recu, pers, rank) in
  { verdict = verdict_of cols; row = row_of cols; exhaustion = !exhaustion }

let classify_budgeted ?budget ?telemetry ?pool:_ a =
  classify_forest (forest ?budget ?telemetry a)

let memberships a = (classify_budgeted a).row
