module Alphabet = Finitary.Alphabet

type trace = {
  prefix : (System.state * string) list;
  cycle : (System.state * string) list;
}

type result = Holds | Fails of trace

(* Edge-split graph: node (state id, entering label); label 0 means
   "initial" (no position precedes), label l >= 1 means the system moved
   by transition labels.(l) — labels.(1) is the idling transition.  Node
   ids are dense: sid * n_labels + lab. *)

let labels_of sys = Array.append [| "-" |] (System.internal_transition_names sys)

let atom_at sys labels state lab atom =
  if String.length atom > 6 && String.sub atom 0 6 = "taken_" then
    let tn = String.sub atom 6 (String.length atom - 6) in
    labels.(lab) = tn
  else System.atom_holds sys state atom

(* Fairness acceptance over split nodes.  [fairness] defaults to the
   system's own requirement set; {!has_fair_computation} overrides it to
   attribute an empty fair-computation set to individual requirements. *)
let fairness_acc ?fairness sys labels n_labels =
  let fairness =
    match fairness with Some f -> f | None -> System.fairness sys
  in
  let states = System.internal_states sys in
  let n_states = Array.length states in
  (* node [sid * n_labels + lab] is state [sid] entered by label [lab] *)
  let nodes_where pred =
    Iset.init (n_states * n_labels) (fun v ->
        pred states.(v / n_labels) (v mod n_labels))
  in
  let conjuncts =
    List.map
      (fun f ->
        match f with
        | System.Weak tn ->
            (* []<>(not enabled \/ taken) *)
            Acceptance.Inf
              (nodes_where (fun st lab ->
                   (not (System.internal_guard sys tn st)) || labels.(lab) = tn))
        | System.Strong tn ->
            (* []<>enabled -> []<>taken *)
            Acceptance.Or
              [
                Acceptance.Fin
                  (nodes_where (fun st _ -> System.internal_guard sys tn st));
                Acceptance.Inf (nodes_where (fun _ lab -> labels.(lab) = tn));
              ])
      fairness
  in
  Acceptance.And conjuncts

let split_graph ~budget ~telemetry sys n_labels =
  Telemetry.span telemetry "fts.split_graph" @@ fun () ->
  let states = System.internal_states sys in
  let n_states = Array.length states in
  let n = n_states * n_labels in
  Budget.ticks budget n;
  Telemetry.add telemetry "fts.split_nodes" n;
  let succ = Array.make n [] in
  List.iter
    (fun (src, t, dst) ->
      (* system edge with transition index t (0 = idle) enters node
         (dst, t + 1) from every node at state src *)
      Budget.tick budget;
      for lab = 0 to n_labels - 1 do
        let v = (src * n_labels) + lab in
        succ.(v) <- ((dst * n_labels) + t + 1) :: succ.(v)
      done)
    (System.internal_edges sys);
  { Graph.n; succ }

let check_with_acc ?fairness ~budget ~telemetry sys spec_formula =
  let labels = labels_of sys in
  let n_labels = Array.length labels in
  let states = System.internal_states sys in
  let graph = split_graph ~budget ~telemetry sys n_labels in
  let starts =
    List.map (fun sid -> sid * n_labels) (System.internal_init_ids sys)
  in
  let fair = fairness_acc ?fairness sys labels n_labels in
  match spec_formula with
  | None -> (graph, starts, fair, fun v -> v)
  | Some f ->
      let atoms = Logic.Formula.atoms f in
      let atoms = List.sort_uniq compare atoms in
      if atoms = [] then invalid_arg "Check: specification mentions no atom";
      if List.length atoms > 14 then
        invalid_arg "Check: too many distinct atoms in the specification";
      let alpha = Alphabet.of_props atoms in
      let spec =
        match Omega.Of_formula.translate ~budget ~telemetry alpha f with
        | Some a -> a
        | None ->
            invalid_arg
              ("Check: formula outside the canonical fragment: "
              ^ Logic.Formula.to_string f)
      in
      let letter_of v =
        let sid = v / n_labels and lab = v mod n_labels in
        List.fold_left
          (fun acc (i, atom) ->
            if atom_at sys labels states.(sid) lab atom then acc lor (1 lsl i)
            else acc)
          0
          (List.mapi (fun i a -> (i, a)) atoms)
      in
      (* product with the complement of the spec *)
      Telemetry.span telemetry "fts.product" @@ fun () ->
      let m = spec.Omega.Automaton.n in
      let pn = graph.Graph.n * m in
      Budget.ticks budget pn;
      Telemetry.add telemetry "fts.product_states" pn;
      Telemetry.observe telemetry "fts.state_space" (float_of_int pn);
      let psucc = Array.make pn [] in
      for v = 0 to graph.Graph.n - 1 do
        List.iter
          (fun w ->
            let lw = letter_of w in
            Budget.ticks budget m;
            for q = 0 to m - 1 do
              let q' = Omega.Automaton.step spec q lw in
              psucc.((v * m) + q) <- ((w * m) + q') :: psucc.((v * m) + q)
            done)
          graph.Graph.succ.(v)
      done;
      let pstarts =
        List.map
          (fun v ->
            let q = Omega.Automaton.step spec spec.Omega.Automaton.start (letter_of v) in
            (v * m) + q)
          starts
      in
      let lift_graph s =
        Iset.fold
          (fun v acc ->
            List.fold_left (fun acc q -> Iset.add ((v * m) + q) acc) acc
              (List.init m Fun.id))
          s Iset.empty
      in
      let lift_spec s =
        Iset.fold
          (fun q acc ->
            List.fold_left
              (fun acc v -> Iset.add ((v * m) + q) acc)
              acc
              (List.init graph.Graph.n Fun.id))
          s Iset.empty
      in
      let acc =
        Acceptance.simplify
          (Acceptance.And
             [
               Acceptance.map_sets lift_graph fair;
               Acceptance.map_sets lift_spec
                 (Acceptance.dual spec.Omega.Automaton.acc);
             ])
      in
      ({ Graph.n = pn; succ = psucc }, pstarts, acc, fun v -> v / m)

let trace_of sys n_labels project (pre, cyc) =
  let states = System.internal_states sys in
  let labels = labels_of sys in
  let node v =
    let v = project v in
    let sid = v / n_labels and lab = v mod n_labels in
    (states.(sid), labels.(lab))
  in
  { prefix = List.map node pre; cycle = List.map node cyc }

let holds ?(budget = Budget.unlimited) ?(telemetry = Telemetry.disabled) sys f
    =
  let labels = labels_of sys in
  let n_labels = Array.length labels in
  let graph, starts, acc, project =
    check_with_acc ~budget ~telemetry sys (Some f)
  in
  let lasso =
    Telemetry.span telemetry "fts.lasso_search" @@ fun () ->
    Graph.find_accepting_lasso ~budget graph ~starts acc
  in
  match lasso with
  | None -> Holds
  | Some lasso -> Fails (trace_of sys n_labels project lasso)

let holds_s ?budget ?telemetry sys s =
  holds ?budget ?telemetry sys (Logic.Parser.parse s)

let has_fair_computation ?(budget = Budget.unlimited)
    ?(telemetry = Telemetry.disabled) ?fairness sys =
  let graph, starts, acc, _ =
    check_with_acc ?fairness ~budget ~telemetry sys None
  in
  Telemetry.span telemetry "fts.lasso_search" @@ fun () ->
  Graph.accepting_scc ~budget graph ~starts acc <> None

(* Closure subsets are sorted lists of split-node ids.  On a counter
   they grow as intervals [[1..k]] sharing long prefixes, and
   [Hashtbl.hash] reads only the first ten elements of a list, so with
   the polymorphic table those keys all land in one bucket and are
   compared as long lists.  This table hashes every element. *)
module Subsets = Hashtbl.Make (struct
  type t = int list

  let equal = List.equal Int.equal
  let hash l = List.fold_left (fun h x -> (h * 31) + x) 0 l land max_int
end)

(* Subset construction for the safety closure of the system's
   computation language, projected onto valuations of [atoms].  The
   result is a complete deterministic automaton accepting exactly the
   infinite words all of whose finite prefixes are valuation sequences
   of some computation prefix (fairness is deliberately ignored — the
   closure over-approximates the fair computations, which is what makes
   vacuity verdicts derived from it sound).  Correct because the prefix
   language of a graph is closed: a word is in the closure iff the
   subset automaton never empties. *)
let closure_automaton ?(budget = Budget.unlimited)
    ?(telemetry = Telemetry.disabled) ?pool:_ sys ~atoms =
  let atoms = List.sort_uniq compare atoms in
  if atoms = [] then invalid_arg "Check.closure_automaton: no atoms";
  if List.length atoms > 14 then
    invalid_arg "Check.closure_automaton: too many distinct atoms";
  let labels = labels_of sys in
  let n_labels = Array.length labels in
  let states = System.internal_states sys in
  let graph = split_graph ~budget ~telemetry sys n_labels in
  Telemetry.span telemetry "fts.closure_automaton" @@ fun () ->
  let alpha = Alphabet.of_props atoms in
  let k = Alphabet.size alpha in
  let indexed = List.mapi (fun i a -> (i, a)) atoms in
  let letter =
    Array.init graph.Graph.n (fun v ->
        let sid = v / n_labels and lab = v mod n_labels in
        List.fold_left
          (fun acc (i, atom) ->
            if atom_at sys labels states.(sid) lab atom then acc lor (1 lsl i)
            else acc)
          0 indexed)
  in
  Budget.ticks budget graph.Graph.n;
  (* Breadth-first subset construction.  DFA state 0 is the pre-initial
     state (no letter read yet); every other DFA state [id + 1] is the
     sorted subset of split nodes interned as [id]; the empty subset is
     the reject sink. *)
  let table = Subsets.create 64 in
  let grow = ref (Array.make 64 [||]) in
  let subs = ref (Array.make 64 []) in
  let ensure n =
    let cap = Array.length !grow in
    if n > cap then begin
      let cap' = max n (2 * cap) in
      let g = Array.make cap' [||] and s = Array.make cap' [] in
      Array.blit !grow 0 g 0 cap;
      Array.blit !subs 0 s 0 cap;
      grow := g;
      subs := s
    end
  in
  (* DFA id of subset [s], interning (and ticking) when fresh; a miss
     is inserted with [add], since [replace] would rescan the bucket *)
  let intern s =
    match Subsets.find_opt table s with
    | Some id -> id + 1
    | None ->
        let id = Subsets.length table in
        Subsets.add table s id;
        ensure (id + 2);
        !subs.(id + 1) <- s;
        Budget.tick budget;
        id + 1
  in
  let bucketize vs =
    let buckets = Array.make k [] in
    List.iter (fun w -> buckets.(letter.(w)) <- w :: buckets.(letter.(w))) vs;
    Array.map (fun l -> intern (List.sort_uniq compare l)) buckets
  in
  let starts =
    List.map (fun sid -> sid * n_labels) (System.internal_init_ids sys)
  in
  (* bind rows before storing them: interning can resize [grow], so
     the [!grow] deref must come after the row is built *)
  let row0 = bucketize starts in
  !grow.(0) <- row0;
  let i = ref 1 in
  while !i <= Subsets.length table do
    let s = !subs.(!i) in
    Budget.ticks budget (List.length s + k);
    let row = bucketize (List.concat_map (fun v -> graph.Graph.succ.(v)) s) in
    !grow.(!i) <- row;
    incr i
  done;
  let n = Subsets.length table + 1 in
  Telemetry.add telemetry "fts.closure_states" n;
  let delta = Array.init n (fun i -> !grow.(i)) in
  let acc =
    (* a word is in the closure iff its run never reaches the sink;
       the sink is absorbing, so "never reaches" = "visits finitely" *)
    match Subsets.find_opt table [] with
    | Some sink -> Acceptance.Fin (Iset.add (sink + 1) Iset.empty)
    | None -> Acceptance.True
  in
  Omega.Automaton.make ~alpha ~n ~start:0 ~delta ~acc

let pp_trace sys ppf { prefix; cycle } =
  let pp_step ppf (st, lab) =
    Fmt.pf ppf "%s %a" lab (System.pp_state sys) st
  in
  Fmt.pf ppf "@[<v>prefix:@,%a@,cycle (repeats forever):@,%a@]"
    (Fmt.list ~sep:Fmt.cut pp_step)
    prefix
    (Fmt.list ~sep:Fmt.cut pp_step)
    cycle
