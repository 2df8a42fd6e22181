module Alphabet = Finitary.Alphabet

type trace = {
  prefix : (System.state * string) list;
  cycle : (System.state * string) list;
}

type result = Holds | Fails of trace

(* Edge-split graph: node (state id, entering label class); label 0
   means "initial" (no position precedes), label l >= 1 means the
   system moved by transition labels.(l) — labels.(1) is the idling
   transition.  [classes.(l)] is the class of label l and node (sid, c)
   is [sid * width + c], for a [width] of at least the number of
   classes.  {!holds} gives every label its own class ([width] =
   [n_labels], so node ids are dense); {!closure_automaton} merges the
   labels no requested atom tells apart. *)

let labels_of sys = Array.append [| "-" |] (System.internal_transition_names sys)

let is_taken atom = String.length atom > 6 && String.sub atom 0 6 = "taken_"

(* The [taken_tau] bits of every label over [atoms] (bit i: the i-th
   atom holds). *)
let label_bits labels atoms =
  let bits = Array.make (Array.length labels) 0 in
  List.iteri
    (fun i atom ->
      if is_taken atom then begin
        let tn = String.sub atom 6 (String.length atom - 6) in
        Array.iteri
          (fun lab l -> if l = tn then bits.(lab) <- bits.(lab) lor (1 lsl i))
          labels
      end)
    atoms;
  bits

(* The state-atom bits of every state over [atoms].  An atom is parsed
   only when some state reads it, so a system without states accepts
   any atom. *)
let state_bits sys atoms =
  let states = System.internal_states sys in
  let bits = Array.make (Array.length states) 0 in
  if Array.length states > 0 then
    List.iteri
      (fun i atom ->
        if not (is_taken atom) then begin
          let holds = System.atom_pred sys atom in
          Array.iteri
            (fun sid st -> if holds st then bits.(sid) <- bits.(sid) lor (1 lsl i))
            states
        end)
      atoms;
  bits

(* The letter of every node: node [sid * width + c] ORs the state's
   bits and the class's [taken_tau] bits. *)
let letters ~width state_bits class_bits =
  let letter = Array.make (Array.length state_bits * width) 0 in
  Array.iteri
    (fun sid bits ->
      Array.iteri
        (fun c cb -> letter.((sid * width) + c) <- bits lor cb)
        class_bits)
    state_bits;
  letter

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

let split_graph ~budget ~telemetry sys ~classes ~width =
  Telemetry.span telemetry "fts.split_graph" @@ fun () ->
  let n_states = Array.length (System.internal_states sys) in
  let nodes = n_states * (1 + Array.fold_left max 0 classes) in
  Budget.ticks budget nodes;
  Telemetry.add telemetry "fts.split_nodes" nodes;
  let out = Array.make n_states [] in
  List.iter
    (fun (src, t, dst) ->
      (* system edge with transition index t (0 = idle) enters node
         (dst, class of label t + 1) from every node at state src *)
      Budget.tick budget;
      out.(src) <- ((dst * width) + classes.(t + 1)) :: out.(src))
    (System.internal_edges sys);
  (* the classes of a state share its successor list *)
  let n = n_states * width in
  let succ = Array.make n [] in
  Array.iteri (fun sid l -> Array.fill succ (sid * width) width l) out;
  { Graph.n; succ }

let check_with_acc ?fairness ~budget ~telemetry sys spec_formula =
  let labels = labels_of sys in
  let n_labels = Array.length labels in
  let graph =
    split_graph ~budget ~telemetry sys
      ~classes:(Array.init n_labels Fun.id)
      ~width:n_labels
  in
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
      (* product with the complement of the spec *)
      Telemetry.span telemetry "fts.product" @@ fun () ->
      let m = spec.Omega.Automaton.n in
      let pn = graph.Graph.n * m in
      Budget.ticks budget pn;
      Telemetry.add telemetry "fts.product_states" pn;
      Telemetry.observe telemetry "fts.state_space" (float_of_int pn);
      let letter =
        letters ~width:n_labels (state_bits sys atoms)
          (label_bits labels atoms)
      in
      let psucc = Array.make pn [] in
      for v = 0 to graph.Graph.n - 1 do
        List.iter
          (fun w ->
            let lw = letter.(w) in
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
            let q = Omega.Automaton.step spec spec.Omega.Automaton.start letter.(v) in
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

(* Sorts [a] ascending.  Keys are node ids below [1 lsl (width *
   passes)]; short arrays take an insertion sort, longer ones an LSD
   radix sort on [width]-bit digits through [tmp] (at least as long as
   [a]) and the [1 lsl width] counters [count]. *)
let sort_nodes ~tmp ~count ~width ~passes a =
  let c = Array.length a in
  if c < 24 then
    for i = 1 to c - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  else begin
    let src = ref a and dst = ref tmp in
    for p = 0 to passes - 1 do
      let shift = width * p and mask = (1 lsl width) - 1 in
      let s = !src and d = !dst in
      Array.fill count 0 (mask + 1) 0;
      for i = 0 to c - 1 do
        let b = (s.(i) lsr shift) land mask in
        count.(b) <- count.(b) + 1
      done;
      let sum = ref 0 in
      for b = 0 to mask do
        let x = count.(b) in
        count.(b) <- !sum;
        sum := !sum + x
      done;
      for i = 0 to c - 1 do
        let x = s.(i) in
        let b = (x lsr shift) land mask in
        d.(count.(b)) <- x;
        count.(b) <- count.(b) + 1
      done;
      src := d;
      dst := s
    done;
    if !src != a then Array.blit !src 0 a 0 c
  end

(* the least [b] with [n <= 1 lsl b] *)
let bit_width n =
  let rec go b = if n <= 1 lsl b then b else go (b + 1) in
  go 0

(* The labels with equal [taken_tau] bits, numbered in order of their
   first label: the class of every label and the bits of every class. *)
let label_classes label_bits =
  let class_of = Hashtbl.create 8 in
  let classes =
    Array.map
      (fun b ->
        match Hashtbl.find_opt class_of b with
        | Some c -> c
        | None ->
            let c = Hashtbl.length class_of in
            Hashtbl.add class_of b c;
            c)
      label_bits
  in
  let class_bits = Array.make (Hashtbl.length class_of) 0 in
  Array.iteri (fun lab c -> class_bits.(c) <- label_bits.(lab)) classes;
  (classes, class_bits)

(* Subset construction for the safety closure of the system's
   computation language, projected onto valuations of [atoms].  The
   result is a complete deterministic automaton accepting exactly the
   infinite words all of whose finite prefixes are valuation sequences
   of some computation prefix (fairness is deliberately ignored — the
   closure over-approximates the fair computations, which is what makes
   vacuity verdicts derived from it sound).  Correct because the prefix
   language of a graph is closed: a word is in the closure iff the
   subset automaton never empties.

   Two labels with the same [taken_tau] bits over [atoms] give a state
   two nodes with the same letter and the same successors, so the
   nodes are one: a node is (state, label class), packed as
   [(sid lsl cbits) lor c], and read back with a shift.  With no
   [taken_tau] atom every label is in class 0 and a node is a state. *)
let closure_automaton ?(budget = Budget.unlimited)
    ?(telemetry = Telemetry.disabled) ?pool:_ sys ~atoms =
  let atoms = List.sort_uniq compare atoms in
  if atoms = [] then invalid_arg "Check.closure_automaton: no atoms";
  if List.length atoms > 14 then
    invalid_arg "Check.closure_automaton: too many distinct atoms";
  let classes, class_bits = label_classes (label_bits (labels_of sys) atoms) in
  let n_classes = Array.length class_bits in
  let cbits = bit_width n_classes in
  let graph =
    split_graph ~budget ~telemetry sys ~classes ~width:(1 lsl cbits)
  in
  Telemetry.span telemetry "fts.closure_automaton" @@ fun () ->
  let alpha = Alphabet.of_props atoms in
  let k = Alphabet.size alpha in
  let n_states = graph.Graph.n lsr cbits in
  let letter =
    letters ~width:(1 lsl cbits) (state_bits sys atoms) class_bits
  in
  Budget.ticks budget (n_states * n_classes);
  (* the classes of a state share its successors, so a subset is
     expanded once per distinct state *)
  let succ =
    Array.init n_states (fun sid ->
        Array.of_list graph.Graph.succ.(sid lsl cbits))
  in
  (* Breadth-first subset construction.  DFA state 0 is the pre-initial
     state (no letter read yet); every other DFA state [id] is the
     sorted array of nodes [subs.(id)], numbered in order of first
     occurrence; the empty subset is the reject sink. *)
  let table = Int_index.Arrays.create 64 in
  let subs = ref (Array.make 64 [||]) and rows = ref (Array.make 64 [||]) in
  let count = ref 0 in
  let fresh s =
    incr count;
    let id = !count in
    if id >= Array.length !subs then begin
      let grow a = Array.append a (Array.make (Array.length a) [||]) in
      subs := grow !subs;
      rows := grow !rows
    end;
    !subs.(id) <- s;
    Budget.tick budget;
    id
  in
  let sink = ref 0 in
  (* The successors of the subset being expanded, deduplicated by
     [stamp] and bucketed by letter: bucket [l] is [bufs.(l)] up to
     [fill.(l)]. *)
  let stamp = Array.make graph.Graph.n (-1) and cur = ref 0 in
  let bufs = Array.make k [||] and fill = Array.make k 0 in
  let add w =
    if stamp.(w) <> !cur then begin
      stamp.(w) <- !cur;
      let l = letter.(w) in
      let c = fill.(l) in
      if c = Array.length bufs.(l) then begin
        let b = Array.make (max 8 (2 * c)) 0 in
        Array.blit bufs.(l) 0 b 0 c;
        bufs.(l) <- b
      end;
      bufs.(l).(c) <- w;
      fill.(l) <- c + 1
    end
  in
  (* node ids have [bits] bits, split into the fewest digits of at
     most 8 bits, of equal width *)
  let bits = max 1 (bit_width graph.Graph.n) in
  let passes = (bits + 7) / 8 in
  let width = (bits + passes - 1) / passes in
  let tmp = Array.make graph.Graph.n 0 and radix = Array.make (1 lsl width) 0 in
  (* one DFA row: the id of every bucket in letter order, interning
     (and ticking) fresh subsets as they first occur *)
  let row () =
    let r = Array.make k 0 in
    for l = 0 to k - 1 do
      let c = fill.(l) in
      if c = 0 then begin
        if !sink = 0 then sink := fresh [||];
        r.(l) <- !sink
      end
      else begin
        fill.(l) <- 0;
        let s = Array.sub bufs.(l) 0 c in
        sort_nodes ~tmp ~count:radix ~width ~passes s;
        r.(l) <-
          (match Int_index.Arrays.find_opt table s with
          | Some id -> id
          | None ->
              let id = fresh s in
              Int_index.Arrays.add table s id;
              id)
      end
    done;
    r
  in
  List.iter
    (fun sid -> add ((sid lsl cbits) lor classes.(0)))
    (System.internal_init_ids sys);
  (* bind rows before storing them: interning can resize [rows], so
     the [!rows] deref must come after the row is built *)
  let row0 = row () in
  !rows.(0) <- row0;
  let i = ref 1 in
  while !i <= !count do
    let s = !subs.(!i) in
    Budget.ticks budget (Array.length s + k);
    cur := !i;
    let last = ref (-1) in
    Array.iter
      (fun v ->
        let sid = v lsr cbits in
        if sid <> !last then begin
          last := sid;
          Array.iter add succ.(sid)
        end)
      s;
    let r = row () in
    !rows.(!i) <- r;
    incr i
  done;
  let n = !count + 1 in
  Telemetry.add telemetry "fts.closure_states" n;
  let delta = Array.sub !rows 0 n in
  let acc =
    (* a word is in the closure iff its run never reaches the sink;
       the sink is absorbing, so "never reaches" = "visits finitely" *)
    if !sink > 0 then Acceptance.Fin (Iset.add !sink Iset.empty)
    else Acceptance.True
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
