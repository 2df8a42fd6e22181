exception Not_in_class of string

let require cond cls =
  if not cond then raise (Not_in_class cls)

(* The safety closure has the safety shape (its dead states are
   absorbing) and equals the language when the language is safety. *)
let to_safety a =
  require (Classify.is_safety a) "safety";
  Automaton.trim (Lang.safety_closure a)

let to_guarantee a =
  require (Classify.is_guarantee a) "guarantee";
  Automaton.trim (Automaton.complement (Lang.safety_closure (Automaton.complement a)))

(* ------------------------------------------------------------------ *)
(* The ACD-transform (Casares, Colcombet, Fijalkow, ICALP 2021)         *)
(* ------------------------------------------------------------------ *)

(* The children of [cs] holding [q], with their positions. *)
let holding q (cs : Classify.acd list) =
  List.filter
    (fun (_, (c : Classify.acd)) -> Iset.mem q c.cycle)
    (List.mapi (fun j c -> (j, c)) cs)

(* Below node [t], the branch for [q] that leaves [t] by the first child
   holding [q] after position [after], round-robin, and then by first
   children down to a leaf: the child positions, top down. *)
let rec branch q after (t : Classify.acd) =
  match holding q t.children with
  | [] -> []
  | first :: _ as l ->
      let j, c =
        Option.value ~default:first (List.find_opt (fun (j, _) -> j > after) l)
      in
      j :: branch q (-1) c

(* Output states are (q, branch of q's tree, priority of the entering
   edge).  A step q -> q' inside one tree goes up the branch to its
   deepest node holding q', whose depth is the step's priority, and
   leaves that node by its next child holding q'.  A run with infinity
   set N keeps climbing back to N, and to nothing above it, so the least
   priority it sees infinitely often is N's depth.  Each tree's depths
   are shifted by an even amount, so that accepting nodes get even
   priorities and the deepest priority of every tree is [top] or
   [top - 1]; edges between trees get [top].  The min-parity condition
   is then a chain of Streett pairs, one per odd priority, and there are
   as many odd priorities as rejecting nodes on the longest branch. *)
let acd_transform ?(budget = Budget.unlimited) (a : Automaton.t) trees =
  let trees = Array.of_list trees in
  let tree_of = Array.make a.n (-1) in
  Array.iteri
    (fun i (t : Classify.acd) -> Iset.iter (fun q -> tree_of.(q) <- i) t.cycle)
    trees;
  let rec height (t : Classify.acd) =
    List.fold_left (fun h c -> max h (1 + height c)) 0 t.children
  in
  let parity (t : Classify.acd) = if t.accepting then 0 else 1 in
  let top = Array.fold_left (fun m t -> max m (parity t + height t)) 0 trees in
  let shift =
    Array.map
      (fun t -> parity t + ((top - parity t - height t) land lnot 1))
      trees
  in
  let enter q' =
    let i = tree_of.(q') in
    (q', (if i < 0 then [] else branch q' (-1) trees.(i)), top)
  in
  let step (q, br, _) q' =
    let i = tree_of.(q) in
    if i < 0 || i <> tree_of.(q') then enter q'
    else
      let rec up depth (t : Classify.acd) = function
        | j :: rest when Iset.mem q' (List.nth t.children j).cycle ->
            let p, br = up (depth + 1) (List.nth t.children j) rest in
            (p, j :: br)
        | [] -> (depth, branch q' (-1) t)
        | j :: _ -> (depth, branch q' j t)
      in
      let p, br' = up 0 trees.(i) br in
      (q', br', shift.(i) + p)
  in
  let index = Hashtbl.create 64 and queue = Queue.create () in
  let intern key =
    match Hashtbl.find_opt index key with
    | Some i -> i
    | None ->
        Budget.tick budget;
        let i = Hashtbl.length index in
        Hashtbl.add index key i;
        Queue.add (i, key) queue;
        i
  in
  let start = intern (enter a.start) in
  let rows = ref [] in
  while not (Queue.is_empty queue) do
    let i, ((q, _, _) as key) = Queue.pop queue in
    rows :=
      (i, Array.map (fun q' -> intern (step key q')) a.delta.(q)) :: !rows
  done;
  let n = Hashtbl.length index in
  let delta = Array.make n [||] and priority = Array.make n top in
  List.iter (fun (i, row) -> delta.(i) <- row) !rows;
  Hashtbl.iter (fun (_, _, p) i -> priority.(i) <- p) index;
  let where f =
    Iset.of_list (List.filter (fun i -> f priority.(i)) (List.init n Fun.id))
  in
  (* the pair of odd priority [o]: if [o] recurs, something below does *)
  let pair o =
    let below = Acceptance.Inf (where (fun p -> p < o)) in
    if o = top then below
    else Acceptance.Or [ below; Acceptance.Fin (where (( = ) o)) ]
  in
  let pairs = List.init ((top + 1) / 2) (fun i -> pair ((2 * i) + 1)) in
  Automaton.make ~alpha:a.alpha ~n ~start ~delta
    ~acc:(Acceptance.simplify (Acceptance.And pairs))

(* The precondition is read off the forest the transform then expands,
   so the decomposition is built once. *)
let shaped ?budget ?telemetry a precondition cls =
  let f = Classify.forest ?budget ?telemetry a in
  require (precondition f) cls;
  acd_transform ?budget a (Classify.expand f)

let to_buchi ?budget ?telemetry a =
  shaped ?budget ?telemetry a Classify.recurrence "recurrence"

(* Persistence of [a] is recurrence of its complement. *)
let to_cobuchi ?budget ?telemetry a =
  Automaton.complement
    (shaped ?budget ?telemetry (Automaton.complement a) Classify.recurrence
       "persistence")

let to_shape ?budget ?telemetry kappa a =
  match kappa with
  | Kappa.Safety -> to_safety a
  | Kappa.Guarantee -> to_guarantee a
  | Kappa.Recurrence -> to_buchi ?budget ?telemetry a
  | Kappa.Persistence -> to_cobuchi ?budget ?telemetry a
  | Kappa.Obligation k ->
      shaped ?budget ?telemetry a
        (fun f ->
          match Classify.obligation_degree_of f with
          | Some d -> d <= k
          | None -> false)
        (Kappa.name kappa)
  | Kappa.Reactivity k ->
      let b =
        acd_transform ?budget a (Classify.decomposition ?budget ?telemetry a)
      in
      require
        (List.length (Acceptance.to_streett_pairs ~n:b.n b.acc) <= k)
        (Kappa.name kappa);
      b
