module Alphabet = Finitary.Alphabet
module Word = Finitary.Word

exception Unsupported of string

(* ------------------------------------------------------------------ *)
(* Negation normal form over the future skeleton                       *)
(* ------------------------------------------------------------------ *)

type lit =
  | LAtom of string * bool  (* name, polarity *)
  | LPast of int * bool  (* index into the past table, polarity *)

type nnf =
  | NTrue
  | NFalse
  | NLit of lit
  | NAnd of nnf * nnf
  | NOr of nnf * nnf
  | NNext of nnf
  | NUntil of nnf * nnf
  | NRelease of nnf * nnf

(* Replace every maximal past-rooted subformula by a table index. *)
let extract_pasts f =
  let table = Hashtbl.create 16 in
  let pasts = ref [] in
  let count = ref 0 in
  let intern p =
    match Hashtbl.find_opt table p with
    | Some i -> i
    | None ->
        if not (Formula.is_past p) then
          raise
            (Unsupported
               ("past operator applied to a future formula: "
               ^ Formula.to_string p));
        let i = !count in
        incr count;
        Hashtbl.add table p i;
        pasts := p :: !pasts;
        i
  in
  let rec go (f : Formula.t) : Formula.t =
    match f with
    | True | False | Atom _ -> f
    | Prev _ | Wprev _ | Since _ | Wsince _ | Once _ | Hist _ ->
        Atom (Printf.sprintf "'%d" (intern f))
    | Not f -> Not (go f)
    | And (f, g) -> And (go f, go g)
    | Or (f, g) -> Or (go f, go g)
    | Imp (f, g) -> Imp (go f, go g)
    | Iff (f, g) -> Iff (go f, go g)
    | Next f -> Next (go f)
    | Until (f, g) -> Until (go f, go g)
    | Wuntil (f, g) -> Wuntil (go f, go g)
    | Ev f -> Ev (go f)
    | Alw f -> Alw (go f)
  in
  let skeleton = go f in
  (skeleton, Array.of_list (List.rev !pasts))

let lit_of_atom a pos =
  if String.length a > 0 && a.[0] = '\'' then
    LPast (int_of_string (String.sub a 1 (String.length a - 1)), pos)
  else LAtom (a, pos)

(* NNF of a future formula (past subformulae already extracted). *)
let rec nnf (f : Formula.t) : nnf =
  match f with
  | True -> NTrue
  | False -> NFalse
  | Atom a -> NLit (lit_of_atom a true)
  | Not f -> neg f
  | And (f, g) -> NAnd (nnf f, nnf g)
  | Or (f, g) -> NOr (nnf f, nnf g)
  | Imp (f, g) -> NOr (neg f, nnf g)
  | Iff (f, g) -> NOr (NAnd (nnf f, nnf g), NAnd (neg f, neg g))
  | Next f -> NNext (nnf f)
  | Until (f, g) -> NUntil (nnf f, nnf g)
  | Wuntil (f, g) ->
      (* p W q  =  q R (q \/ p) *)
      NRelease (nnf g, NOr (nnf g, nnf f))
  | Ev f -> NUntil (NTrue, nnf f)
  | Alw f -> NRelease (NFalse, nnf f)
  | Prev _ | Wprev _ | Since _ | Wsince _ | Once _ | Hist _ ->
      (* [extract_pasts] interned every maximal past-rooted subformula
         before this pass; a survivor means the extraction invariant is
         broken *)
      invalid_arg
        ("Tableau.nnf: past operator survived past-extraction: "
        ^ Formula.to_string f)

and neg (f : Formula.t) : nnf =
  match f with
  | True -> NFalse
  | False -> NTrue
  | Atom a -> NLit (lit_of_atom a false)
  | Not f -> nnf f
  | And (f, g) -> NOr (neg f, neg g)
  | Or (f, g) -> NAnd (neg f, neg g)
  | Imp (f, g) -> NAnd (nnf f, neg g)
  | Iff (f, g) -> NOr (NAnd (nnf f, neg g), NAnd (neg f, nnf g))
  | Next f -> NNext (neg f)
  | Until (f, g) -> NRelease (neg f, neg g)
  | Wuntil (f, g) ->
      (* not (q R (q \/ p)) = (not q) U (not q /\ not p) *)
      NUntil (neg g, NAnd (neg g, neg f))
  | Ev f -> NRelease (NFalse, neg f)
  | Alw f -> NUntil (NTrue, neg f)
  | Prev _ | Wprev _ | Since _ | Wsince _ | Once _ | Hist _ ->
      invalid_arg
        ("Tableau.neg: past operator survived past-extraction: "
        ^ Formula.to_string f)

(* ------------------------------------------------------------------ *)
(* Closure terms, interned                                             *)
(* ------------------------------------------------------------------ *)

module ISet = Set.Make (Int)

(* A closure term with its children replaced by their ids. *)
type term =
  | TTrue
  | TFalse
  | TLit of lit * int  (* the literal, the id of its complement or -1 *)
  | TAnd of int * int
  | TOr of int * int
  | TNext of int
  | TUntil of int * int
  | TRelease of int * int

(* Number every subterm of [phi] in [Stdlib.compare] order.  The
   numbering is monotone, so a set of ids is ordered, and its tree
   shaped, exactly like the set of the terms themselves: [ISet.min_elt]
   picks the term a term set would, and the expansion below builds the
   same graph in the same order as one over [nnf] sets.  Returns the
   terms by id and the id of [phi]. *)
let intern_closure phi =
  let rec subterms acc f =
    let acc = f :: acc in
    match f with
    | NTrue | NFalse | NLit _ -> acc
    | NNext g -> subterms acc g
    | NAnd (g, h) | NOr (g, h) | NUntil (g, h) | NRelease (g, h) ->
        subterms (subterms acc g) h
  in
  let sorted =
    Array.of_list (List.sort_uniq Stdlib.compare (subterms [] phi))
  in
  let ids = Hashtbl.create (Array.length sorted) in
  Array.iteri (fun i f -> Hashtbl.replace ids f i) sorted;
  let id = Hashtbl.find ids in
  let term = function
    | NTrue -> TTrue
    | NFalse -> TFalse
    | NLit l ->
        let complement =
          match l with
          | LAtom (a, b) -> LAtom (a, not b)
          | LPast (i, b) -> LPast (i, not b)
        in
        let c = Hashtbl.find_opt ids (NLit complement) in
        TLit (l, Option.value c ~default:(-1))
    | NAnd (f, g) -> TAnd (id f, id g)
    | NOr (f, g) -> TOr (id f, id g)
    | NNext f -> TNext (id f)
    | NUntil (f, g) -> TUntil (id f, id g)
    | NRelease (f, g) -> TRelease (id f, id g)
  in
  (Array.map term sorted, id phi)

(* ------------------------------------------------------------------ *)
(* GPVW node graph                                                     *)
(* ------------------------------------------------------------------ *)

type node = {
  id : int;
  mutable incoming : ISet.t;  (* 0 is the virtual initial node *)
  old : ISet.t;
  next : ISet.t;
}

(* Nodes are identified by their (old, next) pair. *)
module Node_key = Hashtbl.Make (struct
  type t = ISet.t * ISet.t

  let equal (o, n) (o', n') = ISet.equal o o' && ISet.equal n n'
  let hash_set s h = ISet.fold (fun x h -> (h * 65599) + x) s h
  let hash (o, n) = hash_set n (hash_set o 0 * 31) land max_int
end)

type graph = {
  mutable nodes : node list;  (* newest first *)
  mutable fresh : int;  (* nodes are numbered 1 .. fresh *)
}

let build_graph ~budget ~count terms phi =
  let g = { nodes = []; fresh = 0 } in
  let by_key = Node_key.create 64 in
  let rec expand ~incoming ~new_ ~old ~next =
    Budget.tick budget;
    incr count;
    if ISet.is_empty new_ then (
      match Node_key.find_opt by_key (old, next) with
      | Some r -> r.incoming <- ISet.union r.incoming incoming
      | None ->
          g.fresh <- g.fresh + 1;
          let r = { id = g.fresh; incoming; old; next } in
          g.nodes <- r :: g.nodes;
          Node_key.add by_key (old, next) r;
          expand ~incoming:(ISet.singleton r.id) ~new_:next ~old:ISet.empty
            ~next:ISet.empty)
    else
      let eta = ISet.min_elt new_ in
      let new_ = ISet.remove eta new_ in
      if ISet.mem eta old then expand ~incoming ~new_ ~old ~next
      else
        let old' = ISet.add eta old in
        match terms.(eta) with
        | TFalse -> ()
        | TTrue -> expand ~incoming ~new_ ~old:old' ~next
        | TLit (_, complement) ->
            if not (ISet.mem complement old) then
              expand ~incoming ~new_ ~old:old' ~next
        | TAnd (f1, f2) ->
            expand ~incoming ~new_:(ISet.add f1 (ISet.add f2 new_)) ~old:old'
              ~next
        | TOr (f1, f2) ->
            expand ~incoming ~new_:(ISet.add f1 new_) ~old:old' ~next;
            expand ~incoming ~new_:(ISet.add f2 new_) ~old:old' ~next
        | TNext f -> expand ~incoming ~new_ ~old:old' ~next:(ISet.add f next)
        | TUntil (f1, f2) ->
            expand ~incoming ~new_:(ISet.add f1 new_) ~old:old'
              ~next:(ISet.add eta next);
            expand ~incoming ~new_:(ISet.add f2 new_) ~old:old' ~next
        | TRelease (f1, f2) ->
            expand ~incoming ~new_:(ISet.add f2 new_) ~old:old'
              ~next:(ISet.add eta next);
            expand ~incoming
              ~new_:(ISet.add f1 (ISet.add f2 new_))
              ~old:old' ~next
  in
  expand ~incoming:(ISet.singleton 0) ~new_:(ISet.singleton phi)
    ~old:ISet.empty ~next:ISet.empty;
  g

(* ------------------------------------------------------------------ *)
(* Concrete automaton: tableau x past tester                           *)
(* ------------------------------------------------------------------ *)

module Int_table = Hashtbl.Make (Int)

type nba = {
  alpha : Alphabet.t;
  n : int;  (* concrete states; 0 is the pre-initial state *)
  succ : (Alphabet.letter * int) list array;
  acc_sets : ISet.t array;  (* generalized Buechi condition *)
}

let size a = a.n

(* What entering a node demands of the letter read and of the stepped
   tester state: its literals, read in [ISet.for_all] order up to the
   first atom outside the alphabet.  That atom is read last, through
   [Alphabet.holds], so it raises exactly when reading the node's
   literals one by one would reach it. *)
type entry = {
  letters : bool array;  (* the atom literals read hold, per letter *)
  pasts : (int * bool) list;  (* the past literals read *)
  unknown : (string * bool) option;
}

let translate ?(budget = Budget.unlimited) ?telemetry alpha f =
  let telemetry =
    match telemetry with Some t -> t | None -> Telemetry.ambient ()
  in
  Telemetry.span telemetry "tableau.translate" @@ fun () ->
  let skeleton, pasts = extract_pasts f in
  let terms, phi = intern_closure (nnf skeleton) in
  let expansions = ref 0 in
  let g = build_graph ~budget ~count:expansions terms phi in
  Telemetry.observe telemetry "tableau.expansions" (float_of_int !expansions);
  Telemetry.observe telemetry "tableau.graph_nodes" (float_of_int g.fresh);
  let tester = Past_tester.make alpha (Array.to_list pasts) in
  let letters = Alphabet.letters alpha in
  let n_letters = Alphabet.size alpha in
  let all_letters = Array.make n_letters true in
  let known = Alphabet.atoms alpha in
  let truths = Hashtbl.create 8 in
  let truth a =
    match Hashtbl.find_opt truths a with
    | Some t -> t
    | None ->
        let t = Array.init n_letters (Alphabet.holds alpha a) in
        Hashtbl.add truths a t;
        t
  in
  let entry_of nd =
    let letters = ref all_letters and pasts = ref [] and unknown = ref None in
    ignore
      (ISet.for_all
         (fun id ->
           match terms.(id) with
           | TLit (LAtom (a, pos), _) when List.mem a known ->
               let t = truth a and l = !letters in
               letters := Array.init n_letters (fun i -> l.(i) && t.(i) = pos);
               true
           | TLit (LAtom (a, pos), _) ->
               unknown := Some (a, pos);
               false
           | TLit (LPast (i, pos), _) ->
               pasts := (i, pos) :: !pasts;
               true
           | TTrue | TFalse | TAnd _ | TOr _ | TNext _ | TUntil _ | TRelease _
             ->
               true)
         nd.old);
    { letters = !letters; pasts = !pasts; unknown = !unknown }
  in
  let rec pasts_hold ts = function
    | [] -> true
    | (i, pos) :: rest ->
        Past_tester.value tester ts i = pos && pasts_hold ts rest
  in
  let admits e letter ts =
    e.letters.(letter)
    && pasts_hold ts e.pasts
    &&
    match e.unknown with
    | None -> true
    | Some (a, pos) -> Alphabet.holds alpha a letter = pos
  in
  (* targets.(src): the nodes whose incoming contains [src], in the
     order of [g.nodes], each with its entry condition *)
  let targets = Array.make (g.fresh + 1) [] in
  List.iter
    (fun nd ->
      let e = entry_of nd in
      ISet.iter
        (fun src -> targets.(src) <- (nd, e) :: targets.(src))
        nd.incoming)
    (List.rev g.nodes);
  (* concrete states: (node, tester state), interned in BFS order, so
     state i is the i-th one dequeued; 0 = pre-initial *)
  let n_tester = Past_tester.n_states tester in
  let index = Int_table.create 64 in
  let queue = Queue.create () in
  let count = ref 1 in
  let state_nodes = ref [] in
  let intern nd ts =
    let key = (nd.id * n_tester) + ts in
    match Int_table.find_opt index key with
    | Some i -> i
    | None ->
        let i = !count in
        incr count;
        Int_table.add index key i;
        Queue.add (nd.id, ts) queue;
        state_nodes := nd :: !state_nodes;
        i
  in
  let successors src ts =
    match targets.(src) with
    | [] -> []
    | tgts ->
        List.concat_map
          (fun letter ->
            let ts' = Past_tester.step tester ts letter in
            List.filter_map
              (fun (nd, e) ->
                if admits e letter ts' then Some (letter, intern nd ts')
                else None)
              tgts)
          letters
  in
  let rows = ref [ successors 0 (Past_tester.initial tester) ] in
  while not (Queue.is_empty queue) do
    Budget.tick budget;
    let src, ts = Queue.pop queue in
    rows := successors src ts :: !rows
  done;
  let succ = Array.of_list (List.rev !rows) in
  let n = Array.length succ in
  Telemetry.observe telemetry "tableau.states" (float_of_int n);
  (* generalized Buechi condition, one set per until [u = _ U rhs]: the
     states whose node does not promise [u] or already meets [rhs];
     state i >= 1 sits on node state_nodes.(i - 1) *)
  let state_nodes = Array.of_list (List.rev !state_nodes) in
  let fulfilling u rhs =
    let set = ref ISet.empty in
    Array.iteri
      (fun k nd ->
        if (not (ISet.mem u nd.old)) || ISet.mem rhs nd.old then
          set := ISet.add (k + 1) !set)
      state_nodes;
    !set
  in
  let acc_sets =
    Array.to_seqi terms
    |> Seq.filter_map (fun (u, t) ->
           match t with TUntil (_, rhs) -> Some (fulfilling u rhs) | _ -> None)
    |> Array.of_seq
  in
  { alpha; n; succ; acc_sets }

(* ------------------------------------------------------------------ *)
(* Emptiness and membership                                            *)
(* ------------------------------------------------------------------ *)

(* The first good SCC in [Graph_kernel.sccs] order: reachable,
   non-trivial (contains an edge) and intersecting every acceptance
   set. *)
let accepting_scc n succs acc_sets reachable =
  Graph_kernel.sccs ~n ~succ:(fun v -> if reachable v then succs v else [])
  |> List.find_opt (fun comp ->
         match comp with
         | [] -> false
         | v :: _ when not (reachable v) -> false
         | _ ->
             let in_comp = ISet.of_list comp in
             let nontrivial =
               List.exists
                 (fun v -> List.exists (fun w -> ISet.mem w in_comp) (succs v))
                 comp
             in
             nontrivial
             && Array.for_all
                  (fun acc -> List.exists (fun v -> ISet.mem v acc) comp)
                  acc_sets)

let reachable_from a start =
  Graph_kernel.reachable ~n:a.n
    ~succ:(fun v -> List.map snd a.succ.(v))
    ~starts:[ start ]

(* The first accepting SCC reachable from the pre-initial state. *)
let good_scc a =
  let seen = reachable_from a 0 in
  accepting_scc a.n
    (fun v -> List.map snd a.succ.(v))
    a.acc_sets
    (fun v -> seen.(v))

let nonempty a = Option.is_some (good_scc a)

(* [xs] and [ys] list one state's successors grouped by letter, letters
   ascending (the order [translate] builds them in); [f] meets every
   successor of [xs] with every successor of [ys] on the same letter *)
let rec join f xs ys =
  match (xs, ys) with
  | [], _ | _, [] -> ()
  | (l, _) :: xs', (l', _) :: _ when l < l' -> join f xs' ys
  | (l, _) :: _, (l', _) :: ys' when l' < l -> join f xs ys'
  | (l, i) :: xs', _ ->
      let rec on_letter = function
        | (l', j) :: rest when l' = l ->
            f i j;
            on_letter rest
        | _ -> ()
      in
      on_letter ys;
      join f xs' ys

(* The synchronous product, pair [(i, j)] interned as [i * b.n + j] and
   numbered in BFS order from the pre-initial pair [(0, 0)]; its
   generalized Buechi condition is both sides' sets, lifted to the
   pairs. *)
let intersects ?(budget = Budget.unlimited) a b =
  if not (a.alpha == b.alpha || Alphabet.equal a.alpha b.alpha) then
    invalid_arg "Tableau.intersects: alphabet mismatch";
  let telemetry = Telemetry.ambient () in
  Telemetry.span telemetry "tableau.product" @@ fun () ->
  let index = Int_table.create 64 in
  let queue = Queue.create () in
  let count = ref 0 in
  let pairs = ref [] in
  let intern i j =
    let key = (i * b.n) + j in
    match Int_table.find_opt index key with
    | Some k -> k
    | None ->
        let k = !count in
        incr count;
        Int_table.add index key k;
        Queue.add (i, j) queue;
        pairs := (i, j) :: !pairs;
        k
  in
  ignore (intern 0 0);
  let rows = ref [] in
  while not (Queue.is_empty queue) do
    Budget.tick budget;
    let i, j = Queue.pop queue in
    let row = ref [] in
    join (fun i' j' -> row := intern i' j' :: !row) a.succ.(i) b.succ.(j);
    rows := !row :: !rows
  done;
  let succ = Array.of_list (List.rev !rows) in
  let n = Array.length succ in
  Telemetry.observe telemetry "tableau.product_states" (float_of_int n);
  let pairs = Array.of_list (List.rev !pairs) in
  let lift side sets =
    Array.map
      (fun acc ->
        let set = ref ISet.empty in
        Array.iteri
          (fun k pair -> if ISet.mem (side pair) acc then set := ISet.add k !set)
          pairs;
        !set)
      sets
  in
  let acc_sets = Array.append (lift fst a.acc_sets) (lift snd b.acc_sets) in
  (* every pair was reached from (0, 0) *)
  accepting_scc n (Array.get succ) acc_sets (fun _ -> true) |> Option.is_some

let satisfiable ?budget ?telemetry alpha f =
  nonempty (translate ?budget ?telemetry alpha f)

let valid ?budget ?telemetry alpha f =
  not (satisfiable ?budget ?telemetry alpha (Formula.Not f))

let equiv ?budget ?telemetry alpha f g =
  valid ?budget ?telemetry alpha (Formula.Iff (f, g))

let implies ?budget ?telemetry alpha f g =
  valid ?budget ?telemetry alpha (Formula.Imp (f, g))

(* ------------------------------------------------------------------ *)
(* Witness extraction                                                  *)
(* ------------------------------------------------------------------ *)

let shortest_path succs src dsts =
  (* BFS; returns the letter-labelled path (possibly empty if src is a
     destination) *)
  if dsts src then Some []
  else begin
    let parent = Hashtbl.create 64 in
    let queue = Queue.create () in
    Queue.add src queue;
    Hashtbl.add parent src None;
    let found = ref None in
    (try
       while not (Queue.is_empty queue) do
         let v = Queue.pop queue in
         List.iter
           (fun (letter, w) ->
             if not (Hashtbl.mem parent w) then begin
               Hashtbl.add parent w (Some (v, letter));
               if dsts w then begin
                 found := Some w;
                 raise Exit
               end;
               Queue.add w queue
             end)
           (succs v)
       done
     with Exit -> ());
    match !found with
    | None -> None
    | Some dst ->
        let rec build v acc =
          match Hashtbl.find parent v with
          | None -> acc
          | Some (p, letter) -> build p ((letter, v) :: acc)
        in
        Some (build dst [])
  end

let witness ?budget ?telemetry alpha f =
  let a = translate ?budget ?telemetry alpha f in
  let succs v = a.succ.(v) in
  match good_scc a with
  | None -> None
  | Some comp ->
      let in_comp = ISet.of_list comp in
      let comp_succs v =
        List.filter (fun (_, w) -> ISet.mem w in_comp) (succs v)
      in
      let anchor = List.hd comp in
      (* the SCC was selected among states reachable from 0 and is
         strongly connected with every acceptance set represented, so
         each path below must exist; name the broken invariant instead
         of a blind [Assert_failure] *)
      let internal_error what =
        invalid_arg
          (Printf.sprintf
             "Tableau.witness: internal invariant broken: %s (anchor %d)"
             what anchor)
      in
      let prefix_path =
        match shortest_path succs 0 (fun v -> v = anchor) with
        | Some p -> p
        | None -> internal_error "accepting SCC unreachable from start"
      in
      (* closed walk from anchor visiting a representative of each
         acceptance set *)
      let reps =
        Array.to_list
          (Array.map
             (fun acc ->
               match List.find_opt (fun v -> ISet.mem v acc) comp with
               | Some v -> v
               | None -> internal_error "acceptance set misses the chosen SCC")
             a.acc_sets)
      in
      let rec tour v targets acc =
        match targets with
        | [] -> (
            (* close the loop back to the anchor, with at least one step *)
            match
              List.concat_map
                (fun (letter, w) ->
                  match
                    shortest_path comp_succs w (fun x -> x = anchor)
                  with
                  | Some p -> [ (letter, w) :: p ]
                  | None -> [])
                (comp_succs v)
            with
            | p :: _ -> acc @ p
            | [] -> internal_error "no closing step back to anchor")
        | t :: rest -> (
            match shortest_path comp_succs v (fun x -> x = t) with
            | Some p -> tour t rest (acc @ p)
            | None -> internal_error "representative unreachable within SCC")
      in
      let cycle_path = tour anchor reps [] in
      let letters path = Array.of_list (List.map fst path) in
      Some
        (Word.lasso ~prefix:(letters prefix_path) ~cycle:(letters cycle_path))

let accepts_lasso a lasso =
  let p = Array.length lasso.Word.prefix in
  let l = Array.length lasso.Word.cycle in
  let total = p + l in
  let next_pos j = if j + 1 < total then j + 1 else p in
  (* product state: q * total + j  means "in state q, about to read
     position j" *)
  let n = a.n * total in
  let succs v =
    let q = v / total and j = v mod total in
    List.filter_map
      (fun (letter, q') ->
        if letter = Word.at lasso j then Some ((q' * total) + next_pos j)
        else None)
      a.succ.(q)
  in
  let seen = Array.make n false in
  let rec visit v =
    if not seen.(v) then begin
      seen.(v) <- true;
      List.iter visit (succs v)
    end
  in
  visit 0;
  (* state 0 * total + 0 = product start since automaton state 0 is the
     pre-initial state *)
  accepting_scc n succs
    (Array.map
       (fun acc ->
         ISet.of_list
           (List.concat_map
              (fun q ->
                if ISet.mem q acc then List.init total (fun j -> (q * total) + j)
                else [])
              (List.init a.n Fun.id)))
       a.acc_sets)
    (fun v -> seen.(v))
  |> Option.is_some
