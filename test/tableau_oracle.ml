(* The tableau construction on [Set.Make (Int)] term sets with list
   rows: the oracle for [Logic.Tableau].

   It is GPVW on the negation normal form of the future skeleton, every
   maximal past-rooted subformula an atom read off a fresh
   [Past_tester], and the product of the node graph with that tester
   built by a BFS from a [Queue] into one [(letter, target)] list per
   state.  It charges a budget the same ticks at the same points as
   the library: one per node expansion, one per product state after
   the pre-initial one.  [product] searches the synchronous product of
   two of its automata with [Emptiness.on_the_fly], asking for each
   pair's successor list whole; the library's merge cursor must visit
   the same pairs in the same order. *)

module Alphabet = Finitary.Alphabet
module Formula = Logic.Formula
module Past_tester = Logic.Past_tester

exception Unsupported = Logic.Tableau.Unsupported

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
        ("Tableau_oracle.nnf: past operator survived past-extraction: "
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
        ("Tableau_oracle.neg: past operator survived past-extraction: "
        ^ Formula.to_string f)

(* ------------------------------------------------------------------ *)
(* Closure terms, interned                                             *)
(* ------------------------------------------------------------------ *)

module Ids = Set.Make (Int)

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
   shaped, exactly like the set of the terms themselves: [Ids.min_elt]
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
  mutable incoming : Ids.t;  (* 0 is the virtual initial node *)
  old : Ids.t;
  next : Ids.t;
}

(* Nodes are identified by their (old, next) pair. *)
module Node_key = Hashtbl.Make (struct
  type t = Ids.t * Ids.t

  let equal (o, n) (o', n') = Ids.equal o o' && Ids.equal n n'
  let hash_set s h = Ids.fold (fun x h -> (h * 65599) + x) s h
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
    if Ids.is_empty new_ then (
      match Node_key.find_opt by_key (old, next) with
      | Some r -> r.incoming <- Ids.union r.incoming incoming
      | None ->
          g.fresh <- g.fresh + 1;
          let r = { id = g.fresh; incoming; old; next } in
          g.nodes <- r :: g.nodes;
          Node_key.add by_key (old, next) r;
          expand ~incoming:(Ids.singleton r.id) ~new_:next ~old:Ids.empty
            ~next:Ids.empty)
    else
      let eta = Ids.min_elt new_ in
      let new_ = Ids.remove eta new_ in
      if Ids.mem eta old then expand ~incoming ~new_ ~old ~next
      else
        let old' = Ids.add eta old in
        match terms.(eta) with
        | TFalse -> ()
        | TTrue -> expand ~incoming ~new_ ~old:old' ~next
        | TLit (_, complement) ->
            if not (Ids.mem complement old) then
              expand ~incoming ~new_ ~old:old' ~next
        | TAnd (f1, f2) ->
            expand ~incoming ~new_:(Ids.add f1 (Ids.add f2 new_)) ~old:old'
              ~next
        | TOr (f1, f2) ->
            expand ~incoming ~new_:(Ids.add f1 new_) ~old:old' ~next;
            expand ~incoming ~new_:(Ids.add f2 new_) ~old:old' ~next
        | TNext f -> expand ~incoming ~new_ ~old:old' ~next:(Ids.add f next)
        | TUntil (f1, f2) ->
            expand ~incoming ~new_:(Ids.add f1 new_) ~old:old'
              ~next:(Ids.add eta next);
            expand ~incoming ~new_:(Ids.add f2 new_) ~old:old' ~next
        | TRelease (f1, f2) ->
            expand ~incoming ~new_:(Ids.add f2 new_) ~old:old'
              ~next:(Ids.add eta next);
            expand ~incoming
              ~new_:(Ids.add f1 (Ids.add f2 new_))
              ~old:old' ~next
  in
  expand ~incoming:(Ids.singleton 0) ~new_:(Ids.singleton phi)
    ~old:Ids.empty ~next:Ids.empty;
  g

(* ------------------------------------------------------------------ *)
(* Concrete automaton: tableau x past tester                           *)
(* ------------------------------------------------------------------ *)

type t = {
  n : int;  (* 0 is the pre-initial state *)
  rows : (Alphabet.letter * int) list array;  (* letters ascending *)
  sets : int;  (* one acceptance set per until *)
  marks : Iset.t array;
  expansions : int;
  graph_nodes : int;
}

(* Does entering [nd] on [letter], with the tester in [ts], hold?  The
   literals of [old] are read in order, an atom through
   [Alphabet.holds], so an atom outside the alphabet raises when the
   reading reaches it. *)
let admits alpha tester terms nd letter ts =
  Ids.for_all
    (fun id ->
      match terms.(id) with
      | TLit (LAtom (a, pos), _) -> Alphabet.holds alpha a letter = pos
      | TLit (LPast (i, pos), _) -> Past_tester.value tester ts i = pos
      | TTrue | TFalse | TAnd _ | TOr _ | TNext _ | TUntil _ | TRelease _ ->
          true)
    nd.old

let translate ?(budget = Budget.unlimited) alpha f =
  let skeleton, pasts = extract_pasts f in
  let terms, phi = intern_closure (nnf skeleton) in
  let expansions = ref 0 in
  let g = build_graph ~budget ~count:expansions terms phi in
  let tester = Past_tester.make alpha (Array.to_list pasts) in
  (* the nodes entered from [src], newest first *)
  let targets src = List.filter (fun nd -> Ids.mem src nd.incoming) g.nodes in
  let index = Hashtbl.create 64 and queue = Queue.create () in
  let states = ref [] and rows = ref [] in
  let intern nd ts =
    match Hashtbl.find_opt index (nd.id, ts) with
    | Some q -> q
    | None ->
        let q = Hashtbl.length index + 1 in
        Hashtbl.add index (nd.id, ts) q;
        Queue.add (nd, ts) queue;
        states := nd :: !states;
        q
  in
  let row src ts =
    let into = targets src in
    let letters = if into = [] then [] else Alphabet.letters alpha in
    rows :=
      List.concat_map
        (fun letter ->
          let ts' = Past_tester.step tester ts letter in
          List.filter_map
            (fun nd ->
              if admits alpha tester terms nd letter ts' then
                Some (letter, intern nd ts')
              else None)
            into)
        letters
      :: !rows
  in
  row 0 (Past_tester.initial tester);
  while not (Queue.is_empty queue) do
    Budget.tick budget;
    let nd, ts = Queue.pop queue in
    row nd.id ts
  done;
  let untils =
    List.filter_map
      (fun (u, t) -> match t with TUntil (_, rhs) -> Some (u, rhs) | _ -> None)
      (List.mapi (fun u t -> (u, t)) (Array.to_list terms))
  in
  let node_marks nd =
    Iset.of_list
      (List.concat
         (List.mapi
            (fun k (u, rhs) ->
              if (not (Ids.mem u nd.old)) || Ids.mem rhs nd.old then [ k ]
              else [])
            untils))
  in
  {
    n = List.length !rows;
    rows = Array.of_list (List.rev !rows);
    sets = List.length untils;
    marks = Array.of_list (Iset.empty :: List.rev_map node_marks !states);
    expansions = !expansions;
    graph_nodes = g.fresh;
  }

let every_set sets =
  Acceptance.And (List.init sets (fun k -> Acceptance.Inf (Iset.singleton k)))

(* Keys of [a] as themselves, successors by position in the row's
   distinct targets. *)
let nonempty a =
  (* the row's targets once each, in the order they first occur *)
  let rec firsts seen = function
    | [] -> List.rev seen
    | (_, q') :: rest ->
        firsts (if List.mem q' seen then seen else q' :: seen) rest
  in
  let succ q i =
    match List.nth_opt (firsts [] a.rows.(q)) i with
    | Some q' -> q'
    | None -> Emptiness.past_end
  in
  (Emptiness.on_the_fly ~marks:(Array.get a.marks) ~succ (every_set a.sets) 0)
    .accepting

(* The synchronous product from [(0, 0)], pair [(i, j)] the key
   [i * b.n + j], [b]'s sets shifted past [a]'s.  A pair's successors
   are every edge of [i]'s row with every edge of [j]'s row on the same
   letter, in the order of [i]'s row.  Returns the verdict and the
   number of pairs the search visited. *)
let product a b =
  let width = b.n in
  let successors = Hashtbl.create 64 in
  let succ k p =
    let next =
      match Hashtbl.find_opt successors k with
      | Some s -> s
      | None ->
          let s =
            Array.of_list
              (List.concat_map
                 (fun (l, i') ->
                   List.filter_map
                     (fun (l', j') ->
                       if l = l' then Some ((i' * width) + j') else None)
                     b.rows.(k mod width))
                 a.rows.(k / width))
          in
          Hashtbl.add successors k s;
          s
    in
    if p < Array.length next then next.(p) else Emptiness.past_end
  in
  let marks k =
    Iset.union
      a.marks.(k / width)
      (Iset.of_list
         (List.map (( + ) a.sets) (Iset.elements b.marks.(k mod width))))
  in
  let r =
    Emptiness.on_the_fly ~marks ~succ (every_set (a.sets + b.sets)) 0
  in
  (r.accepting, r.visited)
