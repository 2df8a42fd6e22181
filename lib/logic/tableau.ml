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

module Int_table = Hashtbl.Make (Int)

(* A state's row lists its edges, letters ascending: edge [i] reads
   [letters.(q).(i)] into [targets.(q).(i)].  [distinct.(q)] lists the
   row's targets once each, in the order they first occur. *)
type nba = {
  alpha : Alphabet.t;
  n : int;  (* concrete states; 0 is the pre-initial state *)
  letters : Alphabet.letter array array;
  targets : int array array;
  distinct : int array array;
  sets : int;  (* generalized Buechi: one acceptance set per until *)
  marks : Iset.t array;  (* the sets each state belongs to *)
}

let size a = a.n

let transitions a q =
  List.combine (Array.to_list a.letters.(q)) (Array.to_list a.targets.(q))

(* What entering a node demands of the letter read and of the stepped
   tester state: its literals, read in [Ids.for_all] order up to the
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
      (Ids.for_all
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
      Ids.iter
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
  (* A state's row is built on scratch arrays that double when full,
     then copied out.  [stamp.(q)] is the last row that listed [q]; [q]
     is at most the number of states so far, so one doubling makes
     room for it. *)
  let edge_letters = ref (Array.make 16 0) in
  let edge_targets = ref (Array.make 16 0) in
  let firsts = ref (Array.make 16 0) and stamp = ref (Array.make 64 (-1)) in
  let put buf i x =
    if i = Array.length !buf then buf := Array.append !buf (Array.make i 0);
    !buf.(i) <- x
  in
  let rows_letters = ref [] and rows_targets = ref [] in
  let rows_distinct = ref [] in
  let successors row src ts =
    let len = ref 0 and d = ref 0 in
    List.iter
      (fun letter ->
        let ts' = Past_tester.step tester ts letter in
        List.iter
          (fun (nd, e) ->
            if admits e letter ts' then begin
              let q = intern nd ts' in
              put edge_letters !len letter;
              put edge_targets !len q;
              incr len;
              if q = Array.length !stamp then
                stamp := Array.append !stamp (Array.make q (-1));
              if !stamp.(q) <> row then begin
                !stamp.(q) <- row;
                put firsts !d q;
                incr d
              end
            end)
          targets.(src))
      (match targets.(src) with [] -> [] | _ -> letters);
    rows_letters := Array.sub !edge_letters 0 !len :: !rows_letters;
    rows_targets := Array.sub !edge_targets 0 !len :: !rows_targets;
    rows_distinct := Array.sub !firsts 0 !d :: !rows_distinct
  in
  successors 0 0 (Past_tester.initial tester);
  let row = ref 1 in
  while not (Queue.is_empty queue) do
    Budget.tick budget;
    let src, ts = Queue.pop queue in
    successors !row src ts;
    incr row
  done;
  let rows r = Array.of_list (List.rev !r) in
  let letters = rows rows_letters and targets = rows rows_targets in
  let distinct = rows rows_distinct in
  let n = Array.length targets in
  Telemetry.observe telemetry "tableau.states" (float_of_int n);
  (* generalized Buechi condition, one set per until [u = _ U rhs]:
     the states whose node does not promise [u] or already meets
     [rhs].  A state's marks are its node's; [state_nodes] lists the
     nodes of states n-1 down to 1, and the pre-initial state is in no
     set *)
  let untils =
    Array.to_seqi terms
    |> Seq.filter_map (fun (u, t) ->
           match t with TUntil (_, rhs) -> Some (u, rhs) | _ -> None)
    |> Array.of_seq
  in
  let sets = Array.length untils in
  let node_marks = Array.make (g.fresh + 1) Iset.empty in
  List.iter
    (fun nd ->
      node_marks.(nd.id) <-
        Iset.init sets (fun k ->
            let u, rhs = untils.(k) in
            (not (Ids.mem u nd.old)) || Ids.mem rhs nd.old))
    g.nodes;
  let marks = Array.make n Iset.empty in
  List.iteri
    (fun i nd -> marks.(n - 1 - i) <- node_marks.(nd.id))
    !state_nodes;
  { alpha; n; letters; targets; distinct; sets; marks }

(* ------------------------------------------------------------------ *)
(* Emptiness and membership                                            *)
(* ------------------------------------------------------------------ *)

let next_states a q = Array.to_list a.targets.(q)

(* The generalized Buechi condition on mark indices [0 .. sets-1]. *)
let every_set sets =
  Acceptance.And (List.init sets (fun k -> Acceptance.Inf (Iset.singleton k)))

(* The successor of [q] at position [i] of [row], which lists them *)
let at row i = if i < Array.length row then row.(i) else Emptiness.past_end

(* The on-the-fly search from the pre-initial state; every state is its
   own key.  It walks each state's distinct targets: a repeated edge in
   one frame can neither discover a key nor change an open root's
   marks. *)
let nonempty a =
  (Emptiness.on_the_fly ~marks:(Array.get a.marks)
     ~succ:(fun q i -> at a.distinct.(q) i)
     (every_set a.sets) 0)
    .accepting

(* The synchronous product, searched from the pre-initial pair [(0, 0)]
   as it is built: pair [(i, j)] is the key [i * b.n + j], and it is in
   [a]'s sets under their own indices and in [b]'s shifted past them.
   The successors of [(i, j)] are every successor [i'] of [i] with every
   successor [j'] of [j] on the same letter, in the order of [i]'s row.
   Both rows are letter-sorted, so a cursor walks them as a merge: [x]
   in [i]'s row, [y0] at the start of [j]'s block on [x]'s letter, [y]
   in that block, which is walked again for each successor of [i] on
   the letter.  The search walks a key's positions in order and the
   walks nest, so the open cursors sit on one {!Int_stack}, five ints
   each, [i], [j], [x], [y0], [y], and a cursor is read and moved in
   place in the stack's top chunk. *)
let intersects ?budget a b =
  if not (a.alpha == b.alpha || Alphabet.equal a.alpha b.alpha) then
    invalid_arg "Tableau.intersects: alphabet mismatch";
  let telemetry = Telemetry.ambient () in
  Telemetry.span telemetry "tableau.product" @@ fun () ->
  let width = b.n in
  let shifted =
    Array.map
      (fun m -> Iset.of_list (List.map (( + ) a.sets) (Iset.elements m)))
      b.marks
  in
  let marks k = Iset.union a.marks.(k / width) shifted.(k mod width) in
  let cursors = Int_stack.create () in
  let rec next c t la ta lb tb =
    let x = c.(t - 3) and y0 = c.(t - 2) and y = c.(t - 1) in
    if x >= Array.length la || y0 >= Array.length lb then begin
      Int_stack.drop cursors 5;
      Emptiness.past_end
    end
    else if la.(x) < lb.(y0) then begin
      c.(t - 3) <- x + 1;
      c.(t - 1) <- y0;
      next c t la ta lb tb
    end
    else if lb.(y0) < la.(x) then begin
      c.(t - 2) <- y0 + 1;
      c.(t - 1) <- y0 + 1;
      next c t la ta lb tb
    end
    else if y < Array.length lb && lb.(y) = la.(x) then begin
      c.(t - 1) <- y + 1;
      (ta.(x) * width) + tb.(y)
    end
    else begin
      c.(t - 3) <- x + 1;
      c.(t - 1) <- y0;
      next c t la ta lb tb
    end
  in
  let succ k p =
    if p = 0 then begin
      Int_stack.push cursors (k / width);
      Int_stack.push cursors (k mod width);
      Int_stack.push cursors 0;
      Int_stack.push cursors 0;
      Int_stack.push cursors 0
    end;
    let c = cursors.data and t = cursors.top in
    let i = c.(t - 5) and j = c.(t - 4) in
    if (i * width) + j <> k then
      invalid_arg "Tableau.intersects: successor walks do not nest";
    next c t a.letters.(i) a.targets.(i) b.letters.(j) b.targets.(j)
  in
  let r =
    Emptiness.on_the_fly ?budget ~marks ~succ (every_set (a.sets + b.sets)) 0
  in
  Telemetry.observe telemetry "tableau.product_states" (float_of_int r.visited);
  r.accepting

let satisfiable ?budget ?telemetry alpha f =
  nonempty (translate ?budget ?telemetry alpha f)

let valid ?budget ?telemetry alpha f =
  not (satisfiable ?budget ?telemetry alpha (Formula.Not f))

let equiv ?budget ?telemetry alpha f g =
  valid ?budget ?telemetry alpha (Formula.Iff (f, g))

let implies ?budget ?telemetry alpha f g =
  valid ?budget ?telemetry alpha (Formula.Imp (f, g))

(* The lasso needs the accepting cycle whole, so the witness takes the
   Emerson-Lei route: set k as the states marked k, searched over all
   states, which are numbered by BFS from the start and so reachable. *)
let witness ?budget ?telemetry alpha f =
  let a = translate ?budget ?telemetry alpha f in
  let succ = next_states a in
  let acc =
    Acceptance.And
      (List.init a.sets (fun k ->
           Acceptance.Inf (Iset.init a.n (fun q -> Iset.mem k a.marks.(q)))))
  in
  Emptiness.accepting_scc ~n:a.n ~succ acc (Iset.init a.n (fun _ -> true))
  |> Option.map (fun s ->
         let prefix, cycle = Emptiness.lasso ~succ ~starts:[ 0 ] acc s in
         (* each step reads the first letter of its edge in the row *)
         let rec letters q = function
           | [] -> []
           | q' :: rest ->
               let rec first i =
                 if a.targets.(q).(i) = q' then a.letters.(q).(i)
                 else first (i + 1)
               in
               first 0 :: letters q' rest
         in
         let anchor = List.nth prefix (List.length prefix - 1) in
         Word.lasso
           ~prefix:(Array.of_list (letters 0 (List.tl prefix)))
           ~cycle:(Array.of_list (letters anchor cycle)))

(* The product of the automaton with the lasso's positions: pair
   [(q, j)] is state [q] about to read position [j], the key
   [q * total + j], in the sets of [q]. *)
let accepts_lasso a lasso =
  let p = Array.length lasso.Word.prefix in
  let total = p + Array.length lasso.Word.cycle in
  let next_pos j = if j + 1 < total then j + 1 else p in
  let succ k i =
    let q = k / total and j = k mod total in
    let row = a.targets.(q) in
    if i >= Array.length row then Emptiness.past_end
    else if a.letters.(q).(i) = Word.at lasso j then
      (row.(i) * total) + next_pos j
    else Emptiness.skip
  in
  (Emptiness.on_the_fly
     ~marks:(fun k -> a.marks.(k / total))
     ~succ (every_set a.sets) 0)
    .accepting
