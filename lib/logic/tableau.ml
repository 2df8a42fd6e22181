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

(* Number every subterm of [phi] in [Stdlib.compare] order.  GPVW
   expands the least id of a node's [new] set first, so this order
   decides the graph and, through it, the state numbering: it is the
   term a set of the terms themselves would have picked.  Returns the
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
(* Sets of closure ids as words                                        *)
(* ------------------------------------------------------------------ *)

(* A set of closure ids is a list of [width] words, [width] the
   closure's size over 62 rounded up: id [62 k + b] is bit [b] of word
   [k].  The sets of one closure all have its width, so two of them are
   equal iff their lists are.  The width is an argument of each
   translation, never a global: lint translates on several domains at
   once. *)
let word_bits = 62

let no_ids width = List.init width (fun _ -> 0)

let rec mem i = function
  | [] -> false
  | w :: rest ->
      if i < word_bits then w land (1 lsl i) <> 0 else mem (i - word_bits) rest

let rec add i = function
  | [] -> invalid_arg "Tableau.add: id past the closure"
  | w :: rest ->
      if i < word_bits then (w lor (1 lsl i)) :: rest
      else w :: add (i - word_bits) rest

let rec remove i = function
  | [] -> []
  | w :: rest ->
      if i < word_bits then (w land lnot (1 lsl i)) :: rest
      else w :: remove (i - word_bits) rest

let rec is_empty = function [] -> true | w :: rest -> w = 0 && is_empty rest

(* The index of the lowest set bit of a non-zero word, by halving. *)
let lowest_bit w =
  let b = w land -w in
  let k = if b land 0xFFFF_FFFF = 0 then 32 else 0 in
  let k = if (b lsr k) land 0xFFFF = 0 then k + 16 else k in
  let k = if (b lsr k) land 0xFF = 0 then k + 8 else k in
  let k = if (b lsr k) land 0xF = 0 then k + 4 else k in
  let k = if (b lsr k) land 0x3 = 0 then k + 2 else k in
  if (b lsr k) land 0x1 = 0 then k + 1 else k

(* The least id of a non-empty set. *)
let min_elt s =
  let rec go base = function
    | [] -> invalid_arg "Tableau.min_elt: empty set"
    | 0 :: rest -> go (base + word_bits) rest
    | w :: _ -> base + lowest_bit w
  in
  go 0 s

(* [p] on the ids of [s] in increasing order, up to the first that
   fails. *)
let for_all p s =
  let rec bits base w =
    w = 0 || (p (base + lowest_bit w) && bits base (w land (w - 1)))
  in
  let rec words base = function
    | [] -> true
    | w :: rest -> bits base w && words (base + word_bits) rest
  in
  words 0 s

let rec equal_ids s t =
  match (s, t) with
  | [], [] -> true
  | w :: s, v :: t -> w = v && equal_ids s t
  | [], _ :: _ | _ :: _, [] -> false

let hash_ids s h = List.fold_left (fun h w -> (h * 65599) + w) h s

(* ------------------------------------------------------------------ *)
(* GPVW node graph                                                     *)
(* ------------------------------------------------------------------ *)

module Ids = Set.Make (Int)

type node = {
  id : int;
  mutable incoming : Ids.t;  (* 0 is the virtual initial node *)
  old : int list;
  next : int list;
}

(* Nodes are identified by their (old, next) pair. *)
module Node_key = Hashtbl.Make (struct
  type t = int list * int list

  let equal (o, n) (o', n') = equal_ids o o' && equal_ids n n'
  let hash (o, n) = hash_ids n (hash_ids o 0 * 31) land max_int
end)

(* The graph's nodes by id: [0] the virtual initial node, then the
   nodes in the order they were made. *)
let build_graph ~budget ~count ~width terms phi =
  let none = no_ids width in
  let nodes = ref [] and fresh = ref 0 in
  let by_key = Node_key.create 64 in
  let rec expand ~incoming ~new_ ~old ~next =
    Budget.tick budget;
    incr count;
    if is_empty new_ then (
      match Node_key.find_opt by_key (old, next) with
      | Some r -> r.incoming <- Ids.union r.incoming incoming
      | None ->
          incr fresh;
          let r = { id = !fresh; incoming; old; next } in
          nodes := r :: !nodes;
          Node_key.add by_key (old, next) r;
          expand ~incoming:(Ids.singleton r.id) ~new_:next ~old:none
            ~next:none)
    else
      let eta = min_elt new_ in
      let new_ = remove eta new_ in
      if mem eta old then expand ~incoming ~new_ ~old ~next
      else
        let old' = add eta old in
        match terms.(eta) with
        | TFalse -> ()
        | TTrue -> expand ~incoming ~new_ ~old:old' ~next
        | TLit (_, complement) ->
            if complement < 0 || not (mem complement old) then
              expand ~incoming ~new_ ~old:old' ~next
        | TAnd (f1, f2) ->
            expand ~incoming ~new_:(add f1 (add f2 new_)) ~old:old' ~next
        | TOr (f1, f2) ->
            expand ~incoming ~new_:(add f1 new_) ~old:old' ~next;
            expand ~incoming ~new_:(add f2 new_) ~old:old' ~next
        | TNext f -> expand ~incoming ~new_ ~old:old' ~next:(add f next)
        | TUntil (f1, f2) ->
            expand ~incoming ~new_:(add f1 new_) ~old:old'
              ~next:(add eta next);
            expand ~incoming ~new_:(add f2 new_) ~old:old' ~next
        | TRelease (f1, f2) ->
            expand ~incoming ~new_:(add f2 new_) ~old:old'
              ~next:(add eta next);
            expand ~incoming ~new_:(add f1 (add f2 new_)) ~old:old' ~next
  in
  expand ~incoming:(Ids.singleton 0) ~new_:(add phi none) ~old:none
    ~next:none;
  let initial = { id = 0; incoming = Ids.empty; old = none; next = none } in
  Array.of_list (initial :: List.rev !nodes)

(* ------------------------------------------------------------------ *)
(* Concrete automaton: tableau x past tester                           *)
(* ------------------------------------------------------------------ *)

(* The rows in flat arrays.  State [q]'s edges are the positions
   [off.(q) .. off.(q+1) - 1], letters ascending, edge [e] reading
   [lets.(e)] into [tgts.(e)]; its distinct targets, once each in the
   order they first occur in the row, are [dist.(doff.(q)) ..
   dist.(doff.(q+1) - 1)]. *)
type nba = {
  alpha : Alphabet.t;
  n : int;  (* concrete states; 0 is the pre-initial state *)
  off : int array;
  lets : Alphabet.letter array;
  tgts : int array;
  doff : int array;
  dist : int array;
  sets : int;  (* generalized Buechi: one acceptance set per until *)
  marks : Iset.t array;  (* the sets each state belongs to *)
}

let size a = a.n

let transitions a q =
  List.init
    (a.off.(q + 1) - a.off.(q))
    (fun i -> (a.lets.(a.off.(q) + i), a.tgts.(a.off.(q) + i)))

(* What a formula and its negation share: the alphabet, the past table
   of their skeleton, the one tester over it (made by the first product
   that needs it) and each atom's truth over all letters, [None] for an
   atom outside the alphabet. *)
type context = {
  alphabet : Alphabet.t;
  past_table : Formula.t list;
  mutable tester : Past_tester.t option;
  mutable truths : (string * bool array option) list;
}

let context alphabet pasts =
  { alphabet; past_table = Array.to_list pasts; tester = None; truths = [] }

let tester ctx =
  match ctx.tester with
  | Some t -> t
  | None ->
      let t = Past_tester.make ctx.alphabet ctx.past_table in
      ctx.tester <- Some t;
      t

let truth ctx a =
  match List.assoc_opt a ctx.truths with
  | Some t -> t
  | None ->
      let t =
        match Alphabet.truth ctx.alphabet a with
        | t -> Some t
        | exception Invalid_argument _ -> None
      in
      ctx.truths <- (a, t) :: ctx.truths;
      t

(* What entering a node demands of the letter read and of the stepped
   tester state: its literals, read in increasing id order up to the
   first atom outside the alphabet.  That atom is read last, through
   [Alphabet.holds], so it raises exactly when reading the node's
   literals one by one would reach it. *)
type entry = {
  letters : bool array;  (* the atom literals read hold, per letter *)
  pasts : (int * bool) list;  (* the past literals read *)
  unknown : (string * bool) option;
}

let entry_of ctx terms all_letters nd =
  let letters = ref all_letters and pasts = ref [] and unknown = ref None in
  ignore
    (for_all
       (fun id ->
         match terms.(id) with
         | TLit (LAtom (a, pos), _) -> (
             match truth ctx a with
             | Some t ->
                 if !letters == all_letters then
                   letters := Array.copy all_letters;
                 let l = !letters in
                 Array.iteri (fun i b -> if b <> pos then l.(i) <- false) t;
                 true
             | None ->
                 unknown := Some (a, pos);
                 false)
         | TLit (LPast (i, pos), _) ->
             pasts := (i, pos) :: !pasts;
             true
         | TTrue | TFalse | TAnd _ | TOr _ | TNext _ | TUntil _ | TRelease _
           ->
             true)
       nd.old);
  { letters = !letters; pasts = !pasts; unknown = !unknown }

let rec pasts_hold tester ts = function
  | [] -> true
  | (i, pos) :: rest ->
      Past_tester.value tester ts i = pos && pasts_hold tester ts rest

let admits alpha tester e letter ts =
  e.letters.(letter)
  && pasts_hold tester ts e.pasts
  &&
  match e.unknown with
  | None -> true
  | Some (a, pos) -> Alphabet.holds alpha a letter = pos

(* An int array that doubles when full. *)
type buffer = { mutable items : int array; mutable used : int }

let buffer n = { items = Array.make n 0; used = 0 }

let push b x =
  if b.used = Array.length b.items then begin
    let items = Array.make (2 * b.used) 0 in
    Array.blit b.items 0 items 0 b.used;
    b.items <- items
  end;
  b.items.(b.used) <- x;
  b.used <- b.used + 1

let contents b = Array.sub b.items 0 b.used

(* The automaton of the formula whose negation normal form is [phi],
   over [ctx]'s skeleton. *)
let automaton ~budget ~telemetry ctx phi =
  let terms, root = intern_closure phi in
  let width = (Array.length terms + word_bits - 1) / word_bits in
  let expansions = ref 0 in
  let nodes = build_graph ~budget ~count:expansions ~width terms root in
  let fresh = Array.length nodes - 1 in
  Telemetry.observe telemetry "tableau.expansions" (float_of_int !expansions);
  Telemetry.observe telemetry "tableau.graph_nodes" (float_of_int fresh);
  let tester = tester ctx in
  let alpha = ctx.alphabet in
  let n_letters = Alphabet.size alpha in
  let entries =
    Array.map (entry_of ctx terms (Array.make n_letters true)) nodes
  in
  (* [into.(into_off.(src) .. into_off.(src+1) - 1)]: the nodes whose
     incoming contains [src], newest first *)
  let into_off = Array.make (fresh + 2) 0 in
  Array.iter
    (fun nd ->
      Ids.iter
        (fun src -> into_off.(src + 1) <- into_off.(src + 1) + 1)
        nd.incoming)
    nodes;
  for src = 1 to fresh + 1 do
    into_off.(src) <- into_off.(src) + into_off.(src - 1)
  done;
  let into = Array.make into_off.(fresh + 1) 0 in
  let fill = Array.sub into_off 0 (fresh + 1) in
  for id = fresh downto 1 do
    Ids.iter
      (fun src ->
        into.(fill.(src)) <- id;
        fill.(src) <- fill.(src) + 1)
      nodes.(id).incoming
  done;
  (* concrete states: (node, tester state) codes interned in number
     order, so state [q]'s row is written when every row before it is;
     0 = pre-initial.  [stamp.(q)] is the last row that listed [q]. *)
  let n_tester = Past_tester.n_states tester in
  let index = Int_index.create () in
  let node_of = buffer 16 and tester_of = buffer 16 and stamp = buffer 16 in
  let off = buffer 16 and lets = buffer 64 and tgts = buffer 64 in
  let doff = buffer 16 and dist = buffer 32 in
  push node_of 0;
  push tester_of (Past_tester.initial tester);
  push stamp (-1);
  push off 0;
  push doff 0;
  let row q =
    let src = node_of.items.(q) and ts = tester_of.items.(q) in
    let first = into_off.(src) and last = into_off.(src + 1) in
    if first < last then
      for letter = 0 to n_letters - 1 do
        let ts' = Past_tester.step tester ts letter in
        for t = first to last - 1 do
          let nd = into.(t) in
          if admits alpha tester entries.(nd) letter ts' then begin
            let fresh_state = node_of.used in
            let q' =
              Int_index.find_or_add index ((nd * n_tester) + ts') fresh_state
            in
            if q' = fresh_state then begin
              push node_of nd;
              push tester_of ts';
              push stamp (-1)
            end;
            push lets letter;
            push tgts q';
            if stamp.items.(q') <> q then begin
              stamp.items.(q') <- q;
              push dist q'
            end
          end
        done
      done;
    push off lets.used;
    push doff dist.used
  in
  row 0;
  let q = ref 1 in
  while !q < node_of.used do
    Budget.tick budget;
    row !q;
    incr q
  done;
  let n = node_of.used in
  Telemetry.observe telemetry "tableau.states" (float_of_int n);
  (* generalized Buechi condition, one set per until [u = _ U rhs]:
     the states whose node does not promise [u] or already meets
     [rhs].  A state's marks are its node's, and the pre-initial state
     is in no set *)
  let untils =
    Array.to_seqi terms
    |> Seq.filter_map (fun (u, t) ->
           match t with TUntil (_, rhs) -> Some (u, rhs) | _ -> None)
    |> Array.of_seq
  in
  let sets = Array.length untils in
  let node_marks =
    Array.map
      (fun nd ->
        Iset.init sets (fun k ->
            let u, rhs = untils.(k) in
            (not (mem u nd.old)) || mem rhs nd.old))
      nodes
  in
  let marks =
    Array.init n (fun q ->
        if q = 0 then Iset.empty else node_marks.(node_of.items.(q)))
  in
  {
    alpha;
    n;
    off = contents off;
    lets = contents lets;
    tgts = contents tgts;
    doff = contents doff;
    dist = contents dist;
    sets;
    marks;
  }

let ambient = function Some t -> t | None -> Telemetry.ambient ()

let translate ?(budget = Budget.unlimited) ?telemetry alpha f =
  let telemetry = ambient telemetry in
  Telemetry.span telemetry "tableau.translate" @@ fun () ->
  let skeleton, pasts = extract_pasts f in
  automaton ~budget ~telemetry (context alpha pasts) (nnf skeleton)

(* [f] and [Not f] have one skeleton up to its root and one past table,
   so they share the extraction and the tester.  [Not f] is built
   first, as lint built it when it translated the two apart. *)
let translate_pair ?(budget = Budget.unlimited) ?telemetry alpha f =
  let telemetry = ambient telemetry in
  let span k = Telemetry.span telemetry "tableau.translate" k in
  let skeleton, ctx, negative =
    span @@ fun () ->
    let skeleton, pasts = extract_pasts f in
    let ctx = context alpha pasts in
    (skeleton, ctx, automaton ~budget ~telemetry ctx (neg skeleton))
  in
  (span (fun () -> automaton ~budget ~telemetry ctx (nnf skeleton)), negative)

(* ------------------------------------------------------------------ *)
(* Emptiness and membership                                            *)
(* ------------------------------------------------------------------ *)

let next_states a q =
  List.init (a.off.(q + 1) - a.off.(q)) (fun i -> a.tgts.(a.off.(q) + i))

(* The generalized Buechi condition on mark indices [0 .. sets-1]. *)
let every_set sets =
  Acceptance.And (List.init sets (fun k -> Acceptance.Inf (Iset.singleton k)))

(* The on-the-fly search from the pre-initial state; every state is its
   own key.  It walks each state's distinct targets: a repeated edge in
   one frame can neither discover a key nor change an open root's
   marks. *)
let nonempty a =
  let succ q i =
    let d = a.doff.(q) + i in
    if d < a.doff.(q + 1) then a.dist.(d) else Emptiness.past_end
  in
  (Emptiness.on_the_fly ~marks:(Array.get a.marks) ~succ (every_set a.sets) 0)
    .accepting

(* The synchronous product, searched from the pre-initial pair [(0, 0)]
   as it is built: pair [(i, j)] is the key [i * b.n + j], and it is in
   [a]'s sets under their own indices and in [b]'s shifted past them.
   The successors of [(i, j)] are every successor [i'] of [i] with every
   successor [j'] of [j] on the same letter, in the order of [i]'s row.
   Both rows are letter-sorted, so a cursor walks them as a merge over
   edge positions: [x] in [i]'s row, [y0] at the start of [j]'s block on
   [x]'s letter, [y] in that block, which is walked again for each
   successor of [i] on the letter.  The search walks a key's positions
   in order and the walks nest, so the open cursors sit on one
   {!Int_stack}, five ints each, [i], [j], [x], [y0], [y], and a cursor
   is read and moved in place in the stack's top chunk. *)
let intersects ?budget a b =
  if not (a.alpha == b.alpha || Alphabet.equal a.alpha b.alpha) then
    invalid_arg "Tableau.intersects: alphabet mismatch";
  let telemetry = Telemetry.ambient () in
  Telemetry.span telemetry "tableau.product" @@ fun () ->
  let width = b.n and sets = a.sets + b.sets in
  let marks k =
    let ma = a.marks.(k / width) and mb = b.marks.(k mod width) in
    if Iset.is_empty mb then ma
    else
      Iset.init sets (fun s ->
          if s < a.sets then Iset.mem s ma else Iset.mem (s - a.sets) mb)
  in
  let la = a.lets and ta = a.tgts and lb = b.lets and tb = b.tgts in
  let cursors = Int_stack.create () in
  let rec next c t xe ye =
    let x = c.(t - 3) and y0 = c.(t - 2) and y = c.(t - 1) in
    if x >= xe || y0 >= ye then begin
      Int_stack.drop cursors 5;
      Emptiness.past_end
    end
    else if la.(x) < lb.(y0) then begin
      c.(t - 3) <- x + 1;
      c.(t - 1) <- y0;
      next c t xe ye
    end
    else if lb.(y0) < la.(x) then begin
      c.(t - 2) <- y0 + 1;
      c.(t - 1) <- y0 + 1;
      next c t xe ye
    end
    else if y < ye && lb.(y) = la.(x) then begin
      c.(t - 1) <- y + 1;
      (ta.(x) * width) + tb.(y)
    end
    else begin
      c.(t - 3) <- x + 1;
      c.(t - 1) <- y0;
      next c t xe ye
    end
  in
  let succ k p =
    if p = 0 then begin
      let i = k / width and j = k mod width in
      Int_stack.push cursors i;
      Int_stack.push cursors j;
      Int_stack.push cursors a.off.(i);
      Int_stack.push cursors b.off.(j);
      Int_stack.push cursors b.off.(j)
    end;
    let c = cursors.data and t = cursors.top in
    let i = c.(t - 5) and j = c.(t - 4) in
    if (i * width) + j <> k then
      invalid_arg "Tableau.intersects: successor walks do not nest";
    next c t a.off.(i + 1) b.off.(j + 1)
  in
  let r = Emptiness.on_the_fly ?budget ~marks ~succ (every_set sets) 0 in
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
               let rec first e =
                 if a.tgts.(e) = q' then a.lets.(e) else first (e + 1)
               in
               first a.off.(q) :: letters q' rest
         in
         let anchor = List.nth prefix (List.length prefix - 1) in
         Word.lasso
           ~prefix:(Array.of_list (letters 0 (List.tl prefix)))
           ~cycle:(Array.of_list (letters anchor cycle)))

(* The product of the automaton with the lasso's positions: pair
   [(q, j)] is state [q] about to read position [j], the key
   [q * total + j], in the sets of [q].  Position [i] of a pair is edge
   [i] of [q]'s row. *)
let accepts_lasso a lasso =
  let p = Array.length lasso.Word.prefix in
  let total = p + Array.length lasso.Word.cycle in
  let next_pos j = if j + 1 < total then j + 1 else p in
  let succ k i =
    let q = k / total and j = k mod total in
    let e = a.off.(q) + i in
    if e >= a.off.(q + 1) then Emptiness.past_end
    else if a.lets.(e) = Word.at lasso j then (a.tgts.(e) * total) + next_pos j
    else Emptiness.skip
  in
  (Emptiness.on_the_fly
     ~marks:(fun k -> a.marks.(k / total))
     ~succ (every_set a.sets) 0)
    .accepting
