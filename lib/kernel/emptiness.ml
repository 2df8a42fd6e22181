let rec first_fin = function
  | Acceptance.Fin x -> Some x
  | And l | Or l -> List.find_map first_fin l
  | True | False | Inf _ -> None

let rec fin_false x = function
  | Acceptance.Fin y when Iset.equal x y -> Acceptance.False
  | And l -> And (List.map (fin_false x) l)
  | Or l -> Or (List.map (fin_false x) l)
  | acc -> acc

let restrict acc s = Acceptance.simplify (Acceptance.map_sets (Iset.inter s) acc)

(* The cycle-carrying SCCs of the subgraph induced on [region], at a
   cost proportional to [region]: the recursion splits one SCC at a
   time.  A singleton of the region carries a cycle iff it has a
   self-loop, which stays inside it.  Each becomes a set only when the
   search reaches it, as a search that stops at the first of many
   singletons must not pay for the rest. *)
let cycle_sccs ~n ~succ region =
  List.filter (Graph_kernel.nontrivial ~succ)
    (Graph_kernel.sccs_region ~n ~succ region)

(* On a cycle [s] that [acc] rejects: [acc] restricted to [s] and the
   [Fin X] to split on, or [None] when no cycle inside [s] satisfies
   [acc] — a [Fin]-free condition is monotone, so [s] failing it
   decides.  An infinity set inside [s] avoiding X lives in an SCC of
   s∖X; one meeting X falsifies [Fin X] and stays on [s].  Restricting
   is exact on the subsets of [s], and setting a [Fin] atom false only
   strengthens a positive condition, so a cycle that satisfies what
   the recursion carries satisfies the caller's condition. *)
let split acc s =
  if Option.is_none (first_fin acc) then None
  else
    let acc = restrict acc s in
    Option.map (fun x -> (acc, x)) (first_fin acc)

(* The caller's region is no SCC, so it is searched once without the
   condition's first [Fin] set X before it is decomposed whole: a cycle
   avoiding X lies in an SCC of region∖X, and one meeting X satisfies
   the condition with [Fin X] false.  On the inclusion engine's pair
   graph the first decomposition is the largest cost, and region∖X
   usually already decides.  Below this point each SCC is decomposed
   first. *)
let top_split acc region =
  let acc = Acceptance.simplify acc in
  match first_fin acc with
  | None -> [ (acc, region) ]
  | Some x ->
      [
        (acc, Iset.diff region x);
        (Acceptance.simplify (fin_false x acc), region);
      ]

let accepting_scc ?(budget = Budget.unlimited) ~n ~succ acc region =
  let rec within acc region =
    List.find_map
      (fun c -> search acc (Iset.of_list c))
      (cycle_sccs ~n ~succ region)
  and search acc s =
    Budget.check budget;
    if Acceptance.eval acc s then Some s
    else
      Option.bind (split acc s) (fun (acc, x) ->
          match within acc (Iset.diff s x) with
          | None -> search (fin_false x acc) s
          | found -> found)
  in
  List.find_map
    (function Acceptance.False, _ -> None | acc, region -> within acc region)
    (top_split acc region)

(* [Acceptance.eval] on the states of a list, without building their
   set: an SCC that satisfies the condition never needs one. *)
let rec meets c x =
  match c with [] -> false | q :: c -> Iset.mem q x || meets c x

let holds_on acc c = Acceptance.eval_with ~meets acc c

(* A cycle satisfying the condition puts all its states on an
   accepting cycle.  The states found so far are flags in one byte
   string, so marking an SCC costs its size, not a copy of the whole
   set; a cycle they cover has nothing left to add.  The result set is
   built once. *)
let accepting_states ?(budget = Budget.unlimited) ~n ~succ acc region =
  let good = Bytes.make n '\000' in
  let rec covered = function
    | [] -> true
    | q :: c -> Bytes.get good q <> '\000' && covered c
  in
  let rec mark = function
    | [] -> ()
    | q :: c ->
        Bytes.set good q '\001';
        mark c
  in
  let rec within acc region =
    List.iter
      (fun c -> if not (covered c) then collect acc c None)
      (cycle_sccs ~n ~succ region)
  and collect acc c s =
    Budget.tick budget;
    if holds_on acc c then mark c
    else
      let s = match s with Some s -> s | None -> Iset.of_list c in
      match split acc s with
      | None -> ()
      | Some (acc, x) ->
          within acc (Iset.diff s x);
          if not (covered c) then collect (fin_false x acc) c (Some s)
  in
  List.iter
    (function Acceptance.False, _ -> () | acc, region -> within acc region)
    (top_split acc region);
  Iset.init n (fun q -> Bytes.get good q <> '\000')

(* The split yields two families: [r1], from the SCCs of s∖X (members
   of different SCCs are disjoint, so only [r2] can subsume them), and
   [r2], from [s] with [Fin X] false.  Every accepting cycle inside [s]
   lies under a member of one of them, so dropping the members strictly
   below another member of the other family (and one of two equal
   members) keeps that cover and leaves exactly the maximal accepting
   cycles. *)
let maximal_accepting_cycles ?(budget = Budget.unlimited) ~n ~succ acc s =
  let merge r1 r2 =
    match (r1, r2) with
    | [], r | r, [] -> r
    | _ ->
        let strictly_below c d = Iset.subset c d && not (Iset.equal c d) in
        List.filter (fun c -> not (List.exists (Iset.subset c) r2)) r1
        @ List.filter (fun c -> not (List.exists (strictly_below c) r1)) r2
  in
  let rec maximal acc s =
    Budget.check budget;
    if Acceptance.eval acc s then [ s ]
    else
      match split acc s with
      | None -> []
      | Some (acc, x) ->
          merge
            (List.concat_map
               (fun c -> maximal acc (Iset.of_list c))
               (cycle_sccs ~n ~succ (Iset.diff s x)))
            (maximal (fin_false x acc) s)
  in
  maximal acc s

(* Couvreur's SCC-root-stack search.  States are numbered in discovery
   order, so a state's number is its DFS index and the open roots are
   increasing from the bottom of [roots] up; a root's [seen] is the
   union of the marks of the states it has absorbed.  An edge to an
   open state closes a cycle through it: every root above it joins it
   (their SCCs are one), and the merged root's states form a cycle, so
   it accepts once [seen] covers every set.  A state whose root
   finishes lies in a completed SCC without an accepting cycle, and
   edges into it are ignored from then on. *)
type frame = { state : int; mutable next : int list }
type root = { first : int; mutable seen : Iset.t }
type search = { accepting : bool; visited : int }

let generalized_buchi ?(budget = Budget.unlimited) ~sets ~marks ~succ start =
  let all = Iset.init sets (fun _ -> true) in
  let index = Int_index.create 8 in
  let closed = ref (Bytes.make 16 '\000') in
  let count = ref 0 in
  let frames = ref [] and roots = ref [] and open_ = ref [] in
  (* [key] is already bound to the next number *)
  let discover key =
    Budget.tick budget;
    let v = !count in
    incr count;
    if v = Bytes.length !closed then begin
      let b = Bytes.make (2 * v) '\000' in
      Bytes.blit !closed 0 b 0 v;
      closed := b
    end;
    frames := { state = v; next = succ key } :: !frames;
    roots := { first = v; seen = marks key } :: !roots;
    open_ := v :: !open_
  in
  (* the root [r] absorbs every root above the open state [w] *)
  let rec merge w r =
    match !roots with
    | top :: rest when top.first > w ->
        roots := rest;
        merge w (Iset.union top.seen r)
    | top :: _ ->
        top.seen <- Iset.union top.seen r;
        Iset.subset all top.seen
    | [] -> assert false
  in
  let rec close v =
    match !open_ with
    | w :: rest when w >= v ->
        Bytes.set !closed w '\001';
        open_ := rest;
        close v
    | _ -> ()
  in
  let rec run () =
    match !frames with
    | [] -> false
    | f :: below -> (
        match f.next with
        | key :: next ->
            f.next <- next;
            let w = Int_index.find_or_add index key !count in
            if w = !count then begin
              discover key;
              run ()
            end
            else if Bytes.get !closed w = '\000' && merge w Iset.empty then true
            else run ()
        | [] ->
            frames := below;
            (match !roots with
            | top :: rest when top.first = f.state ->
                roots := rest;
                close f.state
            | _ -> ());
            run ())
  in
  ignore (Int_index.find_or_add index start 0);
  discover start;
  let accepting = run () in
  { accepting; visited = !count }

(* Breadth-first path through [ok] states from one of [srcs] to [dst],
   at least one step long, as [src; ...; dst]: the searched-for state
   is recognized among successors, so it may be a source itself. *)
let path ~succ ~ok srcs dst =
  let parent = Hashtbl.create 64 in
  let queue = Queue.create () in
  List.iter
    (fun v ->
      if not (Hashtbl.mem parent v) then begin
        Hashtbl.add parent v (-1);
        Queue.add v queue
      end)
    srcs;
  let rec back v acc =
    let p = Hashtbl.find parent v in
    if p < 0 then v :: acc else back p (v :: acc)
  in
  let rec bfs () =
    match Queue.take_opt queue with
    | None ->
        invalid_arg
          (Printf.sprintf "Emptiness.lasso: state %d is out of reach" dst)
    | Some v -> (
        let next = List.filter ok (succ v) in
        if List.mem dst next then back v [ dst ]
        else begin
          List.iter
            (fun w ->
              if not (Hashtbl.mem parent w) then begin
                Hashtbl.add parent w v;
                Queue.add w queue
              end)
            next;
          bfs ()
        end)
  in
  bfs ()

let rec inf_sets = function
  | Acceptance.Inf x -> [ x ]
  | And l | Or l -> List.concat_map inf_sets l
  | True | False | Fin _ -> []

let lasso ~succ ~starts acc s =
  let anchor =
    match Iset.min_elt_opt s with
    | Some q -> q
    | None -> invalid_arg "Emptiness.lasso: empty cycle"
  in
  let prefix =
    if List.mem anchor starts then [ anchor ]
    else path ~succ ~ok:(fun _ -> true) starts anchor
  in
  let inside q = Iset.mem q s in
  let reps =
    List.sort_uniq Int.compare
      (List.filter_map
         (fun x -> Iset.min_elt_opt (Iset.inter x s))
         (inf_sets acc))
  in
  (* each leg drops its first state, the one the previous leg ended on *)
  let leg cur t = List.tl (path ~succ ~ok:inside [ cur ] t) in
  let cur, walk =
    List.fold_left
      (fun (cur, walk) t ->
        if t = cur then (cur, walk) else (t, walk @ leg cur t))
      (anchor, []) reps
  in
  (prefix, walk @ leg cur anchor)
